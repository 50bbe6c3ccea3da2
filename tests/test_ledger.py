"""The leakage ledger against what plaintext says the server may link.

A host keeps no per-query record of the handles it computed, only
:class:`~repro.series.ledger.LeakageLedger`: the equivalence classes of
``(table, row)`` nodes it has seen with equal handles.  The drive feeds
it in the refresh that computes the handles, from a map seeded with
every handle the query's series entry ever fed — held, or withdrawn by a
delete.  So, for one series entry's lifetime (from a cold run until the
entry is dropped), the server links every two rows that the entry's
token set decrypted, that satisfy their position's selection, and that
share a join value.  The oracle here computes exactly that from the
plaintext tables, and the ledger must equal it after every step of any
series of stores, inserts, deletes, fresh queries and re-submits, on a
single store and on a two-shard fleet.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import SecureJoinClient
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.series.ledger import LeakageLedger
from tests.test_replay_view import _Fleet, _Store

SCHEMA = Schema.of(("k", "int"), ("v", "str"))
NAMES = ("T1", "T2", "T3")
KEYS = 3
LABELS = ("a", "b")
#: The chains a series draws from: a pair, a 3-chain, and a chain that
#: names one table twice (two sides of it when the selections differ).
SHAPES = (("T1", "T2"), ("T1", "T2", "T3"), ("T1", "T2", "T1"))


def _base_tables(sizes=(5, 6, 4)):
    return [
        Table(
            name, SCHEMA,
            [(i % KEYS, LABELS[i // KEYS % 2]) for i in range(size)],
        )
        for name, size in zip(NAMES, sizes)
    ]


def _client(tables, seed=13):
    return SecureJoinClient.for_tables(
        [(table, "k") for table in tables],
        in_clause_limit=1,
        rng=random.Random(seed),
    )


def _closure(groups) -> set[frozenset]:
    """The classes of size two or more that overlapping ``groups``
    merge into — by set union, independently of the ledger."""
    merged: list[set] = []
    for group in groups:
        group = set(group)
        rest = []
        for known in merged:
            if known & group:
                group |= known
            else:
                rest.append(known)
        merged = rest + [group]
    return {frozenset(cls) for cls in merged if len(cls) >= 2}


def _classes(ledger: LeakageLedger) -> set[frozenset]:
    return {frozenset(cls) for cls in ledger.classes()}


class _Plaintext:
    """The plaintext mirror of a deployment, and what it lets the
    server link.

    A token set's series entry lives from its cold run until a table it
    names is stored again (in these series nothing is evicted and no run
    is abandoned).  Within one lifetime the server links every two rows
    the token set decrypted — each execution decrypts at least the live
    rows of each side — that satisfy that side's selection and share a
    join value.  Across lifetimes only shared nodes connect classes.
    """

    def __init__(self, tables):
        self.base = {table.name: list(table.rows()) for table in tables}
        self.rows = {name: list(rows) for name, rows in self.base.items()}
        self.dead: dict[str, set[int]] = {name: set() for name in self.base}
        #: token-set id -> (tables, selection labels) by chain position.
        self.issued: dict[int, tuple] = {}
        #: token-set id -> join value -> the nodes linked under it, for
        #: the lifetime of its series entry.
        self.live: dict[int, dict] = {}
        self.lifetimes: list[dict] = []

    def store(self, name) -> None:
        self.rows[name] = list(self.base[name])
        self.dead[name] = set()
        for ident, (tables, _) in list(self.issued.items()):
            if name in tables:
                self.live.pop(ident, None)

    def insert(self, name, row) -> int:
        self.rows[name].append(row)
        return len(self.rows[name]) - 1

    def delete(self, name, index) -> None:
        self.dead[name].add(index)

    def run(self, ident, tables, labels) -> None:
        groups = self.live.get(ident)
        if groups is None:
            groups = self.live[ident] = {}
            self.lifetimes.append(groups)
        for name, label in zip(tables, labels):
            for index, (key, value) in enumerate(self.rows[name]):
                if index not in self.dead[name] and label in (None, value):
                    groups.setdefault(key, set()).add((name, index))

    def classes(self) -> set[frozenset]:
        return _closure(
            nodes for groups in self.lifetimes for nodes in groups.values()
        )


class _Series:
    """One deployment driven step by step beside its plaintext mirror."""

    def __init__(self, deployment, sizes=(5, 6, 4)):
        self.tables = _base_tables(sizes)
        self.client = _client(self.tables)
        self.deployed = deployment(self.client, self.tables)
        self.host = self.deployed.host
        self.plain = _Plaintext(self.tables)
        #: The encrypted queries, by token-set id.
        self.queries: list = []

    def close(self) -> None:
        self.deployed.close()

    def store(self, which: int) -> None:
        self.deployed.restore(self.tables[which])
        self.plain.store(NAMES[which])

    def insert(self, which: int, key: int, label: str) -> None:
        name = NAMES[which]
        row = (key, label)
        index = self.host.insert_row(
            name, *self.client.encrypt_row_for(name, row)
        )
        assert index == self.plain.insert(name, row)

    def delete(self, which: int, value: int) -> None:
        name = NAMES[which]
        index = value % len(self.plain.rows[name])
        self.host.delete_rows(name, [index])
        self.plain.delete(name, index)

    def fresh(self, tables, labels):
        where = [None if label is None else {"v": [label]} for label in labels]
        if len(tables) == 2:
            query = self.client.create_query(JoinQuery.build(
                *tables, on=("k", "k"),
                where_left=where[0], where_right=where[1],
            ))
        else:
            query = self.client.create_chain_query(ChainQuery.build(
                [(name, "k") for name in tables], where=where,
            ))
        self.plain.issued[len(self.queries)] = (tuple(tables), tuple(labels))
        self.queries.append(query)
        return self.resubmit(len(self.queries) - 1)

    def resubmit(self, ident: int):
        query = self.queries[ident]
        tables, labels = self.plain.issued[ident]
        execute = (
            self.host.execute_join if len(tables) == 2
            else self.host.execute_chain
        )
        result = execute(query)
        self.plain.run(ident, tables, labels)
        return result


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 2)),
        st.tuples(
            st.just("insert"), st.integers(0, 2),
            st.integers(0, KEYS - 1), st.sampled_from(LABELS),
        ),
        st.tuples(st.just("delete"), st.integers(0, 2), st.integers(0, 50)),
        st.tuples(
            st.just("fresh"), st.sampled_from(SHAPES),
            st.lists(st.sampled_from((None,) + LABELS), min_size=3, max_size=3),
        ),
        st.tuples(st.just("resubmit"), st.integers(0, 50)),
    ),
    min_size=1,
    max_size=14,
)


def run_step(series: _Series, step) -> None:
    """Apply one drawn step (a re-submit before any query is a no-op)."""
    kind = step[0]
    if kind == "store":
        series.store(step[1])
    elif kind == "insert":
        series.insert(*step[1:])
    elif kind == "delete":
        series.delete(*step[1:])
    elif kind == "fresh":
        tables, labels = step[1:]
        series.fresh(tables, labels[:len(tables)])
    elif series.queries:
        before = _classes(series.host.ledger)
        result = series.resubmit(step[1] % len(series.queries))
        if result.stats.engine == "series":
            # A replay computes nothing, so it links nothing.
            assert _classes(series.host.ledger) == before


class TestLeakageLedger:
    def test_link_merges_classes_transitively(self):
        ledger = LeakageLedger()
        ledger.link([(("A", 0), ("B", 1)), (("C", 2), ("C", 3))])
        assert ledger.classes() == [[("A", 0), ("B", 1)], [("C", 2), ("C", 3)]]
        ledger.link([(("C", 3), ("B", 1))])
        assert ledger.classes() == [
            [("A", 0), ("B", 1), ("C", 2), ("C", 3)]
        ]
        # Linking what is already linked changes nothing.
        ledger.link([(("A", 0), ("C", 2)), (("B", 1), ("A", 0))])
        assert len(ledger.classes()) == 1

    def test_a_node_linked_to_itself_is_its_own_class(self):
        ledger = LeakageLedger()
        ledger.link([("x", "x"), ("y", "z")])
        assert ledger.classes() == [["x"], ["y", "z"]]

    def test_concurrent_links_lose_no_union(self):
        """Queries on one host link from their own threads.  Eight
        threads link the edges of one random tree, started together,
        with the interpreter switching threads as often as it can: every
        edge is needed, so a lost union would split the one class."""
        rng = random.Random(3)
        edges = [(rng.randrange(node), node) for node in range(1, 20_000)]
        rng.shuffle(edges)
        ledger = LeakageLedger()
        start = threading.Barrier(8)

        def link(batch):
            start.wait(timeout=60)
            ledger.link(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=link, args=(edges[i::8],))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [len(cls) for cls in ledger.classes()] == [20_000]

    def test_equal_nodes_that_are_not_one_object(self):
        ledger = LeakageLedger()
        ledger.link([(("T", 1), ("T", 2))])
        ledger.link([(("T", int("2")), ("U", int("7")))])
        assert ledger.classes() == [[("T", 1), ("T", 2), ("U", 7)]]


@pytest.mark.parametrize("deployment", [_Store, _Fleet])
class TestDeleteThenInsert:
    """A delta refresh computes, under the re-submitted token, a handle
    for a row inserted since, equal to the handle of a row deleted
    before: the server sees that equality, so the ledger links them."""

    def test_the_ledger_links_the_deleted_row_to_the_inserted_one(
        self, deployment
    ):
        left = Table("L", SCHEMA, [(1, "a"), (2, "b")])
        right = Table("R", SCHEMA, [(3, "c"), (4, "d")])
        client = _client([left, right])
        deployed = deployment(client, [left, right])
        host = deployed.host
        try:
            query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
            host.execute_join(query)
            assert host.ledger.classes() == []
            host.delete_rows("L", [0])
            inserted = host.insert_row("L", *client.encrypt_row_for("L", (1, "z")))
            assert inserted == 2
            result = host.execute_join(query)
            assert result.stats.delta_rows == 1
            assert host.ledger.classes() == [[("L", 0), ("L", 2)]]
        finally:
            deployed.close()


@pytest.mark.parametrize("deployment", [_Store, _Fleet])
class TestLedgerIsThePlaintextClosure:
    @settings(max_examples=30, deadline=None)
    @given(steps=STEPS)
    def test_any_series(self, deployment, steps):
        series = _Series(deployment)
        try:
            for step in steps:
                run_step(series, step)
                ledger = series.host.ledger.classes()
                assert all(len(cls) >= 2 for cls in ledger)
                assert _classes(series.host.ledger) == series.plain.classes()
        finally:
            series.close()

    def test_fifty_fresh_queries_keep_one_node_per_row(self, deployment):
        """The ledger grows with the rows linked, not with the queries:
        fifty fresh pair queries leave at most one node per row."""
        series = _Series(deployment, sizes=(9, 12, 1))
        try:
            for _ in range(50):
                series.fresh(SHAPES[0], (None, None))
            nodes = sum(map(len, series.host.ledger.classes()))
            assert 0 < nodes <= 9 + 12
            assert _classes(series.host.ledger) == series.plain.classes()
        finally:
            series.close()
