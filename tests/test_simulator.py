"""Tests for the SIM-security simulator (Definition 5.2 / Theorem 5.2).

The operational content of the security theorem: an adversary view built
by the simulator from the trace alone has exactly the same match
structure as the real scheme's view.  These tests compute both views on
concrete query series and compare them — per query, and as what the
series reveals: the simulated views fed into a
:class:`~repro.series.ledger.LeakageLedger` must equal the server's own
ledger after every query.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.api import make_pair
from repro.bench.experiments import example_queries, example_tables
from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.leakage.pairs import minimal_query_leakage
from repro.leakage.simulator import TraceSimulator
from repro.series.ledger import LeakageLedger
from tests.conftest import held_handles


def _real_views(tables, queries, seed=5, prefilter=True):
    """Run the real scheme one query at a time; yield each query's view
    (``(table, row) -> handle``, every handle the server computed for
    it) with the server, whose ledger has just taken that query in."""
    client = SecureJoinClient.for_tables(
        [(t, c) for t, c in tables],
        in_clause_limit=4,
        rng=random.Random(seed),
        enable_prefilter=prefilter,
    )
    with SecureJoinServer(client.params) as server:
        for table, join_column in tables:
            server.store(client.encrypt_table(table, join_column))
        for query in queries:
            encrypted = client.create_query(query)
            server.execute_join(encrypted)
            view = {
                (encrypted.tables[position], row): handle
                for (position, row), handle in held_handles(
                    server, encrypted
                ).items()
            }
            yield view, server


def _match_classes(handles: dict) -> set[frozenset]:
    groups: dict[bytes, list] = {}
    for ref, handle in handles.items():
        groups.setdefault(handle, []).append(ref)
    return {frozenset(refs) for refs in groups.values() if len(refs) >= 2}


def _link(ledger: LeakageLedger, classes) -> None:
    """Feed one view's match classes into ``ledger``."""
    ledger.link(
        (first, other)
        for first, *rest in map(sorted, classes)
        for other in rest
    )


def _as_sets(ledger: LeakageLedger) -> set[frozenset]:
    return {frozenset(cls) for cls in ledger.classes()}


def _simulate_series(tables, queries, simulator, prefilter=True):
    """Simulate every query of the series from its trace beside the real
    run, checking the per-query match structure and the two ledgers."""
    simulated = LeakageLedger()
    for (real, server), query in zip(
        _real_views(tables, queries, prefilter=prefilter), queries
    ):
        # The trace: which rows were decrypted and their equality pairs.
        decrypted = list(real)
        sigma = minimal_query_leakage(tables, query)
        if prefilter:
            decrypted_set = set(decrypted)
            sigma = {p for p in sigma if all(r in decrypted_set for r in p)}
        view = simulator.simulate_query(0, decrypted, sigma)
        assert view.match_classes() == _match_classes(real)
        _link(simulated, view.match_classes())
        assert _as_sets(simulated) == _as_sets(server.ledger)


class TestSimulatedView:
    def test_pairs_grouped(self):
        simulator = TraceSimulator(rng=random.Random(1))
        rows = [("A", 0), ("A", 1), ("B", 0)]
        pairs = {make_pair(("A", 0), ("B", 0))}
        view = simulator.simulate_query(1, rows, pairs)
        assert view.handles[("A", 0)] == view.handles[("B", 0)]
        assert view.handles[("A", 1)] != view.handles[("A", 0)]

    def test_fresh_handles_across_queries(self):
        simulator = TraceSimulator(rng=random.Random(2))
        rows = [("A", 0)]
        v1 = simulator.simulate_query(1, rows, set())
        v2 = simulator.simulate_query(2, rows, set())
        assert v1.handles[("A", 0)] != v2.handles[("A", 0)]

    def test_match_classes(self):
        simulator = TraceSimulator(rng=random.Random(3))
        rows = [("A", 0), ("A", 1), ("B", 0), ("B", 1)]
        pairs = {
            make_pair(("A", 0), ("B", 0)),
            make_pair(("B", 0), ("B", 1)),
        }
        view = simulator.simulate_query(1, rows, pairs)
        assert view.match_classes() == {
            frozenset({("A", 0), ("B", 0), ("B", 1)})
        }


class TestSimulationMatchesReality:
    """The core SIM-security check on concrete workloads."""

    @pytest.mark.parametrize("prefilter", [True, False])
    def test_example_workload(self, prefilter):
        _simulate_series(
            example_tables(), example_queries(),
            TraceSimulator(rng=random.Random(7)), prefilter=prefilter,
        )

    def test_many_to_many_workload(self):
        left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                     [(1, "x"), (1, "y"), (2, "x"), (3, "y")])
        right = Table("R", Schema.of(("k", "int"), ("d", "str")),
                      [(1, "p"), (2, "p"), (2, "q"), (3, "q")])
        tables = [(left, "k"), (right, "k")]
        queries = [
            JoinQuery.build("L", "R", on=("k", "k"),
                            where_left={"c": ["x"]}),
            JoinQuery.build("L", "R", on=("k", "k"),
                            where_right={"d": ["q"]}),
            JoinQuery.build("L", "R", on=("k", "k")),
        ]
        _simulate_series(
            tables, queries, TraceSimulator(rng=random.Random(8)),
            prefilter=False,
        )

    def test_simulate_series_length(self):
        simulator = TraceSimulator(rng=random.Random(9))
        views = simulator.simulate_series(
            [[("A", 0)], [("A", 0), ("A", 1)]],
            [set(), {make_pair(("A", 0), ("A", 1))}],
        )
        assert len(views) == 2
        assert views[1].handles[("A", 0)] == views[1].handles[("A", 1)]


class TestViewOfARepeatedTable:
    """A chain may name one table twice under different tokens; the
    server then computes two handles for each of its rows, and what it
    learns has to account for both."""

    @staticmethod
    def _run():
        schema = Schema.of(("k", "int"), ("v", "str"))
        a = Table("A", schema, [(i % 3, f"A.{i}") for i in range(6)])
        b = Table("B", schema, [(i % 3, f"B.{i}") for i in range(5)])
        client = SecureJoinClient.for_tables(
            [(a, "k"), (b, "k")], in_clause_limit=1, rng=random.Random(7)
        )
        server = SecureJoinServer(client.params)
        for table in (a, b):
            server.store(client.encrypt_table(table, "k"))
        query = client.create_chain_query(ChainQuery.build(
            [("A", "k"), ("B", "k"), ("A", "k")],
            where=[{"v": ["A.0"]}, None, {"v": ["A.1"]}],
        ))
        result = server.execute_chain(query)
        (entry,) = server.series_cache._entries.values()
        return server, result, entry.executor

    def test_both_sides_of_the_table_are_computed(self):
        server, result, executor = self._run()
        assert result.stats.decryptions == 17
        assert [len(held) for held in executor.handles] == [6, 5, 6]
        first, _, second = executor.handles
        assert all(first[row] != second[row] for row in range(6))
        server.close()

    def test_the_ledger_links_every_equality_it_computed(self):
        """Every equality among the 17 handles, at all three positions,
        lies inside one ledger class, and no class joins rows that no
        chain of equal handles connects."""
        server, result, executor = self._run()
        try:
            by_handle: dict[bytes, set] = {}
            for name, held in zip(("A", "B", "A"), executor.handles):
                for row, handle in held.items():
                    by_handle.setdefault(handle, set()).add((name, row))
            assert sum(map(len, executor.handles)) == 17
            classes = _as_sets(server.ledger)
            for nodes in by_handle.values():
                if len(nodes) >= 2:
                    assert any(nodes <= cls for cls in classes)
            for cls in classes:
                # From any member, equal-handle groups reach the class.
                reached = {min(cls)}
                while True:
                    grown = reached.union(*(
                        nodes for nodes in by_handle.values()
                        if nodes & reached
                    ))
                    if grown == reached:
                        break
                    reached = grown
                assert reached == cls
            # A.0 (first position's selection) and A.1 (third's) each
            # share their key with two rows of B: both links are kept.
            assert classes == {
                frozenset({("A", 0), ("B", 0), ("B", 3)}),
                frozenset({("A", 1), ("B", 1), ("B", 4)}),
            }
        finally:
            server.close()
