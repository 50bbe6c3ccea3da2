"""Focused tests for server internals: tag index, candidates, what the
server can link."""

from __future__ import annotations

import random

import pytest

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError
from repro.store.tables import (
    decode_encrypted_table,
    encode_encrypted_table,
)
from tests.conftest import held_handles


def _setup(seed=41):
    left = Table("L", Schema.of(("k", "int"), ("c", "str"), ("d", "str")),
                 [(1, "x", "p"), (2, "y", "p"), (1, "x", "q"), (3, "z", "q")])
    right = Table("R", Schema.of(("k", "int"), ("e", "str")),
                  [(1, "m"), (2, "n"), (3, "o")])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=2,
        rng=random.Random(seed),
        enable_prefilter=True,
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


class TestTagIndex:
    def test_multi_column_prefilter_intersects(self):
        client, server = _setup()
        query = JoinQuery.build(
            "L", "R", on=("k", "k"),
            where_left={"c": ["x"], "d": ["q"]},
        )
        result = server.execute_join(client.create_query(query))
        # Only L row 2 matches (x AND q); it joins R row 0 on k=1.
        assert result.stats.candidates_left == 1
        assert result.tuples == [(2, 0)]

    def test_empty_intersection_short_circuits(self):
        client, server = _setup()
        query = JoinQuery.build(
            "L", "R", on=("k", "k"),
            where_left={"c": ["y"], "d": ["q"]},  # y rows are all d=p
        )
        result = server.execute_join(client.create_query(query))
        assert result.stats.candidates_left == 0
        assert result.stats.decryptions == len(
            server.table("R").ciphertexts
        )  # only the right side is decrypted
        assert result.tuples == []

    def test_no_matching_tag_value(self):
        client, server = _setup()
        query = JoinQuery.build(
            "L", "R", on=("k", "k"),
            where_left={"c": ["never-seen"]},
        )
        result = server.execute_join(client.create_query(query))
        assert result.stats.candidates_left == 0

    def test_index_rebuilt_after_reload(self):
        """A server restarted from serialized tables rebuilds its index."""
        client, server = _setup()
        backend = client.scheme.backend
        fresh = SecureJoinServer(client.params)
        for name in ("L", "R"):
            blob = encode_encrypted_table(server.table(name), backend)
            fresh.store(decode_encrypted_table(blob, backend))
        query = JoinQuery.build("L", "R", on=("k", "k"),
                                where_left={"c": ["x"]})
        original = server.execute_join(client.create_query(query))
        reloaded = fresh.execute_join(client.create_query(query))
        assert sorted(original.tuples) == sorted(reloaded.tuples)
        assert original.stats.candidates_left == reloaded.stats.candidates_left


class TestObservationsWithPrefilter:
    def test_only_candidates_observed(self):
        """The server decrypts, and so can link, exactly the candidates:
        L rows 1 and 3 share join values with R rows but fail the
        filter, so only the k = 1 class is revealed."""
        client, server = _setup()
        query = client.create_query(JoinQuery.build(
            "L", "R", on=("k", "k"), where_left={"c": ["x"]}
        ))
        server.execute_join(query)
        left_rows = [row for position, row in held_handles(server, query)
                     if position == 0]
        assert sorted(left_rows) == [0, 2]
        assert server.ledger.classes() == [[("L", 0), ("L", 2), ("R", 0)]]

    def test_matching_handles_within_query(self):
        """Rows 0 and 2 share join value 1 and both pass the filter."""
        client, server = _setup()
        query = client.create_query(JoinQuery.build(
            "L", "R", on=("k", "k"), where_left={"c": ["x"]}
        ))
        server.execute_join(query)
        handles = held_handles(server, query)
        assert handles[(0, 0)] == handles[(0, 2)]
        assert handles[(0, 0)] == handles[(1, 0)]
        assert handles[(0, 0)] != handles[(1, 1)]


class TestPrefilterMismatches:
    def test_query_tokens_without_table_tags(self):
        """Pre-filter tokens against a table without tags must fail loudly."""
        left = Table("L", Schema.of(("k", "int"), ("c", "str")), [(1, "x")])
        right = Table("R", Schema.of(("k", "int"), ("d", "str")), [(1, "y")])
        tagging_client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")],
            in_clause_limit=1,
            rng=random.Random(1),
            enable_prefilter=True,
        )
        plain_client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")],
            in_clause_limit=1,
            rng=random.Random(1),
            enable_prefilter=False,
        )
        server = SecureJoinServer(tagging_client.params)
        # The tagging client knows the tables (so it can build queries)...
        tagging_client.encrypt_table(left, "k")
        tagging_client.encrypt_table(right, "k")
        # ...but the server stores tag-less encryptions of them.
        server.store(plain_client.encrypt_table(left, "k"))
        server.store(plain_client.encrypt_table(right, "k"))
        query = JoinQuery.build("L", "R", on=("k", "k"),
                                where_left={"c": ["x"]})
        encrypted_query = tagging_client.create_query(query)
        with pytest.raises(QueryError):
            server.execute_join(encrypted_query)

    def test_restricted_prefilter_columns(self):
        """Only listed columns get tags; filtering on others still works
        (via polynomial selection), just without candidate pruning."""
        left = Table("L", Schema.of(("k", "int"), ("c", "str"), ("d", "str")),
                     [(1, "x", "p"), (2, "y", "q")])
        right = Table("R", Schema.of(("k", "int"), ("e", "str")),
                      [(1, "m"), (2, "n")])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")],
            in_clause_limit=1,
            rng=random.Random(2),
            enable_prefilter=True,
            prefilter_columns=("c",),
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(left, "k"))
        server.store(client.encrypt_table(right, "k"))
        # Selection on the untagged column d: no tags exist, so no
        # pre-filter tokens are sent for it; the polynomial still gates.
        query = JoinQuery.build("L", "R", on=("k", "k"),
                                where_left={"d": ["p"]})
        result = server.execute_join(client.create_query(query))
        assert result.tuples == [(0, 0)]


class TestMatcherComparisonAccounting:
    """Regression pin for the PR 1 `comparisons` accounting fix.

    The hash matcher charges exactly one hash-key comparison per probe
    plus one equality confirmation per emitted bucket entry:
    ``comparisons == probes + matches`` — O(n + m + output), never a
    function of the n*m product.  The nested matcher — the Section 6.5
    baseline, run here over the handles the server observed — stays
    exactly n*m.
    """

    @pytest.fixture(autouse=True)
    def _rematch(self, nested_rematch):
        self._nested_rematch = nested_rematch

    def _run(self, left_rows, right_rows, algorithm):
        left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                     [(k, f"l{i}") for i, k in enumerate(left_rows)])
        right = Table("R", Schema.of(("k", "int"), ("e", "str")),
                      [(k, f"r{i}") for i, k in enumerate(right_rows)])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=1,
            rng=random.Random(5),
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(left, "k"))
        server.store(client.encrypt_table(right, "k"))
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(query)
        if algorithm == "nested":
            return self._nested_rematch(server, query).stats
        return result.stats

    def test_hash_comparisons_formula(self):
        """comparisons == probes + matches, with probes == |right side|."""
        left_rows = [1, 1, 2, 3, 7]
        right_rows = [1, 2, 2, 5, 7, 7]
        stats = self._run(left_rows, right_rows, "hash")
        assert stats.probes == len(right_rows)
        assert stats.matches == 2 + 1 + 1 + 2  # k=1 twice, k=2, k=7 twice...
        assert stats.comparisons == stats.probes + stats.matches

    def test_hash_comparisons_zero_matches_stays_linear(self):
        """Disjoint keys: exactly one comparison per probe, none more."""
        stats = self._run([1, 2, 3, 4], [5, 6, 7], "hash")
        assert stats.matches == 0
        assert stats.comparisons == stats.probes == 3

    def test_hash_linear_nested_quadratic_growth(self):
        """Doubling both sides doubles hash comparisons but quadruples
        nested ones — the regression this class pins."""
        small_hash = self._run([1, 2, 3, 4], [5, 6, 7, 8], "hash")
        large_hash = self._run([1, 2, 3, 4] * 2, [5, 6, 7, 8] * 2, "hash")
        assert large_hash.comparisons == 2 * small_hash.comparisons

        small_nested = self._run([1, 2, 3, 4], [5, 6, 7, 8], "nested")
        large_nested = self._run(
            [1, 2, 3, 4] * 2, [5, 6, 7, 8] * 2, "nested"
        )
        assert small_nested.comparisons == 4 * 4
        assert large_nested.comparisons == 8 * 8

    def test_hash_never_worse_than_nested(self):
        left_rows = [i % 3 for i in range(12)]
        right_rows = [i % 3 for i in range(9)]
        hash_stats = self._run(left_rows, right_rows, "hash")
        nested_stats = self._run(left_rows, right_rows, "nested")
        assert hash_stats.matches == nested_stats.matches
        assert hash_stats.comparisons <= nested_stats.comparisons
        assert nested_stats.comparisons == 12 * 9
