"""Tests for the leakage analyzer: pair arithmetic and the Section 2.1 timeline."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    CryptDBScheme,
    DeterministicScheme,
    HahnScheme,
    SecureJoinAdapter,
)
from repro.baselines.api import make_pair
from repro.bench.experiments import example_queries, example_tables
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.leakage.analyzer import analyze_schemes, minimal_floor
from repro.leakage.pairs import (
    all_true_pairs,
    connected_components,
    is_super_additive,
    minimal_query_leakage,
    transitive_closure,
)


class TestTruePairs:
    def test_example_has_six_pairs(self):
        assert len(all_true_pairs(example_tables())) == 6

    def test_within_table_pairs_counted(self):
        table = Table("T", Schema.of(("k", "int")), [(1,), (1,), (1,)])
        pairs = all_true_pairs([(table, "k")])
        assert len(pairs) == 3  # C(3,2)

    def test_no_equal_values_no_pairs(self):
        table = Table("T", Schema.of(("k", "int")), [(1,), (2,)])
        assert all_true_pairs([(table, "k")]) == set()


class TestMinimalQueryLeakage:
    def test_first_example_query(self):
        tables = example_tables()
        q1 = example_queries()[0]
        assert minimal_query_leakage(tables, q1) == {
            make_pair(("Teams", 0), ("Employees", 1))
        }

    def test_unfiltered_query_leaks_everything(self):
        tables = example_tables()
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        assert minimal_query_leakage(tables, query) == all_true_pairs(tables)

    def test_within_table_pairs_in_leakage(self):
        """Selected same-table rows with equal join values are leaked."""
        tables = example_tables()
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_left={"name": ["No Match"]},
            where_right={"role": ["Tester", "Programmer"]},
        )
        pairs = minimal_query_leakage(tables, query)
        assert pairs == {
            make_pair(("Employees", 0), ("Employees", 1)),
            make_pair(("Employees", 2), ("Employees", 3)),
        }


class TestTransitiveClosure:
    def test_chains_are_closed(self):
        a, b, c = ("T", 1), ("T", 2), ("T", 3)
        closed = transitive_closure({make_pair(a, b), make_pair(b, c)})
        assert closed == {make_pair(a, b), make_pair(b, c), make_pair(a, c)}

    def test_disjoint_components_stay_disjoint(self):
        a, b, c, d = ("T", 1), ("T", 2), ("T", 3), ("T", 4)
        closed = transitive_closure({make_pair(a, b), make_pair(c, d)})
        assert len(closed) == 2

    def test_empty(self):
        assert transitive_closure(set()) == set()

    def test_idempotent(self):
        a, b, c = ("T", 1), ("T", 2), ("T", 3)
        once = transitive_closure({make_pair(a, b), make_pair(b, c)})
        assert transitive_closure(once) == once


class TestConnectedComponents:
    """The union-find under every closure: classes of the equivalence
    the edges generate, over the listed nodes and the edges' own."""

    def test_first_seen_order_and_sorted_members(self):
        assert connected_components(
            [5, 3, 9], [(4, 3), (1, 4), (7, 8)]
        ) == [[5], [1, 3, 4], [9], [7, 8]]

    def test_accepts_pairs_and_repeated_or_looping_edges(self):
        edges = [frozenset((1, 2)), (2, 1), (3, 3), (2, 1)]
        assert connected_components((), edges) == [[1, 2], [3]]

    @settings(max_examples=200, deadline=None)
    @given(
        nodes=st.lists(st.integers(0, 11), max_size=12),
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20
        ),
    )
    def test_property_equals_the_brute_force_closure(self, nodes, edges):
        """Random edge sets over at most 12 nodes, isolated nodes
        included, against reachability closed by repeated relaxation."""
        universe = list(dict.fromkeys(
            nodes + [end for edge in edges for end in edge]
        ))
        reach = {node: {node} for node in universe}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                merged = reach[a] | reach[b]
                for node in merged:
                    if reach[node] != merged:
                        reach[node] = merged
                        changed = True
        expected = []
        for node in universe:
            if sorted(reach[node]) not in expected:
                expected.append(sorted(reach[node]))
        assert connected_components(nodes, edges) == expected


class TestSuperAdditivity:
    def test_detects_excess(self):
        a, b, c, d = ("T", 1), ("T", 2), ("T", 3), ("T", 4)
        per_query = [{make_pair(a, b)}]
        assert is_super_additive({make_pair(a, b), make_pair(c, d)}, per_query)

    def test_closure_is_not_super_additive(self):
        a, b, c = ("T", 1), ("T", 2), ("T", 3)
        per_query = [{make_pair(a, b)}, {make_pair(b, c)}]
        revealed = transitive_closure({make_pair(a, b), make_pair(b, c)})
        assert not is_super_additive(revealed, per_query)


class TestSection21Timeline:
    """The paper's central comparison table, end to end."""

    @pytest.fixture(scope="class")
    def timeline(self):
        schemes = [
            DeterministicScheme(),
            CryptDBScheme(),
            HahnScheme(),
            SecureJoinAdapter(rng=random.Random(3)),
        ]
        return analyze_schemes(schemes, example_tables(), example_queries())

    def test_counts_match_paper(self, timeline):
        summary = timeline.summary()
        assert summary["deterministic"] == [6, 6, 6]
        assert summary["cryptdb"] == [0, 6, 6]
        assert summary["hahn"] == [0, 1, 6]
        assert summary["securejoin"] == [0, 1, 2]
        assert summary["minimum (closure of union)"] == [0, 1, 2]

    def test_only_securejoin_is_additive(self, timeline):
        floor = timeline.floor
        assert timeline.traces["deterministic"].is_super_additive(floor)
        assert timeline.traces["cryptdb"].is_super_additive(floor)
        assert timeline.traces["hahn"].is_super_additive(floor)
        assert not timeline.traces["securejoin"].is_super_additive(floor)

    def test_securejoin_achieves_exact_floor(self, timeline):
        assert timeline.traces["securejoin"].revealed == timeline.floor

    def test_all_schemes_answer_correctly(self, timeline):
        reference = timeline.traces["deterministic"].answers
        for name, trace in timeline.traces.items():
            for answer, ref in zip(trace.answers, reference):
                assert sorted(answer.index_pairs) == sorted(ref.index_pairs), name

    def test_format_table_mentions_all_schemes(self, timeline):
        text = timeline.format_table()
        for name in ("deterministic", "cryptdb", "hahn", "securejoin"):
            assert name in text


class TestMinimalFloor:
    def test_floor_monotone(self):
        floor = minimal_floor(example_tables(), example_queries())
        assert len(floor) == 3
        assert floor[0] <= floor[1] <= floor[2]
