"""Tests for plaintext joins and the Database executor."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.join import chain_join, hash_join, nested_loop_join
from repro.db.predicate import InPredicate
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError


def _tables():
    left = Table("L", Schema.of(("k", "int"), ("x", "str")), [
        (1, "a"), (2, "b"), (2, "c"), (3, "d"),
    ])
    right = Table("R", Schema.of(("id", "int"), ("k", "int"), ("y", "str")), [
        (10, 2, "p"), (11, 3, "q"), (12, 5, "r"), (13, 2, "s"),
    ])
    return left, right


class TestHashJoin:
    def test_basic(self):
        left, right = _tables()
        result = hash_join(left, right, "k", "k")
        assert result.stats.output_rows == 5  # k=2 gives 2x2, k=3 gives 1
        # Lexicographic, the two-table chain's order.
        assert result.index_pairs == [
            (1, 0), (1, 3), (2, 0), (2, 3), (3, 1),
        ]

    def test_schema_prefixing_on_collision(self):
        left, right = _tables()
        result = hash_join(left, right, "k", "k")
        assert "L.k" in result.table.schema.names()
        assert "R.k" in result.table.schema.names()

    def test_with_predicates(self):
        left, right = _tables()
        result = hash_join(
            left, right, "k", "k",
            InPredicate("x", ["b"]), InPredicate("y", ["p", "s"]),
        )
        assert sorted(result.index_pairs) == [(1, 0), (1, 3)]

    def test_empty_result(self):
        left, right = _tables()
        result = hash_join(
            left, right, "k", "k", InPredicate("x", ["nope"]), None
        )
        assert result.index_pairs == []
        assert len(result.table) == 0

    def test_duplicate_keys_cross_product(self):
        left = Table("L", Schema.of(("k", "int")), [(1,), (1,)])
        right = Table("R", Schema.of(("j", "int")), [(1,), (1,), (1,)])
        result = hash_join(left, right, "k", "j")
        assert result.stats.output_rows == 6


class TestNestedLoopJoin:
    def test_matches_hash_join(self):
        left, right = _tables()
        hash_result = hash_join(left, right, "k", "k")
        nested_result = nested_loop_join(left, right, "k", "k")
        assert hash_result.index_pairs == nested_result.index_pairs
        assert hash_result.table.rows() == nested_result.table.rows()

    def test_quadratic_comparisons(self):
        left, right = _tables()
        nested = nested_loop_join(left, right, "k", "k")
        assert nested.stats.comparisons == len(left) * len(right)
        hashed = hash_join(left, right, "k", "k")
        # Hash join only "compares" on actual bucket hits.
        assert hashed.stats.comparisons < nested.stats.comparisons

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=15),
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=15),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, left_keys, right_keys):
        left = Table("L", Schema.of(("k", "int")), [(k,) for k in left_keys])
        right = Table("R", Schema.of(("j", "int")), [(k,) for k in right_keys])
        if not left_keys or not right_keys:
            return
        hash_pairs = sorted(hash_join(left, right, "k", "j").index_pairs)
        nested_pairs = sorted(nested_loop_join(left, right, "k", "j").index_pairs)
        assert hash_pairs == nested_pairs


class TestDatabase:
    def test_execute_matches_direct_join(self):
        left, right = _tables()
        db = Database()
        db.add_table(left)
        db.add_table(right)
        query = JoinQuery.build("L", "R", on=("k", "k"),
                                where_left={"x": ["b", "d"]})
        result = db.execute(query)
        assert sorted(result.index_pairs) == [(1, 0), (1, 3), (3, 1)]

    def test_nested_algorithm(self):
        left, right = _tables()
        db = Database()
        db.add_table(left)
        db.add_table(right)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        assert sorted(db.execute(query, "nested").index_pairs) == sorted(
            db.execute(query, "hash").index_pairs
        )

    def test_unknown_table(self):
        db = Database()
        with pytest.raises(QueryError):
            db.execute(JoinQuery.build("A", "B", on=("x", "y")))

    def test_duplicate_table_rejected(self):
        db = Database()
        left, _ = _tables()
        db.add_table(left)
        with pytest.raises(QueryError):
            db.add_table(left)

    def test_unknown_join_column(self):
        left, right = _tables()
        db = Database()
        db.add_table(left)
        db.add_table(right)
        with pytest.raises(QueryError):
            db.execute(JoinQuery.build("L", "R", on=("nope", "k")))

    def test_unknown_algorithm(self):
        left, right = _tables()
        db = Database()
        db.add_table(left)
        db.add_table(right)
        with pytest.raises(QueryError):
            db.execute(JoinQuery.build("L", "R", on=("k", "k")), "sort-merge")

    def test_selection_on_join_column_rejected(self):
        left, right = _tables()
        db = Database()
        db.add_table(left)
        db.add_table(right)
        query = JoinQuery.build("L", "R", on=("k", "k"), where_left={"k": [1]})
        with pytest.raises(QueryError):
            db.execute(query)


class TestJoinedSchemaIsTheTwoTableChainSchema:
    """The client decrypts a two-way result through the chain path, so
    the plaintext :func:`hash_join` reference must carry the chain
    prefix rule at n = 2 — and answer with chain_join's rows in
    chain_join's order."""

    @settings(max_examples=200, deadline=None)
    @given(
        names=st.tuples(*[st.sampled_from(["A", "B", "A.1"])] * 2),
        columns=st.tuples(
            *[st.sets(st.sampled_from("kxyz"), min_size=1)] * 2
        ),
        keys=st.lists(st.integers(0, 2), min_size=2, max_size=8),
    )
    def test_prefixes_and_schema_agree(self, names, columns, keys):
        tables = [
            Table(name, Schema.of(*[(c, "int") for c in sorted(cols)]))
            for name, cols in zip(names, columns)
        ]
        for i, key in enumerate(keys):
            table = tables[i % 2]
            table.insert((key,) * len(table.schema))
        joins = [sorted(cols)[0] for cols in columns]
        pair = hash_join(*tables, *joins)
        chain = chain_join(tables, joins)
        assert pair.table.schema == chain.table.schema
        assert pair.index_pairs == chain.index_tuples
        assert pair.table.rows() == chain.table.rows()
