"""Unit tests for repro.db.table and predicates."""

from __future__ import annotations

import pytest

from repro.db.predicate import (
    AndPredicate,
    EqPredicate,
    InPredicate,
    NotPredicate,
    OrPredicate,
    TruePredicate,
)
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import SchemaError


@pytest.fixture
def people() -> Table:
    schema = Schema.of(("id", "int"), ("name", "str"), ("age", "int"))
    return Table("people", schema, [
        (1, "ann", 30),
        (2, "bob", 25),
        (3, "cal", 30),
        (4, "dee", 40),
    ])


class TestTable:
    def test_len_and_iter(self, people):
        assert len(people) == 4
        assert list(people)[0] == (1, "ann", 30)

    def test_getitem(self, people):
        assert people[2] == (3, "cal", 30)

    def test_insert_validates(self, people):
        with pytest.raises(SchemaError):
            people.insert((5, "eve"))
        with pytest.raises(SchemaError):
            people.insert(("x", "eve", 20))

    def test_column_values(self, people):
        assert people.column_values("age") == [30, 25, 30, 40]

    def test_filter(self, people):
        adults = people.filter(EqPredicate("age", 30))
        assert len(adults) == 2
        assert all(row[2] == 30 for row in adults)

    def test_matching_indices(self, people):
        assert people.matching_indices(EqPredicate("age", 30)) == [0, 2]
        assert people.matching_indices(None) == [0, 1, 2, 3]

    def test_rename_shares_rows(self, people):
        other = people.rename("other")
        assert other.name == "other"
        assert len(other) == len(people)

    def test_pretty_contains_header_and_rows(self, people):
        text = people.pretty(limit=2)
        assert "name" in text
        assert "ann" in text
        assert "more rows" in text

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Table("", Schema.of("a"))


class TestPredicates:
    def test_true(self, people):
        assert TruePredicate().evaluate(people[0], people.schema)

    def test_eq(self, people):
        pred = EqPredicate("name", "bob")
        assert pred.evaluate(people[1], people.schema)
        assert not pred.evaluate(people[0], people.schema)

    def test_in(self, people):
        pred = InPredicate("age", [25, 40])
        assert [pred.evaluate(r, people.schema) for r in people] == [
            False, True, False, True,
        ]

    def test_and_or_not(self, people):
        young = InPredicate("age", [25])
        named_ann = EqPredicate("name", "ann")
        assert not AndPredicate(young, named_ann).evaluate(people[0], people.schema)
        assert OrPredicate(young, named_ann).evaluate(people[0], people.schema)
        assert NotPredicate(young).evaluate(people[0], people.schema)

    def test_operator_sugar(self, people):
        pred = EqPredicate("age", 30) & ~EqPredicate("name", "cal")
        assert pred.evaluate(people[0], people.schema)
        assert not pred.evaluate(people[2], people.schema)
        either = EqPredicate("name", "bob") | EqPredicate("name", "dee")
        assert either.evaluate(people[1], people.schema)

    def test_referenced_columns(self):
        pred = AndPredicate(EqPredicate("a", 1), InPredicate("b", [2]))
        assert pred.referenced_columns() == frozenset({"a", "b"})
