"""Unit tests for repro.db.schema."""

from __future__ import annotations

import pytest

from repro.db.schema import Column, Schema
from repro.errors import SchemaError


class TestColumn:
    def test_valid_types(self):
        for column_type in ("int", "str", "float", "bool"):
            Column("c", column_type)

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("c", "blob")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_accepts_none_as_null(self):
        assert Column("c", "int").accepts(None)

    def test_int_column(self):
        column = Column("c", "int")
        assert column.accepts(5)
        assert not column.accepts("5")
        assert not column.accepts(True)  # bool is not an int cell

    def test_float_column_accepts_int(self):
        assert Column("c", "float").accepts(3)
        assert Column("c", "float").accepts(3.5)

    def test_bool_column(self):
        assert Column("c", "bool").accepts(True)
        assert not Column("c", "bool").accepts(1)


class TestSchema:
    def test_of_builder(self):
        schema = Schema.of(("a", "int"), "b")
        assert schema.names() == ("a", "b")
        assert schema.column("b").type == "str"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_index_of(self):
        schema = Schema.of("a", "b", "c")
        assert schema.index_of("b") == 1
        with pytest.raises(SchemaError):
            schema.index_of("z")

    def test_contains(self):
        schema = Schema.of("a")
        assert "a" in schema
        assert "b" not in schema

    def test_validate_row_arity(self):
        schema = Schema.of(("a", "int"), ("b", "str"))
        schema.validate_row((1, "x"))
        with pytest.raises(SchemaError):
            schema.validate_row((1,))

    def test_validate_row_types(self):
        schema = Schema.of(("a", "int"),)
        with pytest.raises(SchemaError):
            schema.validate_row(("not-an-int",))

    def test_len(self):
        assert len(Schema.of("a", "b")) == 2
