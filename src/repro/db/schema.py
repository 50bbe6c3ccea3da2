"""Relational schemas: columns, types and row validation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError

# The cell types the engine supports, named as in SQL.
COLUMN_TYPES = {"int", "str", "float", "bool"}

_PYTHON_TYPES = {
    "int": int,
    "str": str,
    "float": (int, float),
    "bool": bool,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str = "str"

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.type not in COLUMN_TYPES:
            raise SchemaError(
                f"unknown column type {self.type!r}; expected one of {sorted(COLUMN_TYPES)}"
            )

    def accepts(self, value) -> bool:
        """Whether ``value`` is a legal cell for this column (None = NULL)."""
        if value is None:
            return True
        expected = _PYTHON_TYPES[self.type]
        if self.type != "bool" and isinstance(value, bool):
            return False
        return isinstance(value, expected)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns with name-based lookup."""

    columns: tuple[Column, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        object.__setattr__(
            self, "_index", {c.name: i for i, c in enumerate(self.columns)}
        )

    @staticmethod
    def of(*specs: tuple[str, str] | str) -> "Schema":
        """Build a schema from ``("name", "type")`` pairs or bare names."""
        columns = []
        for spec in specs:
            if isinstance(spec, str):
                columns.append(Column(spec))
            else:
                name, column_type = spec
                columns.append(Column(name, column_type))
        return Schema(tuple(columns))

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, name: str) -> int:
        """Position of a column; raises :class:`SchemaError` if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; schema has {self.names()}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def validate_row(self, row: tuple) -> None:
        """Raise :class:`SchemaError` unless the row fits this schema."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} != schema arity {len(self.columns)}"
            )
        for value, column in zip(row, self.columns):
            if not column.accepts(value):
                raise SchemaError(
                    f"value {value!r} is not a {column.type} "
                    f"(column {column.name!r})"
                )
