"""In-memory relational tables."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.db.predicate import Predicate, TruePredicate
from repro.db.schema import Schema
from repro.errors import SchemaError

Row = tuple


class Table:
    """A named table: a schema plus an ordered list of rows.

    Rows are plain tuples in schema order.  The table validates rows on
    insertion so downstream code never sees schema violations.
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()):
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._rows: list[Row] = []
        for row in rows:
            self.insert(row)

    # -- construction ----------------------------------------------------
    @staticmethod
    def from_dicts(
        name: str, schema: Schema, records: Iterable[Mapping[str, object]]
    ) -> "Table":
        """Build a table from dict records keyed by column names."""
        table = Table(name, schema)
        names = schema.names()
        for record in records:
            unknown = set(record) - set(names)
            if unknown:
                raise SchemaError(f"unknown columns in record: {sorted(unknown)}")
            table.insert(tuple(record.get(n) for n in names))
        return table

    def insert(self, row: Sequence) -> None:
        row = tuple(row)
        self.schema.validate_row(row)
        self._rows.append(row)

    # -- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def rows(self) -> list[Row]:
        """A copy of the row list (mutating it does not affect the table)."""
        return list(self._rows)

    def column_values(self, column: str) -> list:
        """All values of one column, in row order."""
        index = self.schema.index_of(column)
        return [row[index] for row in self._rows]

    def value(self, row_index: int, column: str):
        return self._rows[row_index][self.schema.index_of(column)]

    # -- operators -----------------------------------------------------------
    def filter(self, predicate: Predicate) -> "Table":
        """A new table containing only rows matching the predicate."""
        result = Table(self.name, self.schema)
        for row in self._rows:
            if predicate.evaluate(row, self.schema):
                result._rows.append(row)
        return result

    def matching_indices(self, predicate: Predicate | None = None) -> list[int]:
        """Indices of rows matching the predicate (all rows if None)."""
        if predicate is None:
            predicate = TruePredicate()
        return [
            i
            for i, row in enumerate(self._rows)
            if predicate.evaluate(row, self.schema)
        ]

    def project(self, columns: Sequence[str]) -> "Table":
        """A new table with only the given columns."""
        indices = [self.schema.index_of(c) for c in columns]
        schema = Schema(tuple(self.schema.columns[i] for i in indices))
        result = Table(self.name, schema)
        for row in self._rows:
            result._rows.append(tuple(row[i] for i in indices))
        return result

    def rename(self, name: str) -> "Table":
        """Shallow copy with a different name (rows shared)."""
        copy = Table(name, self.schema)
        copy._rows = self._rows
        return copy

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self.schema.names()})"

    def pretty(self, limit: int = 10) -> str:
        """A printable grid of up to ``limit`` rows (for the examples)."""
        names = self.schema.names()
        shown = self._rows[:limit]
        cells = [list(map(str, names))] + [
            [str(v) for v in row] for row in shown
        ]
        widths = [max(len(r[c]) for r in cells) for c in range(len(names))]
        lines = []
        for i, row in enumerate(cells):
            lines.append(
                " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
            if i == 0:
                lines.append("-+-".join("-" * w for w in widths))
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)
