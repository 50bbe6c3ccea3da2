"""A plaintext database: named tables plus join-query execution.

This is the reference implementation the encrypted path is validated
against: ``Database.execute(query)`` runs the selection-then-join
pipeline entirely in plaintext.
"""

from __future__ import annotations

from repro.db.join import JoinResult, hash_join, nested_loop_join
from repro.db.query import JoinQuery
from repro.db.table import Table
from repro.errors import QueryError


class Database:
    """A named collection of tables with equi-join execution."""

    def __init__(self):
        self._tables: dict[str, Table] = {}

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise QueryError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def execute(self, query: JoinQuery, algorithm: str = "hash") -> JoinResult:
        """Run an equi-join query; ``algorithm`` is ``"hash"`` or ``"nested"``."""
        left = self.table(query.left_table)
        right = self.table(query.right_table)
        query.left_selection.validate(left.schema, query.left_join_column)
        query.right_selection.validate(right.schema, query.right_join_column)
        if query.left_join_column not in left.schema:
            raise QueryError(
                f"join column {query.left_join_column!r} not in "
                f"{query.left_table!r}"
            )
        if query.right_join_column not in right.schema:
            raise QueryError(
                f"join column {query.right_join_column!r} not in "
                f"{query.right_table!r}"
            )
        join = {"hash": hash_join, "nested": nested_loop_join}.get(algorithm)
        if join is None:
            raise QueryError(f"unknown join algorithm {algorithm!r}")
        return join(
            left,
            right,
            query.left_join_column,
            query.right_join_column,
            query.left_selection.to_predicate(),
            query.right_selection.to_predicate(),
        )
