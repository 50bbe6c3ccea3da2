"""The plaintext mirror every operation's answer is checked against.

The mirror holds each table as the benchmark generated it and follows
the run's inserts and deletes; the expected rows of a query come from
the repo's own plaintext reference joins (``repro.db.join.hash_join``
/ ``chain_join``) over it.  Checking happens outside the timed window.
"""

from __future__ import annotations

from repro.db.join import chain_join, hash_join
from repro.db.query import ChainQuery, JoinQuery
from repro.db.table import Table


class Mirror:
    """Plaintext tables plus tombstones, index-aligned with the store.

    Inserts append (as the server and the shard coordinator do), and a
    deleted row keeps its index, so ``rows[i]`` is always the plaintext
    of encrypted row ``i``.  The reference join runs over every row ever
    inserted and drops result rows that touch a deleted one — the join
    over the live rows.
    """

    def __init__(self, tables: list[Table]):
        self.tables = {table.name: table for table in tables}
        self.deleted: dict[str, set[int]] = {t.name: set() for t in tables}
        self._expected: dict[object, tuple[tuple, list[tuple]]] = {}

    def insert(self, name: str, row: tuple) -> int:
        self.tables[name].insert(row)
        return len(self.tables[name]) - 1

    def delete(self, name: str, index: int) -> None:
        self.deleted[name].add(index)

    def live(self, name: str) -> list[int]:
        deleted = self.deleted[name]
        return [i for i in range(len(self.tables[name])) if i not in deleted]

    def _version(self, names) -> tuple:
        return tuple(
            (len(self.tables[n]), len(self.deleted[n])) for n in names
        )

    def expected(self, query: JoinQuery | ChainQuery) -> list[tuple]:
        """Sorted joined rows the reference gives for ``query`` now."""
        if isinstance(query, ChainQuery):
            names = query.tables
        else:
            names = (query.left_table, query.right_table)
        version = self._version(names)
        cached = self._expected.get(query)
        if cached is not None and cached[0] == version:
            return cached[1]
        dead = [self.deleted[n] for n in names]
        if isinstance(query, ChainQuery):
            result = chain_join(
                [self.tables[n] for n in names],
                list(query.join_columns),
                [s.to_predicate() for s in query.selections],
            )
            indices = result.index_tuples
        else:
            result = hash_join(
                self.tables[names[0]],
                self.tables[names[1]],
                query.left_join_column,
                query.right_join_column,
                query.left_selection.to_predicate(),
                query.right_selection.to_predicate(),
            )
            indices = result.index_pairs
        rows = sorted(
            row
            for combo, row in zip(indices, result.table)
            if not any(i in d for i, d in zip(combo, dead))
        )
        self._expected[query] = (version, rows)
        return rows

    def check(self, query: JoinQuery | ChainQuery, rows: list[tuple]) -> bool:
        return sorted(rows) == self.expected(query)
