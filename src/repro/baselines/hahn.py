"""The Hahn et al. baseline (ICDE 2019): KP-ABE-gated join ciphertexts.

Each row's join ciphertext is wrapped under key-policy attribute-based
encryption whose attributes are the row's selection-attribute values.  A
query token carries a KP-ABE key for its WHERE clause: rows *matching
the selection* unwrap to searchable join ciphertexts; non-matching rows
stay opaque.  Per query the leakage is minimal (only matching rows are
comparable), which was the state of the art the paper improves on.

Two structural properties matter for the reproduction:

1. **Super-additive leakage** — an unwrapped row stays unwrapped:
   ciphertexts exposed by *different* queries are mutually comparable,
   so the adversary's knowledge is the set of true pairs among the
   *union* of all unwrapped rows (Section 2.1's t2 state).
2. **Nested-loop joins, PK/FK only** — the unwrapped searchable
   ciphertexts support pairwise trial matching, not hashing, and the
   construction requires the left join column to be a primary key.

KP-ABE itself is modeled by its observable behaviour (a keyed gate on
the selection attributes).
"""

from __future__ import annotations

import os

from repro.baselines.api import JoinScheme, Pair, RowRef, SchemeAnswer
from repro.crypto.hashing import derive_key, keyed_tag
from repro.db.query import JoinQuery, TableSelection
from repro.db.table import Table
from repro.errors import QueryError
from repro.leakage.pairs import class_pairs


class HahnScheme(JoinScheme):
    """Selection-gated unwrapping with permanent cross-query comparability."""

    name = "hahn"

    def __init__(self, master_secret: bytes | None = None):
        self._master = master_secret if master_secret is not None else os.urandom(32)
        self._join_key = derive_key(self._master, "hahn.join")
        self._tables: dict[str, Table] = {}
        self._join_columns: dict[str, str] = {}
        # Searchable join tags, revealed row by row as queries unwrap them.
        self._join_tags: dict[str, list[bytes]] = {}
        self._unwrapped: set[RowRef] = set()
        self.comparisons = 0  # nested-loop cost counter (Section 6.5)

    def upload(self, tables: list[tuple[Table, str]]) -> None:
        for table, join_column in tables:
            self._tables[table.name] = table
            self._join_columns[table.name] = join_column
            join_index = table.schema.index_of(join_column)
            self._join_tags[table.name] = [
                keyed_tag(self._join_key, row[join_index]) for row in table
            ]

    def _require_primary_key(self, table_name: str) -> None:
        """Hahn et al. supports only PK/FK joins: the left column must be unique."""
        table = self._tables[table_name]
        column = self._join_columns[table_name]
        values = table.column_values(column)
        if len(set(values)) != len(values):
            raise QueryError(
                f"HahnScheme requires a primary-key join: column "
                f"{column!r} of {table_name!r} has duplicate values"
            )

    def _unwrap_matching(self, table_name: str, selection: TableSelection) -> list[int]:
        """KP-ABE decryption: rows whose attributes satisfy the policy unwrap."""
        table = self._tables[table_name]
        predicate = selection.to_predicate()
        matching = table.matching_indices(predicate)
        for index in matching:
            self._unwrapped.add((table_name, index))
        return matching

    def run_query(self, query: JoinQuery) -> SchemeAnswer:
        if query.left_table not in self._tables or query.right_table not in self._tables:
            raise QueryError("query references a table that was not uploaded")
        self._require_primary_key(query.left_table)
        left = self._tables[query.left_table]
        right = self._tables[query.right_table]
        left_indices = self._unwrap_matching(query.left_table, query.left_selection)
        right_indices = self._unwrap_matching(query.right_table, query.right_selection)
        left_tags = self._join_tags[query.left_table]
        right_tags = self._join_tags[query.right_table]
        answer = SchemeAnswer()
        # Nested loop: the searchable ciphertexts only support trial matching.
        for j in right_indices:
            for i in left_indices:
                self.comparisons += 1
                if left_tags[i] == right_tags[j]:
                    answer.index_pairs.append((i, j))
                    answer.rows.append(left[i] + right[j])
        return answer

    def revealed_pairs(self) -> set[Pair]:
        """True pairs among the union of every row any query unwrapped."""
        by_tag: dict[bytes, list[RowRef]] = {}
        for table_name, index in self._unwrapped:
            tag = self._join_tags[table_name][index]
            by_tag.setdefault(tag, []).append((table_name, index))
        return class_pairs(by_tag.values())
