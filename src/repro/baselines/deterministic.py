"""The deterministic-encryption baseline (Hacigümüş et al., SIGMOD 2002).

Every cell is encrypted deterministically (modeled with keyed tags —
exactly the equality structure deterministic encryption exposes), so the
server can join and select by ciphertext equality.  The price: *all*
equality pairs of the join columns are revealed the moment the data is
uploaded, before any query runs.  Naveed et al.'s frequency attacks make
this leakage fatal in practice, which is the paper's motivation.
"""

from __future__ import annotations

import os

from repro.baselines.api import JoinScheme, Pair, RowRef, SchemeAnswer
from repro.crypto.hashing import derive_key, keyed_tag
from repro.db.query import JoinQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.leakage.pairs import class_pairs


class DeterministicScheme(JoinScheme):
    """Join + selection via deterministic tags; maximal leakage at t0."""

    name = "deterministic"

    def __init__(self, master_secret: bytes | None = None):
        self._master = master_secret if master_secret is not None else os.urandom(32)
        # Join tags share ONE key across tables so the server can compare
        # them — that is the design of the scheme, and its weakness.
        self._join_key = derive_key(self._master, "det.join")
        self._tables: dict[str, Table] = {}
        self._join_columns: dict[str, str] = {}
        self._join_tags: dict[str, list[bytes]] = {}
        self._attr_tags: dict[str, dict[str, list[bytes]]] = {}

    # -- protocol ------------------------------------------------------------
    def upload(self, tables: list[tuple[Table, str]]) -> None:
        for table, join_column in tables:
            self._tables[table.name] = table
            self._join_columns[table.name] = join_column
            join_index = table.schema.index_of(join_column)
            self._join_tags[table.name] = [
                keyed_tag(self._join_key, row[join_index]) for row in table
            ]
            per_column: dict[str, list[bytes]] = {}
            for column in table.schema.names():
                if column == join_column:
                    continue
                key = derive_key(self._master, f"det.attr.{table.name}.{column}")
                index = table.schema.index_of(column)
                per_column[column] = [
                    keyed_tag(key, row[index]) for row in table
                ]
            self._attr_tags[table.name] = per_column

    def _selection_indices(self, table_name: str, selection) -> list[int]:
        """Server-side selection purely by tag equality."""
        table = self._tables[table_name]
        indices = list(range(len(table)))
        for column, values in selection.in_clauses:
            key = derive_key(self._master, f"det.attr.{table_name}.{column}")
            allowed = {keyed_tag(key, v) for v in values}
            tags = self._attr_tags[table_name][column]
            indices = [i for i in indices if tags[i] in allowed]
        return indices

    def run_query(self, query: JoinQuery) -> SchemeAnswer:
        if query.left_table not in self._tables or query.right_table not in self._tables:
            raise QueryError("query references a table that was not uploaded")
        left = self._tables[query.left_table]
        right = self._tables[query.right_table]
        left_indices = self._selection_indices(query.left_table, query.left_selection)
        right_indices = self._selection_indices(query.right_table, query.right_selection)
        left_tags = self._join_tags[query.left_table]
        right_tags = self._join_tags[query.right_table]
        buckets: dict[bytes, list[int]] = {}
        for i in left_indices:
            buckets.setdefault(left_tags[i], []).append(i)
        answer = SchemeAnswer()
        for j in right_indices:
            for i in buckets.get(right_tags[j], ()):
                answer.index_pairs.append((i, j))
                answer.rows.append(left[i] + right[j])
        return answer

    # -- adversary view -----------------------------------------------------
    def revealed_pairs(self) -> set[Pair]:
        """All true equality pairs — visible from the upload alone."""
        by_tag: dict[bytes, list[RowRef]] = {}
        for table_name, tags in self._join_tags.items():
            for index, tag in enumerate(tags):
                by_tag.setdefault(tag, []).append((table_name, index))
        return class_pairs(by_tag.values())
