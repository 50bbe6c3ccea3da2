"""The CryptDB onion-encryption baseline (Popa et al., SOSP 2011).

The join column carries a deterministic (JOIN-onion) ciphertext wrapped
in a probabilistic (RND) layer.  At rest nothing is comparable; when a
join touches a pair of columns, the server receives the onion key,
strips the RND layer from *every row of both columns*, and joins on the
inner deterministic ciphertexts (re-encrypted to a common key — modeled
here by a shared post-peel tag key, which is what proxy re-encryption
produces).

Leakage timeline: nothing at t0, but the *first* join query reveals all
equality pairs of the touched columns (t1 in the paper's example), and
the exposure is permanent.
"""

from __future__ import annotations

import os

from repro.baselines.api import JoinScheme, Pair, RowRef, SchemeAnswer
from repro.crypto.hashing import derive_key, keyed_tag
from repro.crypto.symmetric import SymmetricCipher
from repro.db.query import JoinQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.leakage.pairs import class_pairs


class CryptDBScheme(JoinScheme):
    """RND-wrapped deterministic join tags with whole-column peeling."""

    name = "cryptdb"

    def __init__(self, master_secret: bytes | None = None):
        self._master = master_secret if master_secret is not None else os.urandom(32)
        self._join_key = derive_key(self._master, "cryptdb.join")
        self._tables: dict[str, Table] = {}
        self._join_columns: dict[str, str] = {}
        # The stored (wrapped) ciphertexts: RND(DET(join value)).
        self._wrapped: dict[str, list[bytes]] = {}
        # Columns whose RND layer has been stripped, with the exposed tags.
        self._peeled: dict[str, list[bytes]] = {}
        self._attr_tags: dict[str, dict[str, list[bytes]]] = {}

    def upload(self, tables: list[tuple[Table, str]]) -> None:
        for table, join_column in tables:
            self._tables[table.name] = table
            self._join_columns[table.name] = join_column
            join_index = table.schema.index_of(join_column)
            rnd = SymmetricCipher(
                derive_key(self._master, f"cryptdb.rnd.{table.name}")
            )
            self._wrapped[table.name] = [
                rnd.encrypt(keyed_tag(self._join_key, row[join_index]))
                for row in table
            ]
            per_column: dict[str, list[bytes]] = {}
            for column in table.schema.names():
                if column == join_column:
                    continue
                key = derive_key(
                    self._master, f"cryptdb.attr.{table.name}.{column}"
                )
                index = table.schema.index_of(column)
                per_column[column] = [keyed_tag(key, row[index]) for row in table]
            self._attr_tags[table.name] = per_column

    def _peel(self, table_name: str) -> list[bytes]:
        """Strip the RND layer of a whole join column (idempotent)."""
        if table_name not in self._peeled:
            rnd = SymmetricCipher(
                derive_key(self._master, f"cryptdb.rnd.{table_name}")
            )
            self._peeled[table_name] = [
                rnd.decrypt(blob) for blob in self._wrapped[table_name]
            ]
        return self._peeled[table_name]

    def _selection_indices(self, table_name: str, selection) -> list[int]:
        indices = list(range(len(self._tables[table_name])))
        for column, values in selection.in_clauses:
            key = derive_key(self._master, f"cryptdb.attr.{table_name}.{column}")
            allowed = {keyed_tag(key, v) for v in values}
            tags = self._attr_tags[table_name][column]
            indices = [i for i in indices if tags[i] in allowed]
        return indices

    def run_query(self, query: JoinQuery) -> SchemeAnswer:
        if query.left_table not in self._tables or query.right_table not in self._tables:
            raise QueryError("query references a table that was not uploaded")
        left = self._tables[query.left_table]
        right = self._tables[query.right_table]
        left_tags = self._peel(query.left_table)
        right_tags = self._peel(query.right_table)
        left_indices = self._selection_indices(query.left_table, query.left_selection)
        right_indices = self._selection_indices(query.right_table, query.right_selection)
        buckets: dict[bytes, list[int]] = {}
        for i in left_indices:
            buckets.setdefault(left_tags[i], []).append(i)
        answer = SchemeAnswer()
        for j in right_indices:
            for i in buckets.get(right_tags[j], ()):
                answer.index_pairs.append((i, j))
                answer.rows.append(left[i] + right[j])
        return answer

    def revealed_pairs(self) -> set[Pair]:
        """True pairs among all rows of every *peeled* column."""
        by_tag: dict[bytes, list[RowRef]] = {}
        for table_name, tags in self._peeled.items():
            for index, tag in enumerate(tags):
                by_tag.setdefault(tag, []).append((table_name, index))
        return class_pairs(by_tag.values())
