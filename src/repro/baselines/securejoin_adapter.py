"""The paper's Secure Join scheme behind the common baseline interface.

The adapter wires a :class:`~repro.core.client.SecureJoinClient` and
:class:`~repro.core.server.SecureJoinServer` together and reads the
adversary's knowledge off the server's leakage ledger: handles that
coincide within a query are directly observed equalities, and their
transitive closure is everything a computationally bounded adversary
can infer (Corollaries 5.2.1/5.2.2).
"""

from __future__ import annotations

import random

from repro.baselines.api import JoinScheme, Pair, SchemeAnswer
from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.query import JoinQuery
from repro.db.table import Table
from repro.leakage.pairs import class_pairs


class SecureJoinAdapter(JoinScheme):
    """Secure Join as a leakage-analyzable scheme."""

    name = "securejoin"

    def __init__(
        self,
        in_clause_limit: int = 4,
        rng: random.Random | None = None,
    ):
        self._in_clause_limit = in_clause_limit
        self._rng = rng
        self._client: SecureJoinClient | None = None
        self._server: SecureJoinServer | None = None

    def upload(self, tables: list[tuple[Table, str]]) -> None:
        self._client = SecureJoinClient.for_tables(
            tables, in_clause_limit=self._in_clause_limit, rng=self._rng
        )
        self._server = SecureJoinServer(self._client.params)
        for table, join_column in tables:
            self._server.store(self._client.encrypt_table(table, join_column))

    def run_query(self, query: JoinQuery) -> SchemeAnswer:
        encrypted_query = self._client.create_query(query)
        result = self._server.execute_join(encrypted_query)
        decrypted = self._client.decrypt_chain_result(result)
        return SchemeAnswer(
            rows=decrypted.table.rows(),
            index_pairs=decrypted.index_tuples,
        )

    def revealed_pairs(self) -> set[Pair]:
        """Transitive closure of the per-query observed equalities.

        Within one query, rows with equal handles form observed
        equivalence groups; across queries the adversary chains groups
        that share a row.  The server's ledger keeps the classes of
        that closure — the paper's claimed (and minimal) leakage.
        """
        return class_pairs(self._server.ledger.classes())
