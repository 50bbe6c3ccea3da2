"""repro — reproduction of "Equi-Joins over Encrypted Data for Series of
Queries" (Shafieinejad et al., ICDE 2022).

Quickstart::

    from repro import SecureJoinClient, SecureJoinServer, JoinQuery, Table, Schema

    schema = Schema.of(("key", "int"), ("name", "str"))
    teams = Table("Teams", schema, [(1, "Web Application"), (2, "Database")])
    ...
    client = SecureJoinClient.for_tables([(teams, "key"), (employees, "team")])
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(teams, "key"))
    server.store(client.encrypt_table(employees, "team"))
    query = JoinQuery.build("Teams", "Employees", on=("key", "team"),
                            where_left={"name": ["Web Application"]},
                            where_right={"role": ["Tester"]})
    result = client.decrypt_chain_result(
        server.execute_join(client.create_query(query))
    )

README.md describes the system, section by section; its "Two backends"
section holds the paper-versus-measured bridge.
"""

from repro.core.client import (
    DecryptedChainResult,
    EncryptedChainQuery,
    EncryptedJoinQuery,
    EncryptedTable,
    SecureJoinClient,
)
from repro.core.scheme import (
    SecureJoinParams,
    SecureJoinScheme,
    SJMasterKey,
    SJRowCiphertext,
    SJToken,
)
from repro.core.server import (
    ChainMatchBatch,
    EncryptedChainResult,
    SecureJoinServer,
    ServerStats,
)
from repro.crypto.backend import get_backend
from repro.db.database import Database
from repro.db.join import chain_join
from repro.db.query import ChainQuery, JoinQuery, TableSelection
from repro.db.schema import Column, Schema
from repro.db.sql import parse_join_query
from repro.db.table import Table
from repro.plan import JoinPlan, compile_plan

__version__ = "1.0.0"

__all__ = [
    "ChainMatchBatch",
    "ChainQuery",
    "Column",
    "Database",
    "DecryptedChainResult",
    "EncryptedChainQuery",
    "EncryptedChainResult",
    "EncryptedJoinQuery",
    "EncryptedTable",
    "JoinPlan",
    "JoinQuery",
    "Schema",
    "SecureJoinClient",
    "SecureJoinParams",
    "SecureJoinScheme",
    "SecureJoinServer",
    "ServerStats",
    "SJMasterKey",
    "SJRowCiphertext",
    "SJToken",
    "Table",
    "TableSelection",
    "chain_join",
    "compile_plan",
    "get_backend",
    "parse_join_query",
    "__version__",
]
