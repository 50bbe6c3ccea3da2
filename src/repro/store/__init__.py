"""Persistence and wire formats for the outsourced-database protocol.

- :mod:`repro.store.codec` — low-level binary primitives (length
  prefixes, JSON headers, element vectors),
- :mod:`repro.store.tables` — save/load encrypted tables to disk (what
  the DBMS server persists),
- :mod:`repro.store.wire` — serialize the client->server query message
  and the server->client result frames, so the two parties can live in
  different processes.
"""

from repro.store.tables import load_encrypted_table, save_encrypted_table
from repro.store.wire import decode_join_query, encode_join_query

__all__ = [
    "decode_join_query",
    "encode_join_query",
    "load_encrypted_table",
    "save_encrypted_table",
]
