"""The paper's contribution: the Secure Join encryption scheme.

- :mod:`repro.core.polynomials` — polynomials over Z_q built from roots
  (the selection-predicate encoding of Section 4.1),
- :mod:`repro.core.encoding` — row vectors ``w`` and token vectors ``v``,
- :mod:`repro.core.scheme` — the five algorithms SJ.Setup / SJ.Enc /
  SJ.TokenGen / SJ.Dec / SJ.Match (Section 4.3),
- :mod:`repro.core.client` / :mod:`repro.core.server` /
  :mod:`repro.core.storage` — the outsourced-database protocol built on
  the scheme (upload phase, query phase, hash-join matching).
"""

from repro.core.client import DecryptedChainResult, SecureJoinClient
from repro.core.engine import (
    BatchedEngine,
    ExecutionEngine,
    HandleChunk,
    HandleStream,
)
from repro.core.service import ExecutionService
from repro.core.polynomials import ZqPolynomial
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

__all__ = [
    "BatchedEngine",
    "ChainMatchBatch",
    "DecryptedChainResult",
    "EncryptedChainResult",
    "ExecutionEngine",
    "ExecutionService",
    "HandleChunk",
    "HandleStream",
    "SecureJoinClient",
    "SecureJoinParams",
    "SecureJoinScheme",
    "SecureJoinServer",
    "ServerStats",
    "SJMasterKey",
    "SJRowCiphertext",
    "SJToken",
    "ZqPolynomial",
]
