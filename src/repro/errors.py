"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle all library failures.  Subsystems get
their own subclass so tests and applications can discriminate precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CryptoError(ReproError):
    """Base class for errors in the cryptographic substrate."""


class FieldError(CryptoError):
    """Invalid field operation (e.g. inverting zero, mixed moduli)."""


class CurveError(CryptoError):
    """Invalid curve operation (point not on curve, wrong subgroup...)."""


class PairingError(CryptoError):
    """The pairing received inputs it cannot process."""


class MatrixError(CryptoError):
    """Invalid matrix operation (singular matrix, shape mismatch...)."""


class IPEError(CryptoError):
    """Errors from the function-hiding inner-product encryption scheme."""


class SchemeError(ReproError):
    """Errors from the Secure Join scheme (bad token, dimension mismatch)."""


class SchemaError(ReproError):
    """Relational schema violations (unknown column, arity mismatch...)."""


class QueryError(ReproError):
    """Malformed or unsupported queries (including SQL parse errors)."""


class DeadlineError(QueryError):
    """A query exceeded its deadline and was cancelled mid-execution."""


class ShardUnavailableError(QueryError):
    """A shard died (pool closed, endpoint unreachable) mid-query.

    Raised by the shard coordinator when one shard of a scatter-gather
    join cannot complete its side streams; the coordinator releases the
    surviving shards' admissions before raising."""


class NetworkError(ReproError):
    """Transport-layer failures in the network service (connection lost,
    oversized message, malformed framing).  Distinct from
    :class:`SchemeError`, which covers the wire *codec*: a payload that
    arrived intact but does not decode."""


class BenchmarkError(ReproError):
    """Errors from the benchmark harness (bad experiment parameters)."""
