"""Query-series support: the cross-query cache behind repeated joins.

The paper's titular scenario is a *series* of queries over the same
encrypted tables.  This package retains what the first execution of a
query computed — the decrypted per-row handles and the live incremental
matcher — so a repeated query replays the canonical result with zero
pairing work, and base-table mutations are delta-maintained instead of
forcing a from-scratch re-join.  See :mod:`repro.series.cache` (and
:mod:`repro.series.ledger`: what the series revealed).
"""

from repro.series.cache import (
    DEFAULT_SERIES_BUDGET,
    SeriesCache,
    SeriesCacheStats,
    SeriesEntry,
    series_key,
)

__all__ = [
    "DEFAULT_SERIES_BUDGET",
    "SeriesCache",
    "SeriesCacheStats",
    "SeriesEntry",
    "series_key",
]
