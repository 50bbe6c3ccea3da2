"""The cross-query cache for a series of joins.

One :class:`SeriesEntry` retains, per literally re-submitted query —
two tables or a longer chain, it is the same thing — everything earlier
executions computed and that is worth keeping: the live
:class:`~repro.plan.executor.ChainExecutor`, i.e. the decrypted per-row
**handles** of every chain position (the SJ.Dec output, the expensive
pairing work) plus the incremental matcher state that already encodes
every pairing decision made so far.

The join drive (:mod:`repro.core.server`) treats every execution as a
refresh of an entry: a miss starts from an *empty* entry, a re-submitted
query over unchanged tables opens no decrypt stream at all — not a
single Miller loop runs, and the executor hands back the canonical
answer it finished last time (nothing is re-sorted or re-expanded) — and
a mutated base table is **delta-maintained**: only rows the entry holds
no handle for go through SJ.Dec, and tombstoned rows are withdrawn with
``executor.retract`` — never re-decrypting what it already holds.

Keying and invalidation semantics:

- The key covers the **token bytes**, so only a literally re-submitted
  query hits.  This is by design: ``SJ.TokenGen`` draws a fresh query
  key per query (handles are unlinkable across queries — the scheme's
  privacy property), so a semantically identical query under fresh
  tokens is a *miss* that seeds its own entry.  Replaying a hit
  therefore reveals nothing the adversary has not already seen.
- Entries are guarded by per-table **epochs** (bumped when a table is
  re-stored wholesale: everything retained is garbage) and **versions**
  (bumped per insert/delete: the entry is stale but delta-repairable).
- Memory is bounded by a **byte budget**: entries are accounted by
  their retained handle bytes, pair state, finished answer and
  withdrawn rows, and evicted by a segmented LRU.  A stored entry is
  on *probation*; a hit (a replay or a delta refresh: proven re-use)
  makes it *protected*.  Victims come from probation first, so a
  stream of one-shot queries cannot push out the series that keep
  coming back.

Concurrency: the cache's own map is lock-protected, and every entry
carries its own lock — the drive holds it across a replay or a delta
refresh, so two threads re-running the same query serialize on the
entry instead of corrupting the shared matcher.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

#: Default byte budget for retained handles/matcher state (64 MiB).
DEFAULT_SERIES_BUDGET = 64 * 1024 * 1024

#: Bytes of the key contributed by each chain position.
SIDE_DIGEST_SIZE = 32

#: Accounting overhead charged per withdrawn handle beyond its bytes
#: (dict slot, int, bytes header) and per entry.
_HANDLE_OVERHEAD = 96
_ENTRY_OVERHEAD = 1024


def series_key(query, backend) -> bytes:
    """The cache key of one query: one digest per chain position over
    what determines that side's handles and selection — table name, SJ
    token (byte-encoded) and pre-filter tag set — concatenated in chain
    order.  Nothing about *how* the host computes the result is in the
    key: that is fixed where the host is built, not per query.

    Positions with equal digests are the same ``(table, token)`` side,
    which is what :func:`~repro.plan.handles.group_chain_sides` pools —
    so each token is hashed once per query, here.
    """
    digests = []
    for table_name, token, prefilter in zip(
        query.tables, query.tokens, query.prefilters
    ):
        digest = hashlib.blake2b(digest_size=SIDE_DIGEST_SIZE)
        name = table_name.encode("utf-8")
        digest.update(len(name).to_bytes(4, "big"))
        digest.update(name)
        for element in token.elements:
            digest.update(backend.encode_g1(element))
        if prefilter is None:
            digest.update(b"\x00")
        else:
            digest.update(b"\x01")
            for column in sorted(prefilter):
                name = column.encode("utf-8")
                digest.update(len(name).to_bytes(4, "big"))
                digest.update(name)
                for tag in sorted(prefilter[column]):
                    digest.update(tag)
        digests.append(digest.digest())
    return b"".join(digests)


class SeriesEntry:
    """Retained state of one query; *empty* until its first refresh."""

    __slots__ = (
        "key",
        "tables",
        "epochs",
        "versions",
        "sides",
        "executor",
        "withdrawn",
        "applied_tombstones",
        "lock",
        "byte_size",
        "replays",
        "delta_refreshes",
    )

    def __init__(self, key: bytes, tables, epochs=None, versions=None):
        self.key = key
        #: The chain's table names by position (invalidation scope).
        self.tables = tuple(tables)
        #: Per-table store generations the entry was built against; an
        #: epoch mismatch means the table was replaced wholesale and
        #: nothing retained is salvageable.
        self.epochs = epochs
        #: Per-table mutation counters at the last (re)fresh; a version
        #: mismatch means the entry is stale but delta-repairable.
        self.versions = versions
        #: The query's distinct ``(table, token)`` sides (the handle
        #: pool) and the live executor, whose per-position handle maps
        #: are exactly the rows this query has ever decrypted and not
        #: since retracted.  Both ``None`` while the entry is empty.
        self.sides = None
        self.executor = None
        #: ``handle -> row`` (as the drive numbers it: ``row *
        #: len(tables) + slot``) for every row a delete withdrew, so a
        #: later refresh can link to it.  It grows with deletes alone.
        self.withdrawn: dict[bytes, int] = {}
        #: position -> tombstoned row indices already withdrawn (or
        #: known never-fed), so each delete is applied exactly once.
        self.applied_tombstones: list[set[int]] = [
            set() for _ in self.tables
        ]
        self.lock = threading.RLock()
        self.byte_size = 0
        self.replays = 0
        self.delta_refreshes = 0

    def recompute_bytes(self) -> int:
        """Re-account the entry's retained memory (call after refresh)."""
        total = _ENTRY_OVERHEAD
        if self.executor is not None:
            total += self.executor.retained_bytes()
        for handle in self.withdrawn:
            total += len(handle) + _HANDLE_OVERHEAD
        self.byte_size = total
        return total

    def reused_handles(self) -> int:
        return self.executor.reused_handles()


@dataclass
class SeriesCacheStats:
    """Cumulative cache behavior counters (diagnostics / tests)."""

    hits: int = 0
    misses: int = 0
    replays: int = 0
    delta_refreshes: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Lookups that found a live entry but could not take its per-entry
    #: lock without blocking; the query fell through to the miss path
    #: instead of queueing behind the contended series.
    lock_contention: int = 0


#: The share of the budget the protected segment may hold.
_PROTECTED_SHARE = 0.8


class SeriesCache:
    """A byte-budgeted segmented LRU over :class:`SeriesEntry` values.

    ``budget_bytes`` bounds the *accounted* retained bytes.  A stored
    entry goes on *probation*; its first hit promotes it to the
    *protected* segment.  Protected holds at most ``_PROTECTED_SHARE``
    of the budget: past that, its least-recent entry is demoted to the
    most-recent end of probation.  Inserting or refreshing an entry
    evicts others — probation's least-recent first, then protected's —
    until the total fits; the entry just stored or refreshed is never
    its own victim.  An entry that alone exceeds the whole budget is not
    retained at all — the query still runs, it just won't replay.
    """

    def __init__(self, budget_bytes: int = DEFAULT_SERIES_BUDGET):
        if budget_bytes < 0:
            raise ValueError("series cache budget must be >= 0")
        self.budget_bytes = budget_bytes
        #: Every live entry, whichever segment it is in.
        self._entries: dict[bytes, SeriesEntry] = {}
        #: Each segment's keys, least recent first.
        self._probation: "OrderedDict[bytes, None]" = OrderedDict()
        self._protected: "OrderedDict[bytes, None]" = OrderedDict()
        self._bytes = 0
        self._protected_bytes = 0
        self._lock = threading.Lock()
        self.stats = SeriesCacheStats()

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    # -- lookup / insert --------------------------------------------------
    def lookup(self, key: bytes, epochs) -> SeriesEntry | None:
        """The entry for ``key``, made the most recent protected one — or
        ``None`` on a miss.

        ``epochs`` is the caller's current per-table store-generation
        pair; an entry built against different epochs is dropped (the
        tables it described no longer exist) and counted as an
        invalidation, not a hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.epochs != epochs:
                self._evict(key, invalidation=True)
                self.stats.misses += 1
                return None
            if key in self._protected:
                self._protected.move_to_end(key)
            else:
                del self._probation[key]
                self._protected[key] = None
                self._protected_bytes += entry.byte_size
                self._demote()
            self.stats.hits += 1
            return entry

    def store(self, entry: SeriesEntry) -> bool:
        """Insert (or replace) an entry on probation; returns False if it
        was too large to retain under the budget."""
        entry.recompute_bytes()
        with self._lock:
            self._evict(entry.key)
            if entry.byte_size > self.budget_bytes:
                return False
            self._entries[entry.key] = entry
            self._probation[entry.key] = None
            self._bytes += entry.byte_size
            self._enforce_budget(keep=entry.key)
            return True

    def reaccount(self, entry: SeriesEntry) -> None:
        """Re-charge a refreshed entry's bytes and re-enforce the budget
        (the entry may have grown past it and be evicted here).  An entry
        that is no longer the live one under its key — evicted, or
        replaced by a cold run of the same query while it refreshed — is
        not charged."""
        with self._lock:
            key = entry.key
            if self._entries.get(key) is not entry:
                return
            charged = entry.byte_size
            grown = entry.recompute_bytes() - charged
            self._bytes += grown
            if key in self._protected:
                self._protected_bytes += grown
                self._protected.move_to_end(key)
                self._demote()
            else:
                self._probation.move_to_end(key)
            if entry.byte_size > self.budget_bytes:
                self._evict(key)
                return
            self._enforce_budget(keep=key)

    # -- invalidation / eviction ------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry joining over ``table_name`` (re-store path)."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if table_name in entry.tables
            ]
            for key in doomed:
                self._evict(key, invalidation=True)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._evict(key)

    def _evict(self, key: bytes, invalidation: bool = False) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.byte_size
        if key in self._protected:
            del self._protected[key]
            self._protected_bytes -= entry.byte_size
        else:
            del self._probation[key]
        if invalidation:
            self.stats.invalidations += 1
        else:
            self.stats.evictions += 1

    def _demote(self) -> None:
        """Move protected's least-recent entries to the most-recent end
        of probation until protected is within its share."""
        cap = self.budget_bytes * _PROTECTED_SHARE
        while self._protected_bytes > cap:
            key, _ = self._protected.popitem(last=False)
            self._protected_bytes -= self._entries[key].byte_size
            self._probation[key] = None

    def _enforce_budget(self, keep: bytes) -> None:
        """Evict others until the total fits: probation's least-recent
        first, then protected's, never ``keep`` (which fits alone)."""
        while self._bytes > self.budget_bytes and len(self._entries) > 1:
            self._evict(next(
                key
                for segment in (self._probation, self._protected)
                for key in segment
                if key != keep
            ))
