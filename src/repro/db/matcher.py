"""Incremental equi-match kernels: the shared SJ.Match / join layer.

Both the plaintext joins (:mod:`repro.db.join`) and the encrypted
server's SJ.Match (:mod:`repro.core.server`) used to carry their own
materialized build-then-probe loops.  The streaming pipeline needs the
matcher to accept *partial* sides — decrypted chunks arrive from the
execution engines out of order and interleaved across sides — so the
matching kernels live here, incremental by construction:

- :class:`HashMatcher` — the paper's expected-O(n) hash join as a
  *symmetric* hash join: both sides keep a bucket table, every arriving
  item probes the other side's table, so matches are emitted as soon as
  both partners have arrived, regardless of arrival order.
- :class:`NestedMatcher` — the O(n·m) nested loop (the Hahn et al.
  ablation baseline), incrementalized the same way: each arriving item
  is compared against everything seen on the other side.

Emission order depends on arrival order, but :meth:`finish` returns the
complete pairing sorted by ``(left index, right index)`` — the
lexicographic order of the two-table chain — so streamed and
materialized runs are byte-identical at the end.

Accounting matches the materialized pass too, by charging the canonical
algorithm rather than the arrival schedule:

- hash: one probe and one hash-key comparison per *right* item, plus
  one equality confirmation per emitted pair — ``comparisons == probes
  + matches``, O(n + m + output);
- nested: exactly one comparison per (left, right) pair — ``|L| * |R|``
  total, however the items arrive.

**Retained matcher state (the query-series cache).**  A matcher may
outlive the query that built it: the series cache keeps it resident and
*resumes* it when the same query arrives again — new base-table rows
are fed through ``add_left`` / ``add_right`` exactly like late-arriving
chunks, and deleted rows are withdrawn with :meth:`retract_left` /
:meth:`retract_right`, which remove the row from the bucket/list state
(so it can never pair with future arrivals) and drop its emitted pairs.
``finish()`` is idempotent and re-callable, so every resume yields the
canonical pairing of the *current* row set — byte-identical to a
from-scratch join over the live rows.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass


@dataclass
class MatcherStats:
    """Operation counts for one incremental match run."""

    probes: int = 0
    comparisons: int = 0
    matches: int = 0


class IncrementalMatcher:
    """Base class: feed keyed items per side, collect pairs incrementally.

    Items are ``(index, key)`` tuples; ``key`` is whatever equality the
    join is over (handle bytes on the encrypted path, cell values on
    the plaintext path).  ``add_left`` / ``add_right`` return the pairs
    *newly completed* by that delivery, in discovery order;
    :meth:`finish` returns every pair in lexicographic order.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.stats = MatcherStats()
        self._pairs: list[tuple[int, int]] = []

    # -- feeding ----------------------------------------------------------
    def add_left(
        self, items: Iterable[tuple[int, Hashable]]
    ) -> list[tuple[int, int]]:
        raise NotImplementedError

    def add_right(
        self, items: Iterable[tuple[int, Hashable]]
    ) -> list[tuple[int, int]]:
        raise NotImplementedError

    # -- retraction (delta-maintained deletes) ----------------------------
    def retract_left(self, indices: Iterable[int]) -> list[tuple[int, int]]:
        """Withdraw left rows: drop their pairs, forget their keys.

        Returns the emitted pairs that were dropped, so a consumer
        holding downstream state keyed by pair (the multi-way chain
        executor) can cascade the retraction.  Retraction is
        bookkeeping, not matching — it charges no probes or
        comparisons; ``stats.matches`` is decremented so it keeps
        counting the pairs currently standing.
        """
        raise NotImplementedError

    def retract_right(self, indices: Iterable[int]) -> list[tuple[int, int]]:
        raise NotImplementedError

    def _drop_pairs(
        self, removed: set[int], position: int
    ) -> list[tuple[int, int]]:
        if not removed:
            return []
        kept: list[tuple[int, int]] = []
        dropped: list[tuple[int, int]] = []
        for pair in self._pairs:
            (dropped if pair[position] in removed else kept).append(pair)
        self._pairs = kept
        self.stats.matches -= len(dropped)
        return dropped

    # -- results ----------------------------------------------------------
    def _emit(self, left_index: int, right_index: int, emitted: list) -> None:
        pair = (left_index, right_index)
        self._pairs.append(pair)
        emitted.append(pair)
        self.stats.matches += 1

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The standing pairs, unordered and uncopied (read-only view)."""
        return self._pairs

    def finish(self) -> list[tuple[int, int]]:
        """All pairs, sorted lexicographically: a new list, the caller's
        own, on every call."""
        return sorted(self._pairs)


class HashMatcher(IncrementalMatcher):
    """Symmetric incremental hash join (the paper's expected-O(n) match).

    ``probes`` counts right-side items (the canonical probe side);
    ``comparisons`` is one hash-key comparison per probe plus one
    equality confirmation per emitted pair, independent of which side's
    arrival completed the pair.

    With ``symmetric=False`` the matcher degrades to the classic
    build-then-probe kernel: no right-side bucket table is maintained,
    so every left item must arrive before the right items that should
    pair with it.  The materialized callers (:mod:`repro.db.join`) use
    this to skip bookkeeping the streaming case needs and they never
    probe.
    """

    name = "hash"

    def __init__(self, symmetric: bool = True) -> None:
        super().__init__()
        self._left: dict[Hashable, list[int]] = {}
        self._right: dict[Hashable, list[int]] | None = (
            {} if symmetric else None
        )
        # index -> key reverse maps, so retraction can find (and empty)
        # the right bucket without scanning the whole table.
        self._left_keys: dict[int, Hashable] = {}
        self._right_keys: dict[int, Hashable] = {}

    def add_left(self, items):
        emitted: list[tuple[int, int]] = []
        for left_index, key in items:
            self._left.setdefault(key, []).append(left_index)
            self._left_keys[left_index] = key
            if self._right is not None:
                for right_index in self._right.get(key, ()):
                    self.stats.comparisons += 1
                    self._emit(left_index, right_index, emitted)
        return emitted

    def add_right(self, items):
        emitted: list[tuple[int, int]] = []
        for right_index, key in items:
            self.stats.probes += 1
            self.stats.comparisons += 1
            if self._right is not None:
                self._right.setdefault(key, []).append(right_index)
                self._right_keys[right_index] = key
            for left_index in self._left.get(key, ()):
                self.stats.comparisons += 1
                self._emit(left_index, right_index, emitted)
        return emitted

    def _retract(
        self,
        indices: Iterable[int],
        keys: dict[int, Hashable],
        buckets: dict[Hashable, list[int]] | None,
        position: int,
    ) -> list[tuple[int, int]]:
        removed = set(indices)
        for index in removed:
            key = keys.pop(index, None)
            if key is None or buckets is None:
                continue
            bucket = buckets.get(key)
            if bucket is not None:
                try:
                    bucket.remove(index)
                except ValueError:
                    pass
                if not bucket:
                    del buckets[key]
        return self._drop_pairs(removed, position)

    def retract_left(self, indices):
        return self._retract(indices, self._left_keys, self._left, 0)

    def retract_right(self, indices):
        return self._retract(indices, self._right_keys, self._right, 1)


class NestedMatcher(IncrementalMatcher):
    """Incremental nested loop: every cross pair compared exactly once.

    Kept for the Hahn et al. ablation — its comparison count is the
    quadratic blow-up the Section 6.5 comparison relies on.
    """

    name = "nested"

    def __init__(self) -> None:
        super().__init__()
        self._left: list[tuple[int, Hashable]] = []
        self._right: list[tuple[int, Hashable]] = []

    def add_left(self, items):
        emitted: list[tuple[int, int]] = []
        for left_index, key in items:
            self._left.append((left_index, key))
            for right_index, right_key in self._right:
                self.stats.comparisons += 1
                if key == right_key:
                    self._emit(left_index, right_index, emitted)
        return emitted

    def add_right(self, items):
        emitted: list[tuple[int, int]] = []
        for right_index, key in items:
            self._right.append((right_index, key))
            for left_index, left_key in self._left:
                self.stats.comparisons += 1
                if key == left_key:
                    self._emit(left_index, right_index, emitted)
        return emitted

    def retract_left(self, indices):
        removed = set(indices)
        self._left = [
            item for item in self._left if item[0] not in removed
        ]
        return self._drop_pairs(removed, 0)

    def retract_right(self, indices):
        removed = set(indices)
        self._right = [
            item for item in self._right if item[0] not in removed
        ]
        return self._drop_pairs(removed, 1)


MATCHER_NAMES = (HashMatcher.name, NestedMatcher.name)


def get_matcher(algorithm: str) -> IncrementalMatcher:
    """A fresh matcher instance for ``"hash"`` or ``"nested"``."""
    if algorithm == HashMatcher.name:
        return HashMatcher()
    if algorithm == NestedMatcher.name:
        return NestedMatcher()
    raise ValueError(
        f"unknown match algorithm {algorithm!r}; use one of {MATCHER_NAMES}"
    )
