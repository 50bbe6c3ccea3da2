"""The pipelined left-deep chain executor.

Under one query key every chain position's handles are mutually
comparable, so an n-way chain match is a handle-equality class across
all n tables.  The executor still runs it as a left-deep pipeline of
incremental two-way matchers — that is what keeps time-to-first-match
early and what the planner's order choice optimizes:

- node 0 pairs the first two positions of the chosen order, keyed by
  handle;
- every pair a non-final node emits becomes a *tuple id* whose partial
  tuple and handle cascade immediately into the next node's
  ``add_left`` — no materialization barrier, so one decrypted chunk can
  complete full n-way tuples while every other side is still streaming;
- the final node's pairs *are* the complete chain tuples, expanded
  through the partial tuples on demand.  A two-way join is the chain
  with that one node: nothing cascades, and the executor holds exactly
  what the node's matcher holds.

Because matcher retraction returns the dropped pairs
(:meth:`~repro.db.matcher.IncrementalMatcher.retract_left`), deletes
cascade the same way in reverse: a retracted base row dooms its pairs,
the doomed tuple ids are retracted from the next node, and so on until
the completed set is clean — which is what makes a retained executor
delta-repairable for the series cache.

Canonical output: :meth:`ChainExecutor.finish` returns the completed
tuples — one row index per *chain position*, positions in chain order —
sorted lexicographically, so streamed and materialized runs (and any
shard layout feeding global indices) agree byte-for-byte.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.db.matcher import HashMatcher
from repro.errors import QueryError


class ChainExecutor:
    """Incremental n-way chain matcher over a left-deep node order."""

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        n = len(order)
        if n < 2:
            raise QueryError("a chain needs at least two positions")
        if sorted(order) != list(range(n)):
            raise QueryError(
                f"order {order!r} is not a permutation of 0..{n - 1}"
            )
        lo = hi = order[0]
        for position in order[1:]:
            if position == lo - 1:
                lo = position
            elif position == hi + 1:
                hi = position
            else:
                raise QueryError(
                    f"order {order!r} is not a contiguous left-deep "
                    "extension of the chain"
                )
        self.order = order
        self.arity = n
        self.matchers = [HashMatcher() for _ in range(n - 1)]
        #: chain position -> (node index, feeds-left?).  ``order[0]``
        #: is the only position feeding a left input; every other
        #: position is the right (probe) input of exactly one node.
        self._roles: dict[int, tuple[int, bool]] = {order[0]: (0, True)}
        for j, position in enumerate(order[1:]):
            self._roles[position] = (j, False)
        #: position -> {row -> handle}: every base item ever fed and
        #: not since retracted (the series cache's retained handles).
        self.handles: list[dict[int, bytes]] = [{} for _ in range(n)]
        # Tuple ids exist only *between* nodes: the last node's own
        # pairs are the completed tuples, so a two-table chain keeps
        # nothing here beyond its single matcher's pair list.
        self._tuples: dict[int, dict[int, int]] = {}
        self._tuple_handle: dict[int, bytes] = {}
        self._pair_tid: list[dict[tuple[int, int], int]] = [
            {} for _ in range(n - 2)
        ]
        self._next_tid = 0
        #: The canonical answer as :meth:`finish` last built it; ``None``
        #: once a feed or a retraction may have changed it.
        self._finished: list[tuple[int, ...]] | None = None

    # -- feeding ----------------------------------------------------------
    def feed(
        self, position: int, items: Sequence[tuple[int, bytes]]
    ) -> list[tuple[int, ...]]:
        """Feed ``(row, handle)`` items into one chain position.

        Returns the chain tuples *newly completed* by this delivery, in
        discovery order.  Accepts increments at any time — late chunks,
        delta-repair inserts — exactly like the two-way matchers.
        """
        node, is_left = self._role(position)
        self._finished = None
        side_handles = self.handles[position]
        for row, handle in items:
            side_handles[row] = handle
        if is_left:
            emitted = self.matchers[0].add_left(items)
        else:
            emitted = self.matchers[node].add_right(items)
        return self._cascade(node, emitted)

    def retract(self, position: int, rows) -> list[tuple[int, ...]]:
        """Withdraw base rows from one position; cascade the damage.

        Returns the completed chain tuples that were removed (the
        delta-repair delete path).
        """
        rows = [row for row in rows if row in self.handles[position]]
        if not rows:
            return []
        node, is_left = self._role(position)
        self._finished = None
        for row in rows:
            del self.handles[position][row]
        if is_left:
            dropped = self.matchers[0].retract_left(rows)
        else:
            dropped = self.matchers[node].retract_right(rows)
        return self._cascade_retract(node, dropped)

    def _role(self, position: int) -> tuple[int, bool]:
        try:
            return self._roles[position]
        except KeyError:
            raise QueryError(
                f"chain position {position} out of range for arity "
                f"{self.arity}"
            ) from None

    def _rows(self, node: int, pair) -> dict[int, int]:
        """The base rows (by chain position) behind one node's pair."""
        left_id, row = pair
        if node == 0:
            return {self.order[0]: left_id, self.order[1]: row}
        rows = dict(self._tuples[left_id])
        rows[self.order[node + 1]] = row
        return rows

    def _complete(self, pairs) -> list[tuple[int, ...]]:
        """The last node's pairs as full chain tuples."""
        if self.order == (0, 1):
            # One node, identity order: a pair already is the tuple.
            return pairs
        last = self.arity - 2
        return [
            tuple(rows[p] for p in range(self.arity))
            for rows in (self._rows(last, pair) for pair in pairs)
        ]

    def _cascade(self, node: int, pairs) -> list[tuple[int, ...]]:
        if node == self.arity - 2:
            return self._complete(pairs)
        completed: list[tuple[int, ...]] = []
        for pair in pairs:
            rows = self._rows(node, pair)
            if node == 0:
                handle = self.handles[self.order[0]][pair[0]]
            else:
                handle = self._tuple_handle[pair[0]]
            tid = self._next_tid
            self._next_tid += 1
            self._pair_tid[node][pair] = tid
            self._tuples[tid] = rows
            self._tuple_handle[tid] = handle
            emitted = self.matchers[node + 1].add_left([(tid, handle)])
            completed.extend(self._cascade(node + 1, emitted))
        return completed

    def _cascade_retract(self, node: int, dropped) -> list[tuple[int, ...]]:
        if node == self.arity - 2:
            return self._complete(dropped)
        pair_tid = self._pair_tid[node]
        tids = [
            pair_tid.pop(pair) for pair in dropped if pair in pair_tid
        ]
        if not tids:
            return []
        removed = self._cascade_retract(
            node + 1, self.matchers[node + 1].retract_left(tids)
        )
        # Only now: the next node's dropped pairs were expanded through
        # these partial tuples.
        for tid in tids:
            self._tuples.pop(tid, None)
            self._tuple_handle.pop(tid, None)
        return removed

    # -- results ----------------------------------------------------------
    def finish(self) -> list[tuple[int, ...]]:
        """All completed chain tuples, sorted lexicographically.

        Idempotent and re-callable — a retained executor is finished
        once per replay, after any delta feeding/retraction between —
        and expanded and sorted only if something was fed or retracted
        since the last call.  The list returned is the caller's own.
        """
        if self._finished is None:
            self._finished = sorted(self._complete(self.matchers[-1].pairs))
        return list(self._finished)

    @property
    def matches(self) -> int:
        return self.matchers[-1].stats.matches

    @property
    def probes(self) -> int:
        return sum(m.stats.probes for m in self.matchers)

    @property
    def comparisons(self) -> int:
        return sum(m.stats.comparisons for m in self.matchers)

    def reused_handles(self) -> int:
        return sum(map(len, self.handles))

    def retained_bytes(self) -> int:
        """Accounting for the series cache: handles + tuple state."""
        total = 0
        for side in self.handles:
            for handle in side.values():
                total += len(handle) + 96
        total += len(self._tuples) * (80 + 24 * self.arity)
        total += sum(m.stats.matches for m in self.matchers) * 80
        if self._finished is not None:
            # A list slot per tuple; in the identity two-table order the
            # tuples are the matcher's own pair objects, otherwise each
            # is an expanded tuple of its own.
            expanded = 0 if self.order == (0, 1) else 40 + 8 * self.arity
            total += len(self._finished) * (8 + expanded)
        return total
