"""The streaming half of the join drive: SJ.Dec chunk streams → SJ.Match.

This is the layer between the execution engines
(:mod:`repro.core.engine`, which emit decrypted handle chunks as they
complete) and the chain executor (:mod:`repro.plan.executor`, which
pairs partial sides).  The join drive (:mod:`repro.core.server`) opens
the sources; here is what it merges them with:

- :class:`HandleSource` adapts one side's
  :class:`~repro.core.engine.HandleStream` to ``(positions, items)``
  events — chunk offsets translated to the side's row indices (local on
  a single store, *global* from a shard), tagged with every chain
  position that consumes the side;
- :func:`round_robin` deals events from N sources in turn, and
  :func:`merge_sources` feeds them into one executor (a remote shard
  sends them as frames instead).  For inline sides the alternation
  itself interleaves the sides' pairing work; for pooled sides the
  service's pump makes progress on every admitted side whichever
  stream is being waited on.
  Newly completed tuples are emitted the moment they exist, and every
  side's first chunk is one row
  (:func:`~repro.core.service.chunk_spans`), so a join whose first rows
  match yields its first tuple after one SJ.Dec row per side, while
  nearly all of SJ.Dec is still running.

Two tables or five, one store or many shards, all rows or only the
delta of a refresh: the difference is the source list, not the loop.
Because the executor sorts canonically at ``finish()``, the final
result equals the fully materialized decrypt-then-match pass
byte-for-byte however the chunks interleave.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

from repro.core.engine import HandleStream

__all__ = ["HandleSource", "merge_sources", "round_robin"]


class HandleSource:
    """One side's decrypt stream as a merge source.

    Iteration yields ``(positions, items)`` per decrypted chunk: every
    chain position in ``positions`` consumes the same items (the handle
    pool's fan-out).  With ``payloads`` (aligned with ``rows``) each
    item is ``(row, handle, payload)``; otherwise ``(row, handle)``.

    ``decrypted`` is how many rows the stream runs SJ.Dec over;
    ``reports`` holds the stream's
    :class:`~repro.core.engine.EngineReport` once exhausted.
    ``close()`` always closes the underlying stream — even when the
    merge never pulled from this source because a sibling failed first.
    """

    def __init__(
        self,
        positions: Sequence[int],
        stream: HandleStream,
        rows: Sequence[int],
        payloads: Sequence[bytes] | None = None,
    ):
        self.positions = tuple(positions)
        self.stream = stream
        self.rows = rows
        self.payloads = payloads
        self.decrypted = len(rows)
        self.reports: list = []

    def __iter__(self) -> "HandleSource":
        return self

    def __next__(self) -> tuple[tuple[int, ...], list]:
        try:
            chunk = next(self.stream)
        except StopIteration:
            self.reports = [self.stream.report]
            raise
        start = chunk.start
        rows = self.rows[start:start + len(chunk.handles)]
        if self.payloads is None:
            items = list(zip(rows, chunk.handles))
        else:
            payloads = self.payloads[start:start + len(chunk.handles)]
            items = list(zip(rows, chunk.handles, payloads))
        return self.positions, items

    def close(self) -> None:
        self.stream.close()


def round_robin(sources: Sequence):
    """Events from ``sources`` in turn, one per source per round, until
    every source is exhausted; an exhausted one drops out of the
    rotation.  The caller owns the sources and closes them."""
    active = list(sources)
    turn = 0
    while active:
        source = active[turn % len(active)]
        try:
            event = next(source)
        except StopIteration:
            active.remove(source)
            continue
        yield event
        turn += 1


def merge_sources(
    sources: Sequence,
    executor,
    on_items: Callable[[tuple[int, ...], list], None],
    stats,
):
    """Merge decrypt sources round-robin into ``executor``; a generator.

    Each source is an iterator of ``(positions, items)`` events —
    ``items`` being ``(row, handle)`` or ``(row, handle, payload)``
    tuples.  ``on_items`` sees every event before it is matched (the
    drive finds equal handles and retains payloads there).  Yields lists
    of newly completed chain tuples in discovery order and accumulates
    the stage wall-clock into ``stats.decrypt_seconds`` (waiting on the
    streams) and ``stats.match_seconds`` (inside the executor); the two
    overlap the same interval — that is the pipelining.

    The sources are dealt by :func:`round_robin`; the caller owns them
    and closes them.
    """
    events = round_robin(sources)
    while True:
        waited = time.perf_counter()
        event = next(events, None)
        stats.decrypt_seconds += time.perf_counter() - waited
        if event is None:
            return
        positions, items = event
        on_items(positions, items)
        matched_at = time.perf_counter()
        if items and len(items[0]) != 2:
            items = [(item[0], item[1]) for item in items]
        completed = executor.feed(positions[0], items)
        for position in positions[1:]:
            completed = completed + executor.feed(position, items)
        stats.match_seconds += time.perf_counter() - matched_at
        if completed:
            yield completed
