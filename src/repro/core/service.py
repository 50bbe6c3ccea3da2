"""A persistent parallel execution service with multi-query admission.

A long-lived :class:`~concurrent.futures.ProcessPoolExecutor` behind an
admission scheduler that feeds the streaming pipeline:

- **Chunk streams, not materialized sides.**  :meth:`admit_side`
  registers a side and :meth:`stream_chunks` yields decrypted chunks
  *as workers complete them* (out of order, with their row offsets), so
  the matcher can start pairing while SJ.Dec is still running.  A side
  is cut by :func:`chunk_spans`, as an inline side is: the first chunk
  is one row, and the tail is spread over the workers.
- **Multi-query admission.**  Any number of sides — the two sides of
  one join, or sides of concurrent queries from different threads — may
  be admitted at once.  One *pump* hands their chunks to the executor:
  highest priority first, round-robin within equals, at most
  ``_PREFETCH_PER_WORKER`` per worker in flight pool-wide; the
  executor's call queue feeds whichever worker is idle.  Admission
  dispatches nothing: the pump first runs when a side is pulled, so
  the sides a query opens before pulling any are dealt together
  (L0, R0, L1, R1, …), and a join's first match waits for one row per
  side, not for the first side's opening chunks.
- **Lazy, persistent workers**: nothing is spawned at construction, the
  pool survives across queries (``generation`` only moves when the pool
  is started, restarted after :meth:`close`, or switched to another
  backend), the backend ships once per worker, a chunk travels as one
  contiguous ``bytes`` slice of its side's encoded rows beside the
  side's encoded token, and ``close()`` is idempotent.
- **A crash costs a retry, never an answer.**  A dying worker breaks
  the executor: every chunk it held is re-queued and the whole pool is
  replaced (``worker_restarts`` counts replacements, ``generation``
  stays; the survivors' caches are rebuilt too), within a per-side
  rescue budget and a no-progress breaker.

Thread model: each future's done-callback (on the executor's manager
thread) records its result under the service lock, pumps again and
wakes the waiting consumers; consumer threads shut executors down,
*outside* the lock (:meth:`ExecutionService._reap`).

The service is *owned* by :class:`~repro.core.server.SecureJoinServer`
(bound to its engine), whose ``workers`` is the one place a pool's
width is set; left out, it is :func:`default_width`, the CPUs the
process may run on.  There is no process-wide pool: an engine nobody
bound a service to runs inline.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
import traceback
from collections import deque
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.crypto.backend import (
    BilinearBackend,
    PairingOpCounter,
    PreparedRow,
)
from repro.errors import DeadlineError, QueryError

#: Chunks per worker the executor may hold at once: keeps workers busy
#: without handing over a whole side, which would defeat priorities.
_PREFETCH_PER_WORKER = 2

#: Prepared rows cached per worker (:func:`_prepared_row`; FIFO-evicted).
_PREPARED_CACHE_SIZE = 256

#: How long a consumer waits for progress before re-checking its side's
#: deadline and state (seconds).
_WAIT_TIMEOUT = 0.2


def default_width() -> int:
    """How many workers a pool is by default: the CPUs this process may
    run on (its affinity mask, so ``taskset`` and cgroup CPU sets count),
    or every CPU where the platform has no affinity call.  One CPU means
    a pool one worker wide: every side runs inline, nothing is decided."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class QueryQoS:
    """Per-query scheduling inputs, threaded from the wire query header.

    ``priority``: sides of higher-priority queries get dispatch
    preference at every worker-window refill; equal priorities
    round-robin as before.  ``deadline`` is *absolute* in
    ``time.monotonic()`` terms — the admitting layer stamps the query's
    relative wire budget against the local clock; once past it the side
    is cancelled (nothing more of it is dispatched) and its consumer
    receives a :class:`~repro.errors.DeadlineError`.
    """

    priority: int = 0
    deadline: float | None = None

    @classmethod
    def stamp(cls, query) -> "QueryQoS | None":
        """The query's QoS with its relative deadline stamped against
        this process's clock; ``None`` when the query carries neither."""
        priority = getattr(query, "priority", 0) or 0
        relative = getattr(query, "deadline", None)
        if not priority and relative is None:
            return None
        return cls(
            priority=priority,
            deadline=(
                time.monotonic() + relative if relative is not None else None
            ),
        )

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) > self.deadline


@dataclass
class SideReport:
    """What one admitted side did, for engine/stat accounting."""

    chunks: int = 0
    max_chunk: int = 0
    workers_used: int = 0
    #: Pairing work the workers did for this side.
    ops: PairingOpCounter = field(default_factory=PairingOpCounter)
    pool_generation: int = 0
    worker_restarts: int = 0
    #: Peak number of sides admitted concurrently while this side ran
    #: (>= 2 means this side actually interleaved with another).
    concurrent_sides: int = 1


# -- worker side ----------------------------------------------------------

#: Per-worker state, set by :func:`_init_worker` in each pooled process
#: (never in the service's own): the pool's backend, and prepared rows
#: by row-ciphertext digest.
_worker_backend: BilinearBackend | None = None
_worker_prepared: dict[bytes, PreparedRow] = {}


def _init_worker(backend: BilinearBackend) -> None:
    """The executor's initializer: the backend ships once per worker and
    lives as long as it does, with fresh caches and op counters (a
    forked worker inherits its parent's)."""
    global _worker_backend
    backend.ops.reset()
    _worker_backend = backend
    _worker_prepared.clear()


def _decode_row(backend: BilinearBackend, raw: bytes, dimension: int) -> list:
    size = backend.g2_element_size
    return [
        backend.decode_g2(raw[i * size:(i + 1) * size])
        for i in range(dimension)
    ]


def _prepared_row(
    backend: BilinearBackend, raw: bytes, dimension: int
) -> PreparedRow:
    """Rebuild a prepared row, keyed by row-ciphertext digest.

    Prepared coefficients are large (~13 KB/element on BN254, ~40x the
    ciphertext), so like the fixed-base tables they are rebuilt lazily
    in each worker rather than shipped, and reused across chunks and
    queries: only the first query over a table pays the preparation.
    """
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    row = _worker_prepared.get(digest)
    if row is None:
        row = backend.prepare_row(_decode_row(backend, raw, dimension))
        if len(_worker_prepared) >= _PREPARED_CACHE_SIZE:
            _worker_prepared.pop(next(iter(_worker_prepared)))
        _worker_prepared[digest] = row
    return row


def _decrypt_chunk(
    token_bytes: Sequence[bytes], prepared: bool, chunk: bytes
) -> tuple[int, list[bytes], PairingOpCounter]:
    """Decrypt one chunk in a pooled worker: ``(pid, handles, the
    pairing work it took)``.  The token is decoded per chunk: 46 µs at
    the paper's d = 19 on BN254, against >= 400 ms of pairings."""
    backend = _worker_backend
    token = [backend.decode_g1(raw) for raw in token_bytes]
    dimension = len(token)
    stride = dimension * backend.g2_element_size
    snapshot = backend.ops.snapshot()
    decode = _prepared_row if prepared else _decode_row
    rows = [
        decode(backend, chunk[base:base + stride], dimension)
        for base in range(0, len(chunk), stride)
    ]
    handles = [
        gt.to_bytes() for gt in backend.pair_vectors_batch(token, rows)
    ]
    return os.getpid(), handles, backend.ops.since(snapshot)


def chunk_spans(rows: int, size: int, width: int = 1) -> list[tuple[int, int]]:
    """The ``(start, stop)`` spans one SJ.Dec side of ``rows`` rows is
    cut into, in row order: the only place a side is cut, inline
    (``width`` 1) and on a pool ``width`` workers wide alike.

    Span *k* holds ``min(size, 2**k, ceil(remaining / width))`` rows.
    The first chunk is one row, so a side's first handle — and a join's
    first match — leaves after one pairing product, not after ``size``;
    doubling keeps the extra chunks to about ``log2(size)``; and no
    chunk exceeds the rows still to cut over the pool's width, so the
    side's tail is spread across the workers (guided self-scheduling)
    instead of landing on one of them.
    """
    if size < 1 or width < 1:
        raise QueryError("chunk size and width must be at least 1")
    spans = []
    start, ramp = 0, 1
    while start < rows:
        stop = start + min(ramp, -(-(rows - start) // width))
        spans.append((start, stop))
        start, ramp = stop, min(2 * ramp, size)
    return spans


def max_span(spans: Sequence[tuple[int, int]]) -> int:
    """The largest chunk :func:`chunk_spans` cut (0 for an empty side)."""
    return max((stop - start for start, stop in spans), default=0)


def _encode_rows(backend, ciphertext_vectors, dimension) -> bytes:
    """A side's rows as one flat buffer of encoded G2 elements."""
    parts = []
    for row in ciphertext_vectors:
        if len(row) != dimension:
            raise QueryError(
                f"ciphertext dimension {len(row)} != token dimension "
                f"{dimension}"
            )
        # Prepared rows travel as their raw G2 elements; the worker
        # rebuilds (and caches) the precomputation on its side.
        elements = row.elements if isinstance(row, PreparedRow) else row
        for element in elements:
            parts.append(backend.encode_g2(element))
    return b"".join(parts)


# -- main-process side ----------------------------------------------------


@dataclass(eq=False)
class _SideState:
    """One admitted side: its encoded rows, chunk queue and progress."""

    #: ``(encoded token, prepared)``: what every chunk of this side
    #: carries to its worker beside its rows.
    call: tuple
    #: ``(start row, encoded rows)`` chunks not yet handed to the pool
    #: (a chunk a dead pool held comes back to the front).
    pending: deque
    rescue_budget: int
    qos: QueryQoS
    report: SideReport
    #: The dead executor this side's budget was last charged for: one
    #: crash loses many chunks and costs one rescue.
    charged_for: ProcessPoolExecutor | None = None
    #: Chunks completed by workers, awaiting the consumer.
    completed: deque = field(default_factory=deque)
    done_chunks: int = 0
    #: Pids of the workers that served this side's chunks.
    pids: set = field(default_factory=set)
    error: str | None = None

    @property
    def finished(self) -> bool:
        return self.done_chunks >= self.report.chunks


class ExecutionService:
    """A lazily-started persistent pool with a multi-side admission queue.

    One instance serves many queries: construct it freely (construction
    spawns nothing), admit sides with :meth:`admit_side` +
    :meth:`stream_chunks`, and :meth:`close` when done — or use it as a
    context manager.  A closed service transparently restarts on next
    use (``generation`` then increments, which is how tests assert the
    pool was *not* recreated between queries).
    """

    def __init__(self, workers: int | None = None, name: str | None = None):
        if workers is not None and workers < 1:
            raise QueryError("worker count must be at least 1")
        #: Optional label for pool-death error messages: every shard owns
        #: a pool, and "the pool died" is not actionable without *whose*.
        self.name = name
        #: The pool's width; by default :func:`default_width`.
        self.worker_target = (
            workers if workers is not None else default_width()
        )
        #: Incremented every time the pool is (re)started.
        self.generation = 0
        #: Pool replacements after a worker crash (every worker goes).
        self.worker_restarts = 0
        #: High-water mark of concurrently admitted sides.
        self.peak_concurrent_sides = 0
        #: The live pool, made by the pump at the first chunk after a
        #: start or a crash.
        self._executor: ProcessPoolExecutor | None = None
        #: Executors awaiting shutdown; the pump submits nothing — so
        #: nothing forks — while one is still here (:meth:`_reap`).
        self._retired: list[ProcessPoolExecutor] = []
        self._reaping = threading.Lock()
        #: What the pool was started on; ``None`` = not started.
        self._backend: BilinearBackend | None = None
        #: True after :meth:`close` until the next (lazy) restart.
        self.closed = False
        self._lock = threading.RLock()
        self._progress = threading.Condition(self._lock)
        #: Admitted sides, in rotation order.
        self._active: list[_SideState] = []
        self._in_flight = 0
        self._pumping = False
        #: The current pool's workers, learned from their results.
        self._pids: set[int] = set()
        self._rescues_since_progress = 0

    # -- lifecycle --------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._backend is not None

    @property
    def active_sides(self) -> int:
        """How many sides are currently admitted (diagnostics)."""
        return len(self._active)

    def worker_pids(self) -> list[int]:
        """PIDs of the current pool's workers that have served a chunk
        (for lifecycle tests and diagnostics)."""
        with self._lock:
            return sorted(self._pids)

    def _label(self) -> str:
        return f" {self.name!r}" if self.name else ""

    @staticmethod
    def _backend_fingerprint(backend: BilinearBackend) -> tuple:
        """What must match for pooled workers to be reusable: semantics,
        not identity (backends are stateless but for op counters)."""
        return (
            type(backend).__qualname__,
            backend.name,
            backend.order,
            getattr(backend, "use_fast_pairing", None),
        )

    def ensure_started(self, backend: BilinearBackend) -> None:
        """Start (or restart) the pool bound to ``backend``.

        Workers fork at the first chunk.  A semantically different
        backend restarts the pool (the per-worker caches would be
        poisoned otherwise) — never while sides still execute on it.
        """
        with self._lock:
            if self._backend is not None and (
                self._backend_fingerprint(self._backend)
                != self._backend_fingerprint(backend)
            ):
                if self._active:
                    raise QueryError(
                        "cannot switch the pool to a different backend "
                        f"while {len(self._active)} side(s) are active"
                    )
                self._retire_locked()
                self._backend = None
            if self._backend is None:
                self._backend = backend
                self.generation += 1
                self.closed = False

    def _retire_locked(self) -> None:
        if self._executor is not None:
            self._retired.append(self._executor)
            self._executor = None
        self._pids.clear()

    def _reap(self) -> None:
        """Shut retired executors down, then let the pump run again.

        Never called with the service lock held: a retired executor's
        manager thread may be inside a done-callback waiting for it, and
        shutting down joins that thread.  The pump holds back until the
        list is empty, so a replacement's workers fork only after the
        pool they replace has closed its pipes: a child forked earlier
        would hold them open, and a chunk half-written to the dead pool
        would block its teardown forever.
        """
        if not self._retired:
            return
        with self._reaping:
            with self._lock:
                retired = list(self._retired)
            for executor in retired:
                executor.shutdown(wait=True, cancel_futures=True)
            with self._progress:
                del self._retired[: len(retired)]
                self._pump_locked()
                self._progress.notify_all()

    def close(self) -> None:
        """Stop the pool.  Idempotent; the service may be reused after."""
        with self._progress:
            self._retire_locked()
            self._backend = None
            self.closed = True
            # Consumers blocked on in-flight sides must fail, not hang.
            self._fail_sides_locked(
                f"execution service{self._label()} was closed mid-side"
            )
            self._progress.notify_all()
        self._reap()

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission --------------------------------------------------------
    def admit_side(
        self,
        backend: BilinearBackend,
        token_elements: Sequence,
        ciphertext_vectors: Sequence[Sequence],
        batch_size: int,
        qos: QueryQoS | None = None,
    ) -> _SideState:
        """Register one side with the scheduler; nothing is dispatched
        until a side is pulled (:meth:`stream_chunks`), so sides opened
        together are dealt together.

        Returns a side handle to pass to :meth:`stream_chunks` (and, on
        abnormal exits, :meth:`release_side` — idempotent, and automatic
        once the stream is drained).  ``qos`` is the owning query's
        priority and absolute deadline (:class:`QueryQoS`).
        """
        n_rows = len(ciphertext_vectors)
        spans = chunk_spans(n_rows, batch_size, self.worker_target)
        # Encoding touches only local data; doing it outside the lock
        # keeps a large admission from stalling the queries already
        # running on the pool.
        dimension = len(token_elements)
        prepared = n_rows > 0 and all(
            isinstance(row, PreparedRow) for row in ciphertext_vectors
        )
        encoded = _encode_rows(backend, ciphertext_vectors, dimension)
        token_bytes = [backend.encode_g1(e) for e in token_elements]
        stride = dimension * backend.g2_element_size
        pending: deque[tuple[int, bytes]] = deque(
            (start, encoded[start * stride:stop * stride])
            for start, stop in spans
        )
        with self._progress:
            self.ensure_started(backend)
            # A fresh admission gets a fresh no-progress breaker: it is
            # there to stop a runaway restart loop, not to poison later
            # queries after the environment recovered.
            self._rescues_since_progress = 0
            side = _SideState(
                call=(token_bytes, prepared),
                pending=pending,
                rescue_budget=3 * self.worker_target + 5,
                qos=qos if qos is not None else QueryQoS(),
                report=SideReport(
                    chunks=len(spans),
                    max_chunk=max_span(spans),
                    pool_generation=self.generation,
                ),
            )
            self._active.append(side)
            peak = len(self._active)
            self.peak_concurrent_sides = max(
                self.peak_concurrent_sides, peak
            )
            for active in self._active:
                active.report.concurrent_sides = max(
                    active.report.concurrent_sides, peak
                )
        return side

    # -- streaming --------------------------------------------------------
    def stream_chunks(
        self, side: _SideState
    ) -> Iterator[tuple[int, list[bytes]]]:
        """Yield ``(start_offset, handles)`` chunks as workers finish.

        Chunks arrive in completion order — callers that need row order
        sort by the start offset.  The first pull starts the pump (for
        every admitted side, not only this one).  Returns the side's
        :class:`SideReport` as the generator's value and releases the
        side on the way out.
        """
        try:
            while True:
                self._reap()
                with self._progress:
                    self._pump_locked()
                    if side.qos.expired():
                        raise DeadlineError(
                            "query exceeded its deadline; side cancelled "
                            f"after {side.done_chunks}/{side.report.chunks}"
                            " chunks"
                        )
                    if side.error is not None:
                        raise QueryError(
                            f"pooled SJ.Dec side failed:\n{side.error}"
                        )
                    items = list(side.completed)
                    side.completed.clear()
                    if not items and side.finished:
                        return side.report
                    if not items and not self._retired:
                        self._progress.wait(timeout=_WAIT_TIMEOUT)
                yield from items
        finally:
            self.release_side(side)

    def release_side(self, side: _SideState) -> None:
        """Retire a side: it stops being scheduled.  Idempotent, and
        safe mid-flight (results still on their way are dropped)."""
        with self._progress:
            if side in self._active:
                self._active.remove(side)
                side.pending.clear()
                side.report.workers_used = len(side.pids)
                side.report.worker_restarts = self.worker_restarts
                self._progress.notify_all()
        self._reap()

    # -- scheduling internals (all require self._lock) --------------------
    def _pick_side_locked(self) -> _SideState | None:
        """The next side whose chunk goes to the pool: the
        highest-priority admitted side with pending work, round-robin
        within equal priorities (the chosen side moves to the back of
        the rotation).  A side whose deadline lapsed is cancelled:
        nothing more of it is dispatched, and its consumer raises."""
        now = time.monotonic()
        best: _SideState | None = None
        for side in self._active:
            if (
                not side.pending
                or side.error is not None
                or side.qos.expired(now)
            ):
                continue
            if best is None or side.qos.priority > best.qos.priority:
                best = side
        if best is not None:
            self._active.remove(best)
            self._active.append(best)
        return best

    def _pump_locked(self) -> None:
        """Hand chunks to the executor until its window is full or no
        admitted side has one to give."""
        if self._pumping:
            # A future that was already done ran its callback inside
            # ``add_done_callback`` below; the loop it interrupted goes on.
            return
        self._pumping = True
        try:
            window = _PREFETCH_PER_WORKER * self.worker_target
            while self._in_flight < window and not self._retired:
                side = self._pick_side_locked()
                if side is None:
                    return
                if self._executor is None:
                    # The first chunk since the start, or since a crash:
                    # the same pool incarnation with fresh workers.
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.worker_target,
                        initializer=_init_worker,
                        initargs=(self._backend,),
                    )
                executor = self._executor
                chunk = side.pending.popleft()
                try:
                    future = executor.submit(
                        _decrypt_chunk, *side.call, chunk[1]
                    )
                except BrokenProcessPool:
                    # A worker died while the pool was idle.
                    self._chunk_lost_locked(executor, side, chunk)
                    return
                self._in_flight += 1
                future.add_done_callback(functools.partial(
                    self._chunk_done, executor, side, chunk
                ))
        finally:
            self._pumping = False

    def _chunk_done(self, executor, side, chunk, future) -> None:
        """A chunk's future resolved (on the executor's manager thread):
        record the result or re-queue the lost chunk, and pump again."""
        with self._progress:
            self._in_flight -= 1
            if future.cancelled():
                pass  # by close(), which has failed its side already
            elif isinstance(error := future.exception(), BrokenProcessPool):
                self._chunk_lost_locked(executor, side, chunk)
            elif error is not None:
                side.error = "".join(traceback.format_exception(error))
            else:
                pid, handles, ops = future.result()
                self._rescues_since_progress = 0
                if executor is self._executor:
                    self._pids.add(pid)
                if side in self._active:
                    side.pids.add(pid)
                    side.done_chunks += 1
                    side.completed.append((chunk[0], handles))
                    side.report.ops.add(ops)
            self._pump_locked()
            self._progress.notify_all()

    def _chunk_lost_locked(self, executor, side, chunk) -> None:
        """The pool died under this chunk: give it back to its side,
        charge the side's budget and retire the pool, each once per dead
        pool.  The pump starts the replacement once a consumer has shut
        the dead pool down."""
        if side in self._active:
            side.pending.appendleft(chunk)
            if side.charged_for is not executor:
                side.charged_for = executor
                side.rescue_budget -= 1
            if side.rescue_budget < 0 and side.error is None:
                side.error = (
                    f"execution-service{self._label()} workers keep dying "
                    f"(restarted {self.worker_restarts} total); refusing "
                    "to restart further for this side"
                )
        if executor is not self._executor:
            return
        self._retire_locked()
        self.worker_restarts += 1
        # The budget stops a chunk that kills every pool it meets; this
        # progress-free counter stops deaths no chunk causes (bad
        # environment, unpicklable backend) from forking forever.
        self._rescues_since_progress += 1
        if self._rescues_since_progress > 3 * self.worker_target + 5:
            self._fail_sides_locked(
                "execution-service workers keep dying before making "
                "progress; refusing to restart further"
            )

    def _fail_sides_locked(self, message: str) -> None:
        for side in self._active:
            if not side.finished and side.error is None:
                side.error = message
