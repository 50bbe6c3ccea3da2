"""A persistent parallel execution service with multi-query admission.

A long-lived worker pool behind an admission scheduler that feeds the
streaming pipeline:

- **Chunk streams, not materialized sides.**  :meth:`admit_side`
  registers a side and :meth:`stream_chunks` yields decrypted chunks
  *as workers complete them* (out of order, with their row offsets), so
  the matcher can start pairing while SJ.Dec is still running.
- **Multi-query admission.**  Any number of sides — the two sides of
  one join, or sides of concurrent queries from different threads — may
  be admitted at once.  Chunk dispatch round-robins across admitted
  sides at every worker-window refill, so concurrent queries interleave
  fairly on the shared warm pool instead of serializing.
- **Per-side contexts.**  Each side gets its own context id, token
  install, and shared-memory segment; workers hold many contexts at
  once (tokens still cached by digest), and a ``release`` message drops
  a context the moment its side is done.  Crash respawn re-installs
  every *active* side on the replacement worker, so one query's crash
  recovery never disturbs another's state.
- **Lazy, persistent workers**: nothing is spawned at
  construction, the pool survives across queries (``pool_generation``
  only moves when the pool is actually (re)created), the backend ships
  once per worker lifetime, and ``close()`` is idempotent.
- **Shared-memory ciphertext transport**: one segment per
  side, chunk messages carry ``(start, count)`` offsets; where POSIX
  shared memory is unavailable each chunk ships as one contiguous
  ``bytes`` buffer.

Thread model: consumers drive progress cooperatively.  Whichever
consumer thread needs results next becomes the *poller* (guarded by
``_polling``), waits on the worker pipes once, distributes everything
that arrived to the owning sides' queues, refills worker windows
round-robin, and wakes the other consumers.  All pipe sends happen
under the service lock, so concurrent admissions never interleave
messages on one pipe.

The service is *owned* by :class:`~repro.core.server.SecureJoinServer`
(one service per server, bound to every pool-using engine the server
resolves).  There is no process-wide pool: an engine nobody bound a
service to runs inline.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait

from repro.crypto.backend import BilinearBackend, PreparedRow
from repro.errors import DeadlineError, QueryError

try:  # pragma: no cover - exercised indirectly via the transport choice
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

#: How many chunks may sit in one worker's pipe before the scheduler
#: waits for a result (keeps workers busy without queueing a whole side
#: into one pipe, which would defeat work stealing and fairness).
_PREFETCH_PER_WORKER = 2

#: Decoded tokens cached per worker (FIFO-evicted).
_TOKEN_CACHE_SIZE = 32

#: Prepared rows rebuilt per worker, keyed by row-ciphertext digest
#: (FIFO-evicted).  Prepared coefficients are large (~13 KB/element on
#: BN254), so like the fixed-base tables they are *rebuilt lazily* in
#: each worker rather than shipped over the pipe; repeated queries over
#: the same warm table then hit the cache and replay coefficients.
_PREPARED_CACHE_SIZE = 256

#: How long one poll on the worker pipes blocks before re-checking
#: liveness and side state (seconds).
_POLL_TIMEOUT = 0.2

#: Forking a worker while any thread is inside shared-memory
#: bookkeeping is unsafe: ``SharedMemory`` create/unlink talk to the
#: process-wide resource tracker under a tracker-internal lock, and a
#: child forked at that moment inherits the lock *held* — its first
#: segment attach then deadlocks forever (the worker sits "alive" and
#: never serves a chunk).  Every fork and every tracker-touching
#: segment operation in this module serializes on this mutex; it is
#: process-global because several services (one per server or shard)
#: may fork and admit concurrently in one process.
_FORK_SAFETY_MUTEX = threading.Lock()


def default_worker_count() -> int:
    """The service's default pool size (matches the PR 1 parallel engine)."""
    return max(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class QueryQoS:
    """Per-query scheduling inputs, threaded from the wire query header.

    ``priority``: sides of higher-priority queries get dispatch
    preference at every worker-window refill; equal priorities
    round-robin as before.  ``deadline`` is *absolute* in
    ``time.monotonic()`` terms — the admitting layer stamps the query's
    relative wire budget against the local clock; once past it the side
    is cancelled (pending chunks dropped, context released) and its
    consumer receives a :class:`~repro.errors.DeadlineError`.
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
    miller_loops: int = 0
    final_exponentiations: int = 0
    prepared_miller_loops: int = 0
    preparations: int = 0
    pool_generation: int = 0
    worker_restarts: int = 0
    shared_memory: bool = False
    #: Peak number of sides admitted concurrently while this side ran
    #: (>= 2 means this side actually interleaved with another).
    concurrent_sides: int = 1


# -- worker side ----------------------------------------------------------


def _attach_shared_memory(name: str):
    """Attach to an existing segment without owning its lifetime.

    Under ``fork`` the worker shares the main process's resource
    tracker, where attach-registration is an idempotent set-add that the
    owner's ``unlink`` later removes — nothing to fix up.  Under other
    start methods the worker has its *own* tracker, which would unlink
    the (still in use) segment when the worker exits; undo the
    registration there.
    """
    segment = _shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() != "fork":
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
    return segment


def _decode_rows(
    backend: BilinearBackend, buffer, start: int, count: int, dimension: int
) -> list[list]:
    """Decode ``count`` ciphertext rows from a flat encoded buffer."""
    element_size = backend.g2_element_size
    stride = dimension * element_size
    rows = []
    for row_index in range(start, start + count):
        base = row_index * stride
        rows.append([
            backend.decode_g2(
                bytes(buffer[base + i * element_size:
                             base + (i + 1) * element_size])
            )
            for i in range(dimension)
        ])
    return rows


def _prepared_rows(
    backend: BilinearBackend,
    cache: dict[bytes, PreparedRow],
    buffer,
    start: int,
    count: int,
    dimension: int,
) -> list[PreparedRow]:
    """Rebuild prepared rows for a chunk, keyed by row-ciphertext digest.

    The transport ships raw G2 ciphertexts (prepared coefficients are
    ~40x larger); workers rebuild the precomputation lazily and reuse it
    across chunks and queries through a digest-keyed FIFO cache, so only
    the first query over a table pays the preparation cost.
    """
    element_size = backend.g2_element_size
    stride = dimension * element_size
    rows = []
    for row_index in range(start, start + count):
        base = row_index * stride
        raw = bytes(buffer[base:base + stride])
        digest = hashlib.blake2b(raw, digest_size=16).digest()
        row = cache.get(digest)
        if row is None:
            decoded = [
                backend.decode_g2(
                    raw[i * element_size:(i + 1) * element_size]
                )
                for i in range(dimension)
            ]
            row = backend.prepare_row(decoded)
            if len(cache) >= _PREPARED_CACHE_SIZE:
                cache.pop(next(iter(cache)))
            cache[digest] = row
        rows.append(row)
    return rows


def _service_worker(conn: Connection, backend: BilinearBackend) -> None:
    """Worker main loop: install contexts, decrypt chunks, report results.

    Messages arrive on one FIFO pipe, so a ``ctx`` install is always
    processed before the chunks that reference it.  The worker holds
    *many* contexts at once — one per admitted side — each with its own
    shared-memory segment; ``release`` drops a context when its side
    finishes.  The backend lives for the worker's whole lifetime and
    decoded tokens are cached by digest, so repeated queries cost
    nothing but the chunk descriptors.
    """
    backend.ops.reset()
    token_cache: dict[bytes, tuple] = {}
    prepared_cache: dict[bytes, PreparedRow] = {}
    # ctx_id -> (token, dimension, shared-memory segment | None, prepared)
    contexts: dict[int, tuple] = {}
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "ctx":
                (
                    _, ctx_id, digest, token_bytes, dimension, shm_name,
                    prepared,
                ) = message
                token = token_cache.get(digest)
                if token is None:
                    token = tuple(
                        backend.decode_g1(raw) for raw in token_bytes
                    )
                    if len(token_cache) >= _TOKEN_CACHE_SIZE:
                        token_cache.pop(next(iter(token_cache)))
                    token_cache[digest] = token
                segment = None
                if shm_name is not None:
                    # A vanished segment means the install is stale (the
                    # side it belonged to was already released); skip it —
                    # no chunk for this context will need serving.
                    try:
                        segment = _attach_shared_memory(shm_name)
                    except (FileNotFoundError, OSError):
                        continue
                contexts[ctx_id] = (token, dimension, segment, prepared)
                continue
            if kind == "release":
                _, ctx_id = message
                released = contexts.pop(ctx_id, None)
                if released is not None and released[2] is not None:
                    released[2].close()
                continue
            if kind == "chunk":
                _, ctx_id, start, count, payload = message
                try:
                    context = contexts.get(ctx_id)
                    if context is None:
                        raise QueryError(
                            f"chunk for unknown context {ctx_id}"
                        )
                    token, dimension, segment, prepared = context
                    if payload is not None:
                        buffer, offset = payload, 0
                    else:
                        buffer, offset = segment.buf, start
                    snapshot = backend.ops.snapshot()
                    if prepared:
                        rows = _prepared_rows(
                            backend, prepared_cache, buffer, offset,
                            count, dimension,
                        )
                    else:
                        rows = _decode_rows(
                            backend, buffer, offset, count, dimension
                        )
                    gts = backend.pair_vectors_batch(token, rows)
                    delta = backend.ops.since(snapshot)
                    conn.send((
                        "done", ctx_id, start,
                        [gt.to_bytes() for gt in gts],
                        delta.miller_loops, delta.final_exponentiations,
                        delta.prepared_miller_loops, delta.preparations,
                    ))
                except Exception:
                    conn.send((
                        "error", ctx_id, start, traceback.format_exc()
                    ))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        for context in contexts.values():
            if context[2] is not None:
                context[2].close()
        conn.close()


# -- main-process side ----------------------------------------------------


class _WorkerHandle:
    """One pooled worker: its process, pipe and outstanding chunks."""

    def __init__(self, index: int, process, conn: Connection):
        self.index = index
        self.process = process
        self.conn = conn
        # (ctx_id, start) -> (ctx_id, start, count) for crash requeue.
        self.outstanding: dict[tuple[int, int], tuple] = {}

    def alive(self) -> bool:
        return self.process.is_alive()


class _SideState:
    """One admitted side: its transport, chunk queues and progress."""

    def __init__(
        self,
        ctx_id: int,
        install: tuple,
        segment,
        encoded: bytes,
        stride: int,
        pending: deque,
        max_workers: int,
        allowed_workers: frozenset[int],
        rescue_budget: int,
        qos: QueryQoS,
    ):
        self.ctx_id = ctx_id
        self.install = install
        self.segment = segment
        self.encoded = encoded
        self.stride = stride
        self.pending = pending
        self.qos = qos
        #: Set when the side's deadline lapsed; consumers raise
        #: :class:`DeadlineError` instead of a generic failure.
        self.expired = False
        self.n_chunks = len(pending)
        self.max_workers = max_workers
        self.allowed_workers = allowed_workers
        self.rescue_budget = rescue_budget
        #: Chunks completed by workers, awaiting the consumer.
        self.completed: deque[tuple[int, list[bytes]]] = deque()
        self.seen_starts: set[int] = set()
        self.done_chunks = 0
        #: worker index -> number of this side's chunks it is holding.
        self.holding: dict[int, int] = {}
        self.workers_ever: set[int] = set()
        self.error: str | None = None
        self.released = False
        self.report = SideReport()

    @property
    def finished(self) -> bool:
        return self.done_chunks >= self.n_chunks


class ExecutionService:
    """A lazily-started persistent pool with a multi-side admission queue.

    One instance serves many queries: construct it freely (construction
    spawns nothing), admit sides with :meth:`admit_side` +
    :meth:`stream_chunks`, and :meth:`close` when done — or use it as a
    context manager.  A closed service transparently restarts on next
    use (``generation`` then increments, which is how tests assert the
    pool was *not* recreated between queries).  Any number of sides may
    be in flight at once; they interleave chunk scheduling fairly on
    the shared pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        use_shared_memory: bool | None = None,
        name: str | None = None,
    ):
        if workers is not None and workers < 1:
            raise QueryError("worker count must be at least 1")
        #: Optional label threaded into pool-death error messages — in a
        #: sharded deployment every shard owns a pool, and "the pool
        #: died" is not actionable without saying *whose*.
        self.name = name
        self.worker_target = (
            workers if workers is not None else default_worker_count()
        )
        if use_shared_memory is None:
            use_shared_memory = _shared_memory is not None
        self.use_shared_memory = use_shared_memory and _shared_memory is not None
        #: Incremented every time the pool is (re)started.
        self.generation = 0
        #: Cumulative count of workers respawned after a crash.
        self.worker_restarts = 0
        #: Sides admitted to the pool (not counting inline fallbacks).
        self.sides_executed = 0
        #: High-water mark of concurrently admitted sides.
        self.peak_concurrent_sides = 0
        self._workers: list[_WorkerHandle] = []
        self._backend: BilinearBackend | None = None
        self._ctx_counter = itertools.count(1)
        self._closed = False
        self._lock = threading.RLock()
        self._progress = threading.Condition(self._lock)
        self._active: dict[int, _SideState] = {}
        self._rr: deque[int] = deque()
        self._polling = False
        self._rescues_since_progress = 0
        self._admit_offset = 0

    # -- lifecycle --------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._workers)

    @property
    def closed(self) -> bool:
        """True after :meth:`close` until the next (lazy) restart."""
        return self._closed

    @property
    def active_sides(self) -> int:
        """How many sides are currently admitted (diagnostics)."""
        with self._lock:
            return len(self._active)

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool (for lifecycle tests and diagnostics)."""
        with self._lock:
            return [w.process.pid for w in self._workers if w.alive()]

    def _label(self) -> str:
        return f" {self.name!r}" if self.name else ""

    def _spawn_worker(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_service_worker,
            args=(child_conn, self._backend),
            daemon=True,
            name=f"repro-sjdec-{self.generation}-{index}",
        )
        with _FORK_SAFETY_MUTEX:
            process.start()
        child_conn.close()
        return _WorkerHandle(index, process, parent_conn)

    @staticmethod
    def _backend_fingerprint(backend: BilinearBackend) -> tuple:
        """What must match for pooled workers to be reusable: semantics,
        not object identity (backends are stateless but for op counters,
        which are per-process anyway)."""
        return (
            type(backend).__qualname__,
            backend.name,
            backend.order,
            getattr(backend, "use_fast_pairing", None),
        )

    def ensure_started(self, backend: BilinearBackend) -> None:
        """Start (or restart) the pool bound to ``backend``.

        The backend is shipped once, as each worker's spawn argument;
        asking for a semantically different backend restarts the pool,
        since the per-worker caches would be poisoned otherwise — but
        never while other sides are still executing on the old one.
        """
        with self._lock:
            if self._workers and (
                self._backend_fingerprint(self._backend)
                != self._backend_fingerprint(backend)
            ):
                if self._active:
                    raise QueryError(
                        "cannot switch the pool to a different backend "
                        f"while {len(self._active)} side(s) are active"
                    )
                self._stop_workers()
            if not self._workers:
                self._backend = backend
                self.generation += 1
                self._closed = False
                if self.use_shared_memory:
                    # Start the resource tracker *before* forking so
                    # workers inherit it instead of each spawning (and
                    # exiting with) a tracker of their own.
                    try:  # pragma: no cover - tracker internals
                        from multiprocessing import resource_tracker

                        resource_tracker.ensure_running()
                    except Exception:
                        pass
                self._workers = [
                    self._spawn_worker(i) for i in range(self.worker_target)
                ]
            else:
                self._respawn_dead_workers()

    def _respawn_dead_workers(self) -> None:
        """Replace workers that died while idle.  Replacements receive
        the installs of every active side, so in-flight queries keep
        working; their lost chunks are requeued by the poller."""
        for slot, worker in enumerate(self._workers):
            if not worker.alive():
                self._requeue_outstanding(worker)
                worker.conn.close()
                replacement = self._spawn_worker(worker.index)
                self._workers[slot] = replacement
                self.worker_restarts += 1
                self._install_active_sides(replacement)

    def _install_active_sides(self, worker: _WorkerHandle) -> None:
        for side in self._active.values():
            if side.released:
                continue
            try:
                worker.conn.send(side.install)
            except OSError:  # pragma: no cover - instant respawn death
                pass

    def close(self) -> None:
        """Stop the pool.  Idempotent; the service may be reused after."""
        with self._progress:
            if self._closed and not self._workers:
                return
            self._stop_workers()
            self._closed = True
            # Consumers blocked on in-flight sides must fail, not hang.
            for side in self._active.values():
                if not side.finished and side.error is None:
                    side.error = (
                        f"execution service{self._label()} was closed "
                        "mid-side"
                    )
            self._progress.notify_all()

    def _stop_workers(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()
            # Release the Process object's pidfd/sentinel immediately
            # rather than waiting for GC (keeps FD counts flat).
            if hasattr(worker.process, "close"):
                worker.process.close()
        self._workers = []

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
        max_workers: int | None = None,
        qos: QueryQoS | None = None,
    ) -> _SideState:
        """Register one side with the scheduler and start dispatching.

        Returns a side handle to pass to :meth:`stream_chunks` (and, on
        abnormal exits, :meth:`release_side` — releasing is idempotent
        and also happens automatically when the stream is drained).
        ``max_workers`` caps how many pooled workers this side may use
        concurrently (an engine configured narrower than the pool stays
        narrower); other sides are free to use the rest.  ``qos``
        attaches the owning query's priority and absolute deadline (see
        :class:`QueryQoS`).
        """
        if batch_size < 1:
            raise QueryError("batch size must be at least 1")
        if qos is None:
            qos = QueryQoS()
        # Transport preparation touches only local data; doing the
        # per-element encode and the shared-memory copy outside the
        # lock keeps a large admission from stalling the queries
        # already running on the pool.
        dimension = len(token_elements)
        n_rows = len(ciphertext_vectors)
        # Prepared sides ship raw G2 ciphertexts (the precomputation is
        # ~40x larger than the ciphertext); workers rebuild coefficients
        # lazily, keyed by row digest, like the fixed-base tables.
        prepared = n_rows > 0 and all(
            isinstance(row, PreparedRow) for row in ciphertext_vectors
        )
        encoded = self._encode_rows(backend, ciphertext_vectors, dimension)
        segment = self._create_segment(encoded)
        token_bytes = [backend.encode_g1(e) for e in token_elements]
        digest = hashlib.blake2b(
            b"".join(token_bytes), digest_size=16
        ).digest()
        pending: deque[tuple[int, int]] = deque(
            (start, min(batch_size, n_rows - start))
            for start in range(0, n_rows, batch_size)
        )
        try:
            with self._progress:
                self.ensure_started(backend)
                self.sides_executed += 1
                # A fresh admission gets a fresh no-progress rescue
                # breaker: the breaker exists to stop runaway respawn
                # loops within one pumping episode, not to poison later
                # queries after the environment recovered.
                self._rescues_since_progress = 0
                ctx_id = next(self._ctx_counter)
                install = (
                    "ctx", ctx_id, digest, token_bytes, dimension,
                    segment.name if segment is not None else None,
                    prepared,
                )
                limit = min(
                    max_workers if max_workers is not None
                    else self.worker_target,
                    len(self._workers),
                )
                side = _SideState(
                    ctx_id=ctx_id,
                    install=install,
                    segment=segment,
                    # Once the rows live in the segment the flat copy is
                    # dead weight; chunk messages only slice it on the
                    # no-shared-memory fallback path.
                    encoded=b"" if segment is not None else encoded,
                    stride=dimension * backend.g2_element_size,
                    pending=pending,
                    max_workers=max(1, limit),
                    allowed_workers=self._assign_workers(max(1, limit)),
                    rescue_budget=3 * max(1, len(self._workers)) + 5,
                    qos=qos,
                )
                side.report = SideReport(
                    chunks=side.n_chunks,
                    max_chunk=max((count for _, count in pending), default=0),
                    pool_generation=self.generation,
                    shared_memory=segment is not None,
                )

                if not self._install_everywhere(side):
                    raise QueryError(
                        "execution service has no reachable workers "
                        "after a restart"
                    )
                self._active[ctx_id] = side
                self._rr.append(ctx_id)
                peak = len(self._active)
                self.peak_concurrent_sides = max(
                    self.peak_concurrent_sides, peak
                )
                for active in self._active.values():
                    active.report.concurrent_sides = max(
                        active.report.concurrent_sides, peak
                    )
                self._fill_windows_locked()
                self._progress.notify_all()
        except BaseException:
            # The side never registered; free the segment created
            # outside the lock (release_side will never see it).
            if segment is not None:
                with _FORK_SAFETY_MUTEX:
                    segment.close()
                    try:
                        segment.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
            raise
        return side

    def _assign_workers(self, limit: int) -> frozenset[int]:
        """The worker indices this side may occupy.  Narrower-than-pool
        sides get a rotating slice so concurrent narrow sides spread
        over different workers instead of all camping on worker 0."""
        indices = [worker.index for worker in self._workers]
        if limit >= len(indices):
            return frozenset(indices)
        offset = self._admit_offset % len(indices)
        self._admit_offset += limit
        rotated = indices[offset:] + indices[:offset]
        return frozenset(rotated[:limit])

    def _install_everywhere(self, side: _SideState) -> bool:
        """Install the side's context on every live worker.  Installing
        beyond the side's allowed workers is deliberate: crash rescue
        may respawn any slot, and installs are a few hundred bytes."""
        for attempt in range(2):
            sent = 0
            for worker in self._workers:
                if not worker.alive():
                    continue
                try:
                    worker.conn.send(side.install)
                    sent += 1
                except OSError:
                    continue
            if sent:
                return True
            if attempt == 0:
                # Every worker was dead or unreachable at once; replace
                # the dead and retry once.
                self._respawn_dead_workers()
        return False

    # -- streaming --------------------------------------------------------
    def stream_chunks(
        self, side: _SideState
    ) -> Iterator[tuple[int, list[bytes]]]:
        """Yield ``(start_offset, handles)`` chunks as workers finish.

        Chunks arrive in completion order, not row order — callers that
        need row order sort by the start offset.
        Returns the side's :class:`SideReport` as the generator's value
        and releases the side's context on the way out.
        """
        try:
            while True:
                items, report = self._next_progress(side)
                for item in items:
                    yield item
                if report is not None:
                    return report
        finally:
            self.release_side(side)

    def _next_progress(
        self, side: _SideState
    ) -> tuple[list[tuple[int, list[bytes]]], SideReport | None]:
        """Block until ``side`` has new chunks, is finished, or failed.

        Exactly one consumer thread polls the worker pipes at a time
        (the ``_polling`` baton); everything it collects is routed to
        the owning sides, so the other consumers find their chunks
        ready the moment they re-check.
        """
        while True:
            with self._progress:
                if side.expired or side.qos.expired():
                    if not side.expired:
                        side.expired = True
                        side.pending.clear()
                    raise DeadlineError(
                        "query exceeded its deadline; side cancelled "
                        f"after {side.done_chunks}/{side.n_chunks} chunks"
                    )
                if side.error is not None:
                    raise QueryError(
                        f"pooled SJ.Dec side failed:\n{side.error}"
                    )
                if side.completed:
                    items = list(side.completed)
                    side.completed.clear()
                    return items, None
                if side.finished:
                    self._finalize_side_locked(side)
                    return [], side.report
                if not self._workers:
                    raise QueryError(
                        f"execution service{self._label()} was closed "
                        "while a side was executing"
                    )
                if self._polling:
                    self._progress.wait(timeout=0.1)
                    continue
                self._polling = True
                conns = [w.conn for w in self._workers if w.alive()]
            ready = []
            try:
                try:
                    ready = wait(conns, timeout=_POLL_TIMEOUT) if conns else []
                except (OSError, ValueError):
                    ready = []
            finally:
                with self._progress:
                    self._polling = False
                    try:
                        if ready:
                            self._process_ready_locked(ready)
                        else:
                            self._rescue_dead_locked()
                        self._fill_windows_locked()
                    finally:
                        self._progress.notify_all()

    def _finalize_side_locked(self, side: _SideState) -> None:
        side.report.workers_used = len(side.workers_ever)
        side.report.worker_restarts = self.worker_restarts

    def release_side(self, side: _SideState) -> None:
        """Retire a side: drop its context everywhere, free its segment.

        Idempotent, and safe mid-flight (abandoned sides simply stop
        being scheduled; results for released contexts are dropped).
        """
        with self._progress:
            if side.released:
                return
            side.released = True
            self._active.pop(side.ctx_id, None)
            try:
                self._rr.remove(side.ctx_id)
            except ValueError:
                pass
            for worker in self._workers:
                stale = [
                    key for key in worker.outstanding
                    if key[0] == side.ctx_id
                ]
                for key in stale:
                    worker.outstanding.pop(key, None)
                if worker.alive():
                    try:
                        worker.conn.send(("release", side.ctx_id))
                    except (OSError, ValueError):
                        pass
            self._cleanup_segment(side)
            side.report.worker_restarts = self.worker_restarts
            self._progress.notify_all()

    def _cleanup_segment(self, side: _SideState) -> None:
        if side.segment is not None:
            with _FORK_SAFETY_MUTEX:
                side.segment.close()
                try:
                    side.segment.unlink()
                except FileNotFoundError:  # pragma: no cover - double unlink
                    pass
            side.segment = None

    # -- scheduling internals (all require self._lock) --------------------
    def _encode_rows(self, backend, ciphertext_vectors, dimension) -> bytes:
        parts = []
        for row in ciphertext_vectors:
            if len(row) != dimension:
                raise QueryError(
                    f"ciphertext dimension {len(row)} != token dimension "
                    f"{dimension}"
                )
            # Prepared rows travel as their raw G2 elements; the worker
            # rebuilds (and caches) the precomputation on its side.
            elements = (
                row.elements if isinstance(row, PreparedRow) else row
            )
            for element in elements:
                parts.append(backend.encode_g2(element))
        return b"".join(parts)

    def _create_segment(self, encoded: bytes):
        if not self.use_shared_memory or not encoded:
            return None
        try:
            with _FORK_SAFETY_MUTEX:
                segment = _shared_memory.SharedMemory(
                    create=True, size=len(encoded)
                )
        except (OSError, ValueError):  # pragma: no cover - no /dev/shm
            self.use_shared_memory = False
            return None
        segment.buf[: len(encoded)] = encoded
        return segment

    def _chunk_message(self, side: _SideState, start: int, count: int):
        if side.segment is not None:
            payload = None
        else:
            # Zero-copy-ish fallback: one contiguous bytes slice per
            # chunk (pickled as a single buffer, not element by element).
            payload = side.encoded[
                start * side.stride:(start + count) * side.stride
            ]
        return ("chunk", side.ctx_id, start, count, payload)

    def _pick_side_locked(self, worker: _WorkerHandle) -> _SideState | None:
        """The next side whose chunk this worker should run: the
        highest-priority admitted side with pending work, round-robin
        within equal priorities, honoring per-side worker caps (a side
        may occupy a new worker only from its allowed set and only
        below its cap).  The chosen side moves to the back of the
        rotation so equal-priority sides keep interleaving fairly."""
        best: _SideState | None = None
        for _ in range(len(self._rr)):
            ctx_id = self._rr[0]
            self._rr.rotate(-1)
            side = self._active.get(ctx_id)
            if side is None or side.released or not side.pending:
                continue
            if side.error is not None or side.expired:
                continue
            eligible = worker.index in side.holding or (
                worker.index in side.allowed_workers
                and len(side.holding) < side.max_workers
            )
            if not eligible:
                continue
            if best is None or side.qos.priority > best.qos.priority:
                best = side
        if best is not None:
            # The full scan left the rotation where it started; demote
            # the winner explicitly so its equal-priority peers get the
            # next pick.
            try:
                self._rr.remove(best.ctx_id)
            except ValueError:  # pragma: no cover - released concurrently
                pass
            else:
                self._rr.append(best.ctx_id)
        return best

    def _cancel_expired_locked(self) -> None:
        """Cancel sides whose deadline lapsed: drop their pending chunks
        so no further work is dispatched, and wake their consumers (who
        then raise :class:`DeadlineError` and release the side)."""
        now = time.monotonic()
        expired_any = False
        for side in self._active.values():
            if side.expired or side.error is not None:
                continue
            if side.qos.expired(now):
                side.expired = True
                side.pending.clear()
                expired_any = True
        if expired_any:
            self._progress.notify_all()

    def _fill_windows_locked(self) -> None:
        if not self._active:
            return
        self._cancel_expired_locked()
        for worker in self._workers:
            if not worker.alive():
                continue
            while len(worker.outstanding) < _PREFETCH_PER_WORKER:
                side = self._pick_side_locked(worker)
                if side is None:
                    break
                start, count = side.pending.popleft()
                try:
                    worker.conn.send(self._chunk_message(side, start, count))
                except (OSError, ValueError):
                    side.pending.appendleft((start, count))
                    break
                worker.outstanding[(side.ctx_id, start)] = (
                    side.ctx_id, start, count,
                )
                side.holding[worker.index] = (
                    side.holding.get(worker.index, 0) + 1
                )
                side.workers_ever.add(worker.index)

    def _release_holding(self, side: _SideState, worker_index: int) -> None:
        count = side.holding.get(worker_index, 0) - 1
        if count > 0:
            side.holding[worker_index] = count
        else:
            side.holding.pop(worker_index, None)

    def _process_ready_locked(self, ready) -> None:
        for conn in ready:
            worker = next(
                (w for w in self._workers if w.conn is conn), None
            )
            if worker is None:
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._rescue_worker_locked(worker)
                continue
            kind = message[0]
            if kind == "done":
                (
                    _, ctx_id, start, handles, millers, fexps,
                    prepared_millers, preparations,
                ) = message
                if worker.outstanding.pop((ctx_id, start), None) is not None:
                    self._rescues_since_progress = 0
                side = self._active.get(ctx_id)
                if side is None or side.released:
                    continue
                self._release_holding(side, worker.index)
                if start in side.seen_starts:
                    # A rescue recomputed a chunk the original worker
                    # had already delivered; keep the first result.
                    continue
                side.seen_starts.add(start)
                side.done_chunks += 1
                side.completed.append((start, handles))
                side.report.miller_loops += millers
                side.report.final_exponentiations += fexps
                side.report.prepared_miller_loops += prepared_millers
                side.report.preparations += preparations
            elif kind == "error":
                _, ctx_id, start, trace = message
                worker.outstanding.pop((ctx_id, start), None)
                side = self._active.get(ctx_id)
                if side is None or side.released:
                    continue
                self._release_holding(side, worker.index)
                side.error = trace

    def _rescue_dead_locked(self) -> None:
        for worker in list(self._workers):
            if not worker.alive():
                self._rescue_worker_locked(worker)

    def _requeue_outstanding(self, worker: _WorkerHandle) -> set:
        """Requeue a dead worker's chunks to their sides; returns the
        sides affected."""
        affected = set()
        for ctx_id, start, count in list(worker.outstanding.values()):
            side = self._active.get(ctx_id)
            if side is None or side.released:
                continue
            self._release_holding(side, worker.index)
            if start not in side.seen_starts:
                side.pending.appendleft((start, count))
            affected.add(side)
        worker.outstanding.clear()
        return affected

    def _rescue_worker_locked(self, worker: _WorkerHandle) -> None:
        """Replace a dead worker, requeue its chunks, reinstall every
        active side's context on the replacement."""
        affected = self._requeue_outstanding(worker)
        for side in affected:
            side.rescue_budget -= 1
            if side.rescue_budget < 0 and side.error is None:
                side.error = (
                    f"execution-service{self._label()} workers keep dying "
                    f"(restarted {self.worker_restarts} total); "
                    "refusing to respawn further for this side"
                )
        # A worker dying with no chunks decrements no side budget; the
        # progress-free rescue counter stops deterministic spawn deaths
        # (bad environment, unpicklable backend) from forking forever.
        self._rescues_since_progress += 1
        if self._rescues_since_progress > 3 * self.worker_target + 5:
            for side in self._active.values():
                if side.error is None:
                    side.error = (
                        "execution-service workers keep dying before "
                        "making progress; refusing to respawn further"
                    )
            # No replacement: leave the slot dead (the next admission's
            # ensure_started respawns it) but release its pipe now.
            worker.conn.close()
            return
        worker.conn.close()
        slot = self._workers.index(worker)
        replacement = self._spawn_worker(worker.index)
        self._workers[slot] = replacement
        self.worker_restarts += 1
        self._install_active_sides(replacement)
