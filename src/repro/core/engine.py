"""Execution engines: how the server turns ciphertexts into handles.

SJ.Dec over a candidate side is the server's hot path — one product of
pairings per row.  A server has one engine, fixed where it is built
(``SecureJoinServer(engine=…)`` / ``LocalShard(engine=…)`` /
``python -m repro.net --engine``), and every query it serves runs on it:

- :class:`BatchedEngine` (the default) — groups rows into chunks and
  issues each chunk through
  :meth:`~repro.crypto.backend.BilinearBackend.pair_vectors_batch`, so
  every row costs d Miller loops but only *one* shared final
  exponentiation — the multi-pairing optimization applied to the join.
- :class:`ParallelEngine` — fans the chunks out across a *persistent*
  worker pool (:class:`~repro.core.service.ExecutionService`): workers
  are forked lazily, survive across queries and cache the backend and
  decoded tokens; the pool's width is the owning server's ``workers``.
- :class:`AutoEngine` — the cost-model planner: per side, estimates
  the batched and the pooled run from the candidate count, the scheme
  dimension and per-operation timings (:mod:`repro.plan.cost`), and
  fans out only when the pool wins by the model's margin.

The naive product of pairings the ablations measure these against is
not a runtime name: :class:`repro.baselines.SerialEngine` is an
:class:`ExecutionEngine` an ablation hands to the server it builds.

The interface is :meth:`ExecutionEngine.decrypt_stream`: a
:class:`HandleStream` of :class:`HandleChunk` batches emitted *as they
are decrypted* (pooled engines emit them in completion order), so the
matcher can start pairing while SJ.Dec is still running.
:meth:`decrypt_handles` is the materializing wrapper — it drains the
stream and reassembles row order.

All engines produce byte-identical handles: the final exponentiation is
a group homomorphism, so the per-pair product equals the shared-exponent
multi-pairing, and the fast backend's modular arithmetic agrees by
construction.  Engines report their work in an :class:`EngineReport`
that the server merges into :class:`~repro.core.server.ServerStats`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.service import ExecutionService, QueryQoS
from repro.crypto.backend import BilinearBackend, PreparedRow
from repro.errors import DeadlineError, QueryError
from repro.plan.cost import choose_engine, default_engine_cost_model

#: Rows per chunk when a batching engine is built without an explicit size.
DEFAULT_BATCH_SIZE = 64


@dataclass
class EngineReport:
    """What one engine invocation did, for ``ServerStats`` accounting.

    ``selected`` is the engine that actually executed the side — it
    differs from ``engine`` only for the planner (``engine`` stays
    ``"auto"``, ``selected`` records its choice).  ``planner`` carries
    the planner's inputs, cost estimates and observed runtime for that
    side; ``pool_generation`` / ``worker_restarts`` /
    ``concurrent_sides`` surface the persistent pool's lifecycle and
    admission state when the side ran through it.
    """

    engine: str
    batches: int = 0
    max_batch_size: int = 0
    workers: int = 1
    miller_loops: int = 0
    final_exponentiations: int = 0
    prepared_miller_loops: int = 0
    preparations: int = 0
    selected: str = ""
    planner: dict | None = None
    pool_generation: int = 0
    worker_restarts: int = 0
    concurrent_sides: int = 0


@dataclass
class HandleChunk:
    """One decrypted chunk: handles for rows ``start .. start+len-1``
    of the side's candidate order."""

    start: int
    handles: list[bytes] = field(default_factory=list)


class HandleStream:
    """An iterator of :class:`HandleChunk` with a deferred report.

    Wraps the engine's generator; ``report`` becomes available once the
    stream is exhausted (the generator returns it).  ``close()`` aborts
    the stream and runs the engine's cleanup — pipelines must close the
    streams they abandon so pooled sides release their contexts.
    """

    def __init__(self, generator, on_close=None):
        self._generator = generator
        self._on_close = on_close
        self._cleaned = False
        self.report: EngineReport | None = None

    def __iter__(self) -> "HandleStream":
        return self

    def __next__(self) -> HandleChunk:
        try:
            return next(self._generator)
        except StopIteration as stop:
            if self.report is None:
                self.report = stop.value
            self._cleanup()
            raise StopIteration from None
        except BaseException:
            self._cleanup()
            raise

    def close(self) -> None:
        self._generator.close()
        self._cleanup()

    def _cleanup(self) -> None:
        if not self._cleaned:
            self._cleaned = True
            if self._on_close is not None:
                self._on_close()


class ExecutionEngine(ABC):
    """Strategy for decrypting one side's candidate rows into handles."""

    name: str

    @abstractmethod
    def decrypt_stream(
        self,
        backend: BilinearBackend,
        token_elements: Sequence,
        ciphertext_vectors: Sequence[Sequence],
        qos: QueryQoS | None = None,
    ) -> HandleStream:
        """A stream of decrypted chunks for the side, in completion order.

        ``qos`` carries the owning query's priority and absolute
        deadline: pooled engines thread it into the admission scheduler
        (dispatch preference / mid-flight cancellation), inline engines
        check the deadline between chunks and raise
        :class:`~repro.errors.DeadlineError` once it lapses.
        """

    def decrypt_handles(
        self,
        backend: BilinearBackend,
        token_elements: Sequence,
        ciphertext_vectors: Sequence[Sequence],
        qos: QueryQoS | None = None,
    ) -> tuple[list[bytes], EngineReport]:
        """Handles (canonical bytes) for each ciphertext vector, in order.

        The materializing wrapper around :meth:`decrypt_stream`: drains
        the stream and reassembles row order from the chunk offsets.
        """
        stream = self.decrypt_stream(
            backend, token_elements, ciphertext_vectors, qos=qos
        )
        chunks: dict[int, list[bytes]] = {}
        for chunk in stream:
            chunks[chunk.start] = chunk.handles
        handles = [
            handle for start in sorted(chunks) for handle in chunks[start]
        ]
        return handles, stream.report


def _chunked(items: Sequence, size: int) -> list[tuple[int, Sequence]]:
    """``(start_offset, slice)`` chunks covering ``items`` in order."""
    return [(i, items[i : i + size]) for i in range(0, len(items), size)]


class BatchedEngine(ExecutionEngine):
    """Chunked multi-pairing decryption with shared final exponentiations."""

    name = "batched"

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE):
        if batch_size < 1:
            raise QueryError("batch size must be at least 1")
        self.batch_size = batch_size

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        def run():
            chunks = _chunked(ciphertext_vectors, self.batch_size)
            miller_loops = 0
            final_exponentiations = 0
            prepared_miller_loops = 0
            for start, chunk in chunks:
                if qos is not None and qos.expired():
                    raise DeadlineError(
                        "query exceeded its deadline; batched side "
                        f"cancelled at row {start}"
                    )
                snapshot = backend.ops.snapshot()
                gts = backend.pair_vectors_batch(token_elements, chunk)
                delta = backend.ops.since(snapshot)
                miller_loops += delta.miller_loops
                final_exponentiations += delta.final_exponentiations
                prepared_miller_loops += delta.prepared_miller_loops
                yield HandleChunk(start, [gt.to_bytes() for gt in gts])
            return EngineReport(
                engine=self.name,
                batches=len(chunks),
                max_batch_size=max((len(c) for _, c in chunks), default=0),
                workers=1,
                miller_loops=miller_loops,
                final_exponentiations=final_exponentiations,
                prepared_miller_loops=prepared_miller_loops,
            )

        return HandleStream(run())


class ParallelEngine(ExecutionEngine):
    """Batched decryption fanned out over a *persistent* worker pool.

    Sides with at most one chunk's worth of rows run inline (even a
    warm pool costs IPC); larger sides are **admitted** to an
    :class:`~repro.core.service.ExecutionService` — lazily started the
    first time it is needed and shared by every concurrently admitted
    side — and their chunks stream back in completion order.  A server
    binds its own service via :meth:`bind_service`, and the pool's
    width is that server's ``workers``: the engine has none of its own.
    An engine no pool was ever bound to runs every side inline.
    """

    name = "parallel"

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE // 2,
        service: ExecutionService | None = None,
    ):
        if batch_size < 1:
            raise QueryError("batch size must be at least 1")
        self.batch_size = batch_size
        self._inline = BatchedEngine(batch_size)
        self._service = service

    def effective_workers(self) -> int:
        """Workers a side would actually get: the width of the pool the
        engine is bound to — one, unbound."""
        if self._service is None:
            return 1
        return self._service.worker_target

    def pool_warm(self) -> bool:
        """Whether a pooled side would find its workers already forked."""
        return self._service is not None and self._service.started

    def bind_service(self, service: ExecutionService) -> None:
        """Attach the pool this engine should use.

        A no-op while the engine is bound to a *live* pool, so a shared
        service keeps winning; but a bound pool whose owner closed it is
        abandoned in favor of the new one — reusing an engine with a
        second server must not resurrect the first server's pool.
        """
        if self._service is None or (
            self._service is not service and self._service.closed
        ):
            self._service = service

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        service = self._service
        if service is None or len(ciphertext_vectors) <= self.batch_size:
            inline = self._inline.decrypt_stream(
                backend, token_elements, ciphertext_vectors, qos=qos
            )

            def run_inline():
                for chunk in inline:
                    yield chunk
                report = inline.report
                report.engine = self.name
                return report

            return HandleStream(run_inline(), on_close=inline.close)

        side = service.admit_side(
            backend,
            token_elements,
            ciphertext_vectors,
            self.batch_size,
            qos=qos,
        )

        def run_pooled():
            stream = service.stream_chunks(side)
            side_report = None
            try:
                while True:
                    try:
                        start, handles = next(stream)
                    except StopIteration as stop:
                        side_report = stop.value
                        break
                    yield HandleChunk(start, handles)
            finally:
                service.release_side(side)
            return EngineReport(
                engine=self.name,
                batches=side_report.chunks,
                max_batch_size=side_report.max_chunk,
                workers=side_report.workers_used,
                miller_loops=side_report.ops.miller_loops,
                final_exponentiations=side_report.ops.final_exponentiations,
                prepared_miller_loops=side_report.ops.prepared_miller_loops,
                preparations=side_report.ops.preparations,
                pool_generation=side_report.pool_generation,
                worker_restarts=side_report.worker_restarts,
                concurrent_sides=side_report.concurrent_sides,
            )

        # on_close covers the abandoned-before-started case (the
        # generator's finally only runs once the generator has run).
        return HandleStream(
            run_pooled(), on_close=lambda: service.release_side(side)
        )


class AutoEngine(ExecutionEngine):
    """The cost-model planner: per side, fan out only when it pays.

    For every candidate side the planner estimates the batched and the
    pooled run from the candidate count, the scheme dimension and a
    per-operation cost model (:mod:`repro.plan.cost` — the backend's
    built-in model, or a calibrated/custom ``cost_model``), and runs the
    side on the pool only when ``parallel`` beats ``batched`` by the
    model's margin — so ``auto`` never trades a sure thing for pool
    overhead.  Inputs, both estimates, the choice and the side's
    *observed* seconds are recorded in the report, so ``ServerStats``
    (and the wire format) show predicted against actual for every side.
    The model is fixed for the engine's lifetime: an operator corrects
    it by calibrating offline (``python -m repro.bench
    --calibrate-out``), not by the planner watching itself.
    """

    name = "auto"

    def __init__(
        self,
        cost_model=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        service: ExecutionService | None = None,
    ):
        self.cost_model = cost_model
        self.batch_size = batch_size
        self._inline = BatchedEngine(batch_size)
        self._pooled = ParallelEngine(
            batch_size=max(1, batch_size // 2), service=service
        )

    def bind_service(self, service: ExecutionService) -> None:
        self._pooled.bind_service(service)

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        pooled = self._pooled
        pool_warm = pooled.pool_warm()
        # Price the pool the side would *actually* get: the bound
        # service's width.
        workers = pooled.effective_workers()
        # A prepared (warm) table replays stored line coefficients
        # instead of running full Miller loops, so price the side with
        # the model's prepared constant.
        prepared_rows = bool(ciphertext_vectors) and all(
            isinstance(row, PreparedRow) for row in ciphertext_vectors
        )
        choice, estimates = choose_engine(
            self.cost_model or default_engine_cost_model(backend.name),
            rows=len(ciphertext_vectors),
            dimension=len(token_elements),
            workers=workers,
            batch_size=self.batch_size,
            parallel_batch_size=pooled.batch_size,
            pool_warm=pool_warm,
            prepared=prepared_rows,
        )
        engine = pooled if choice == pooled.name else self._inline
        inner = engine.decrypt_stream(
            backend, token_elements, ciphertext_vectors, qos=qos
        )

        def run():
            # Accrue only the time this stream spends producing its own
            # chunks (resume-to-yield).  The pipeline interleaves both
            # sides' streams, so wall-clock from open to exhaustion
            # would charge each side with the other side's work too and
            # read about twice the estimate it is recorded beside.
            elapsed = 0.0
            while True:
                resumed = time.perf_counter()
                try:
                    chunk = next(inner)
                except StopIteration:
                    elapsed += time.perf_counter() - resumed
                    break
                elapsed += time.perf_counter() - resumed
                yield chunk
            report = inner.report
            report.engine = self.name
            report.selected = choice
            report.planner = {
                "rows": len(ciphertext_vectors),
                "dimension": len(token_elements),
                "workers": workers,
                "pool_warm": pool_warm,
                "prepared_rows": prepared_rows,
                "prepared_miller_loops": report.prepared_miller_loops,
                "chosen": choice,
                "estimates": {
                    name: float(sec) for name, sec in estimates.items()
                },
                "actual_seconds": elapsed,
            }
            return report

        return HandleStream(run(), on_close=inner.close)


_ENGINE_FACTORIES = {
    BatchedEngine.name: BatchedEngine,
    ParallelEngine.name: ParallelEngine,
    AutoEngine.name: AutoEngine,
}

ENGINE_NAMES = tuple(_ENGINE_FACTORIES)


#: The default engine: one shared final exponentiation per row, plus
#: chunking; ``auto`` (the planner) is opt-in until its models are
#: calibrated on the operator's hardware.
DEFAULT_ENGINE_NAME = BatchedEngine.name


def get_engine(
    engine: ExecutionEngine | str | None,
    service: ExecutionService | None = None,
) -> ExecutionEngine:
    """Resolve an engine choice: an instance, a name, or None (batched).

    ``service`` (when given) is bound to pool-using engines — the
    server passes its own persistent service here so every engine it
    resolves shares one pool.
    """
    if engine is None:
        resolved: ExecutionEngine = BatchedEngine()
    elif isinstance(engine, ExecutionEngine):
        resolved = engine
    else:
        factory = _ENGINE_FACTORIES.get(engine)
        if factory is None:
            raise QueryError(
                f"unknown execution engine {engine!r}; "
                f"use one of {ENGINE_NAMES}"
            )
        resolved = factory()
    if service is not None and hasattr(resolved, "bind_service"):
        resolved.bind_service(service)
    return resolved
