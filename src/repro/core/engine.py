"""The execution engine: how the server turns ciphertexts into handles.

SJ.Dec over a candidate side is the server's hot path — one product of
pairings per row, each row independent of the others.  A server has one
engine, :class:`BatchedEngine`: it issues a side's rows in chunks
through :meth:`~repro.crypto.backend.BilinearBackend.pair_vectors_batch`,
which returns the rows' handle bytes, so every row costs d Miller loops
but only *one* shared final exponentiation.  On the fast backend a row
is one inner product mod q, with those op counts modelled (added once
per chunk).  The chunks ramp
1, 2, 4, … rows up to the chunk size
(:func:`~repro.core.service.chunk_spans`, the one place a side is cut,
inline and on the pool alike), so a side's first handle — and a join's
first match — waits for one row, not a whole chunk.  A side goes to
the process's pool for its backend and width
(:func:`~repro.core.service.process_pool`) iff
:func:`~repro.crypto.backend.goes_to_pool` sends it there, on the
backend's SJ.Dec row floor: never on the fast backend, from two rows on
BN254.  The server's ``workers`` is the one execution setting, the
pool's width, by default the CPUs the process may run on
(:func:`~repro.core.service.default_width`).  ``engine=`` on the server
takes an :class:`ExecutionEngine` instance: how an ablation's naive
baseline (:class:`repro.baselines.SerialEngine`) gets in.

The interface is :meth:`ExecutionEngine.decrypt_stream`: a
:class:`HandleStream` of :class:`HandleChunk` batches emitted *as they
are decrypted* (a pooled side emits them in completion order), so the
matcher can start pairing while SJ.Dec is still running.
:meth:`decrypt_handles` is the materializing wrapper — it drains the
stream and reassembles row order.

Inline, pooled and serial sides produce byte-identical handles: the
final exponentiation is a group homomorphism, so the per-pair product
equals the shared-exponent multi-pairing, and the fast backend's modular
arithmetic agrees by construction.  Engines report their work in an
:class:`EngineReport` that the server merges into
:class:`~repro.core.server.ServerStats`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.service import (
    ExecutionService,
    QueryQoS,
    chunk_spans,
    max_span,
)
from repro.crypto.backend import SJ_DEC, BilinearBackend, goes_to_pool
from repro.errors import DeadlineError, QueryError

#: The largest inline chunk when a batching engine is built without an
#: explicit size (a pooled chunk is at most half of it).  Not every
#: chunk's size: a side's chunks ramp 1, 2, 4, … rows up to it
#: (:func:`~repro.core.service.chunk_spans`).
DEFAULT_BATCH_SIZE = 64


@dataclass
class EngineReport:
    """What one engine invocation did, for ``ServerStats`` accounting.

    ``selected`` is ``"parallel"`` for a side that ran on the pool, and
    empty for one that ran inline.
    ``planner`` is always ``None``: the scatter-final frame still
    carries the slot, so a report encodes as it did.
    ``pool_generation`` / ``worker_restarts`` / ``concurrent_sides``
    surface the persistent pool's lifecycle and admission state when the
    side ran through it.
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

        ``ciphertext_vectors`` is the side as its store lends it: its
        length, fixed when the stream opens, is the side's, and it is
        read by slices.  A pre-filtered side's view gathers a slice when
        it is asked for, so an engine reads each chunk's vectors once.

        ``qos`` carries the owning query's priority and absolute
        deadline: a pooled side threads it into the admission scheduler
        (dispatch preference / mid-flight cancellation), an inline side
        checks the deadline between chunks and raises
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


class BatchedEngine(ExecutionEngine):
    """Chunked multi-pairing decryption with shared final exponentiations,
    on the process's worker pool from the backend's SJ.Dec row floor.

    A side runs inline, or on the pool (the one its server bound with
    :meth:`bind_service` — the engine has no width of its own), in the
    chunks :func:`~repro.core.service.chunk_spans` cuts: 1, 2, 4, … rows
    up to ``batch_size`` inline, or up to ``batch_size // 2`` on the
    pool, where no chunk also exceeds the rows left ÷ the pool's width.
    So a side's first handles leave after one row.
    """

    name = "batched"

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE):
        if batch_size < 1:
            raise QueryError("batch size must be at least 1")
        self.batch_size = batch_size
        self._pooled_chunk = max(1, batch_size // 2)
        self._service: ExecutionService | None = None

    def bind_service(self, service: ExecutionService) -> None:
        """Attach the pool this engine should use; the first one wins (a
        closed pool restarts on its next side)."""
        if self._service is None:
            self._service = service

    def pool_floors(self, backend: BilinearBackend) -> dict:
        """The floors :func:`~repro.crypto.backend.goes_to_pool` reads
        for this engine's sides: the backend's."""
        return backend.pool_floors

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        service = self._service
        rows = len(ciphertext_vectors)
        # An inline side is cut now: rows a store appends to a list it
        # lent are past the side's end.
        if service is None or not goes_to_pool(
            self.pool_floors(backend), SJ_DEC, rows, service.worker_target
        ):
            return HandleStream(self._inline(
                backend, token_elements, ciphertext_vectors, rows, qos
            ))
        side = service.admit_side(
            backend,
            token_elements,
            ciphertext_vectors,
            self._pooled_chunk,
            qos=qos,
        )
        # on_close covers the abandoned-before-started case (the
        # generator's finally only runs once the generator has run).
        return HandleStream(
            self._pooled(service, side),
            on_close=lambda: service.release_side(side),
        )

    def _inline(self, backend, token_elements, ciphertext_vectors, rows, qos):
        spans = chunk_spans(rows, self.batch_size)
        miller_loops = 0
        final_exponentiations = 0
        prepared_miller_loops = 0
        for start, stop in spans:
            if qos is not None and qos.expired():
                raise DeadlineError(
                    "query exceeded its deadline; batched side "
                    f"cancelled at row {start}"
                )
            snapshot = backend.ops.snapshot()
            handles = backend.pair_vectors_batch(
                token_elements, ciphertext_vectors[start:stop]
            )
            delta = backend.ops.since(snapshot)
            miller_loops += delta.miller_loops
            final_exponentiations += delta.final_exponentiations
            prepared_miller_loops += delta.prepared_miller_loops
            yield HandleChunk(start, handles)
        return EngineReport(
            engine=self.name,
            batches=len(spans),
            max_batch_size=max_span(spans),
            workers=1,
            miller_loops=miller_loops,
            final_exponentiations=final_exponentiations,
            prepared_miller_loops=prepared_miller_loops,
        )

    def _pooled(self, service, side):
        stream = service.stream_chunks(side)
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
            selected="parallel",
            pool_generation=side_report.pool_generation,
            worker_restarts=side_report.worker_restarts,
            concurrent_sides=side_report.concurrent_sides,
        )
