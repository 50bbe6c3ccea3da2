"""The naive product of pairings: SJ.Dec one pairing at a time.

The baseline the engine ablation measures the runtime's one engine
against (:class:`~repro.core.engine.BatchedEngine`): one *full pairing
per vector component* — d Miller loops and d final exponentiations per
row — combined in GT.  It is an
:class:`~repro.core.engine.ExecutionEngine`, so an ablation builds its
naive server with ``SecureJoinServer(params, engine=SerialEngine())``.
"""

from __future__ import annotations

from repro.core.engine import (
    EngineReport,
    ExecutionEngine,
    HandleChunk,
    HandleStream,
)
from repro.errors import DeadlineError


class SerialEngine(ExecutionEngine):
    """One full pairing per vector component, one row at a time.

    Every component pair costs a Miller loop *and* a final
    exponentiation; the GT partial products are combined with the group
    operation.  On the fast backend the arithmetic (and therefore the
    handle bytes) is identical to the batched path — only the modeled
    operation counts differ.  Streams one chunk per row.
    """

    name = "serial"

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        # The side's end is fixed here: rows a store appends to a list
        # it lent are not this side's.
        rows = len(ciphertext_vectors)

        def run():
            miller_loops = 0
            final_exponentiations = 0
            prepared_miller_loops = 0
            for offset in range(rows):
                ciphertext = ciphertext_vectors[offset]
                if qos is not None and qos.expired():
                    raise DeadlineError(
                        "query exceeded its deadline; serial side "
                        f"cancelled at row {offset}"
                    )
                # Per-chunk op accounting: interleaved streams share the
                # backend's process-wide counters, so a start-to-end
                # snapshot would absorb the other side's work.  This is
                # exact for one thread; concurrent inline queries on one
                # backend can still misattribute ops across threads
                # (stats only — pooled sides count in their workers).
                snapshot = backend.ops.snapshot()
                accumulator = backend.gt_identity()
                for g1, g2 in zip(token_elements, ciphertext):
                    accumulator = backend.gt_mul(
                        accumulator, backend.pair(g1, g2)
                    )
                delta = backend.ops.since(snapshot)
                miller_loops += delta.miller_loops
                final_exponentiations += delta.final_exponentiations
                prepared_miller_loops += delta.prepared_miller_loops
                yield HandleChunk(offset, [accumulator.to_bytes()])
            return EngineReport(
                engine=self.name,
                batches=rows,
                max_batch_size=1 if rows else 0,
                workers=1,
                miller_loops=miller_loops,
                final_exponentiations=final_exponentiations,
                prepared_miller_loops=prepared_miller_loops,
            )

        return HandleStream(run())
