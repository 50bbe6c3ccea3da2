"""The SIM-security simulator of Definition 5.2.

Theorem 5.2's proof constructs a simulator that, given only the trace
``tau(H) = (n, m, sigma(q_1), ..., sigma(q_mu))`` — table sizes and the
per-query equality-pair sets — produces an adversary view that is
computationally indistinguishable from the real server's.  This module
implements that simulator concretely: it fabricates per-query handles
whose equality pattern is exactly the one prescribed by the trace, with
everything else uniformly random.

The accompanying test (`tests/test_simulator.py`) checks the central
consequence: the *match structure* of the simulated view equals the
match structure of the real scheme's view on every query series — i.e.
the real scheme leaks nothing beyond the trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.baselines.api import Pair, RowRef
from repro.leakage.pairs import connected_components


@dataclass
class SimulatedView:
    """The simulator's output for one query: rowref -> handle bytes."""

    query_id: int
    handles: dict[RowRef, bytes] = field(default_factory=dict)

    def match_classes(self) -> set[frozenset[RowRef]]:
        """Equivalence classes of rows with equal handles (size >= 2)."""
        groups: dict[bytes, list[RowRef]] = {}
        for ref, handle in self.handles.items():
            groups.setdefault(handle, []).append(ref)
        return {
            frozenset(refs) for refs in groups.values() if len(refs) >= 2
        }


class TraceSimulator:
    """Build adversary views from a trace alone (no plaintext access).

    For each query the simulator receives the decrypted row set and the
    equality pairs ``sigma(q_i)`` among them.  It groups rows into
    equality classes (connected components of the pair graph), assigns
    one fresh random handle per class, and fresh random handles to all
    unpaired rows.  Handles are never reused across queries — mirroring
    the fresh query key k of the real scheme.
    """

    def __init__(self, handle_bytes: int = 32, rng: random.Random | None = None):
        self._handle_bytes = handle_bytes
        self._rng = rng if rng is not None else random.Random()
        self._used: set[bytes] = set()

    def _fresh_handle(self) -> bytes:
        while True:
            handle = self._rng.getrandbits(8 * self._handle_bytes).to_bytes(
                self._handle_bytes, "big"
            )
            if handle not in self._used:
                self._used.add(handle)
                return handle

    def simulate_query(
        self,
        query_id: int,
        decrypted_rows: list[RowRef],
        equality_pairs: set[Pair],
    ) -> SimulatedView:
        """One query's simulated view from ``sigma(q_i)``."""
        view = SimulatedView(query_id)
        for component in connected_components(decrypted_rows, equality_pairs):
            handle = self._fresh_handle()
            for ref in component:
                view.handles[ref] = handle
        return view

    def simulate_series(
        self,
        per_query_rows: list[list[RowRef]],
        per_query_pairs: list[set[Pair]],
    ) -> list[SimulatedView]:
        """Simulate a whole query series from the trace."""
        return [
            self.simulate_query(i + 1, rows, pairs)
            for i, (rows, pairs) in enumerate(
                zip(per_query_rows, per_query_pairs)
            )
        ]
