"""A linear cost model for the encrypted join, and paper-scale extrapolation.

The server-side join cost decomposes as

    runtime = c_dec * decryptions + c_match * matches + c_0

(:func:`fit_join_cost` recovers the coefficients from Figure 3/4-style
measurements by least squares).  Because ``decryptions`` is determined
analytically by the workload — ``s * (|Customers| + |Orders|)`` with
pre-filtering — the same model predicts what the runtime *would be* on
hardware with a different per-decryption cost.  That is how
EXPERIMENTS.md bridges our fast-backend numbers to the paper's C/BN254
numbers: the per-decryption cost implied by the paper's Figure 3
(runtime / analytic decryption count, ~21.3 ms) equals the paper's own
Figure 2 decryption time (21.2 ms at t=1), and one constant explains
all four reported Figure 3 corner points to < 1% relative error.

The per-backend :class:`EngineCostModel` (a row's Miller loops, final
exponentiation and overhead) lives here too, beside its one reader,
:func:`estimate_scatter_costs`; ``perfbench/workloads.py`` imports
:func:`default_engine_cost_model` from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import BenchmarkRecord
from repro.errors import BenchmarkError

# TPC-H row counts per unit scale factor.
_CUSTOMERS_PER_SF = 150_000
_ORDERS_PER_SF = 1_500_000


@dataclass(frozen=True)
class CostModel:
    """``runtime = per_decryption * D + per_match * M + fixed`` (seconds)."""

    per_decryption: float
    per_match: float
    fixed: float
    residual: float

    def predict(self, decryptions: int, matches: int = 0) -> float:
        return (
            self.per_decryption * decryptions
            + self.per_match * matches
            + self.fixed
        )


def fit_join_cost(records: list[BenchmarkRecord]) -> CostModel:
    """Least-squares fit over records carrying decryptions/matches extras."""
    # numpy is a dev-only dependency; importing it lazily keeps the
    # rest of this module (``python -m repro.bench``) usable in a bare
    # install that never fits measurement series.
    import numpy as np

    rows = [
        r for r in records
        if "decryptions" in r.extra and "matches" in r.extra
    ]
    if len(rows) < 3:
        raise BenchmarkError(
            "need at least three measurements with decryptions/matches to fit"
        )
    features = np.array(
        [[r.extra["decryptions"], r.extra["matches"], 1.0] for r in rows]
    )
    times = np.array([r.seconds_mean for r in rows])
    solution, residuals, _, _ = np.linalg.lstsq(features, times, rcond=None)
    residual = float(residuals[0]) if len(residuals) else 0.0
    return CostModel(
        per_decryption=float(solution[0]),
        per_match=float(solution[1]),
        fixed=float(solution[2]),
        residual=residual,
    )


def expected_decryptions(scale_factor: float, selectivity: float) -> int:
    """Rows the server decrypts with pre-filtering: ``s * (n_C + n_O)``."""
    customers = round(_CUSTOMERS_PER_SF * scale_factor)
    orders = round(_ORDERS_PER_SF * scale_factor)
    return round(selectivity * customers) + round(selectivity * orders)


def predict_with_unit_cost(
    per_decryption_seconds: float,
    scale_factor: float,
    selectivity: float,
) -> float:
    """Analytic join-runtime prediction for a given per-decryption cost.

    With a cryptography-dominated profile (the paper's regime: ~ms per
    pairing decryption) the fixed and per-match terms are negligible, so
    ``runtime ~= c_dec * s * (n_C + n_O)``.
    """
    return per_decryption_seconds * expected_decryptions(
        scale_factor, selectivity
    )


# Figure 3's reported corner points (seconds) for the shape check:
# (scale factor, selectivity) -> runtime reported by the paper.
PAPER_FIGURE3_POINTS = {
    (0.01, 1 / 100): 3.52,
    (0.1, 1 / 100): 35.34,
    (0.01, 1 / 12.5): 27.88,
    (0.1, 1 / 12.5): 282.49,
}


def implied_paper_unit_cost() -> float:
    """The per-decryption cost implied by the paper's Figure 3 numbers.

    Averaging runtime / decryptions over the four reported corner points
    gives the effective per-row cost of the authors' testbed (~21.3 ms, matching their Figure 2).
    """
    costs = [
        runtime / expected_decryptions(scale_factor, selectivity)
        for (scale_factor, selectivity), runtime in PAPER_FIGURE3_POINTS.items()
    ]
    return sum(costs) / len(costs)


# -- the per-backend pairing model and the scatter estimate ---------------
# The runtime prices nothing: the pool-or-inline rule is the backend's
# ``pool_pays`` and a chain's order is a rule on candidate counts
# (:func:`repro.plan.compile_plan`).  These constants are read only by
# the scatter estimate reported beside a measured shard series.


@dataclass(frozen=True)
class EngineCostModel:
    """Per-operation timings (seconds) of one backend's SJ.Dec.

    One row costs ``d`` Miller loops (``miller_loop``), one shared
    final exponentiation (``final_exponentiation``) and
    ``row_overhead`` (:func:`estimate_scatter_costs`).
    """

    backend: str
    miller_loop: float
    final_exponentiation: float
    row_overhead: float


#: Defaults measured on the fast (exponent-group) backend: a pairing is
#: a handful of modular multiplications.
FAST_ENGINE_COSTS = EngineCostModel(
    backend="fast",
    miller_loop=3.5e-7,
    final_exponentiation=1.5e-6,
    row_overhead=1.5e-6,
)

#: Defaults for the pure-Python BN254 pairing, measured on the chunk
#: kernel (dimension 8, 24 rows in one chunk, one 2-vCPU box at the
#: faster of its two speeds).
BN254_ENGINE_COSTS = EngineCostModel(
    backend="bn254",
    # One pair's share of a chunk's simultaneous loop: 88 line products
    # and its twist steps, the inversions shared by the whole chunk.
    miller_loop=1.9e-3,
    # Solved from serial minus batched, so it also carries the
    # squarings and inversions a lone pairing does not get to share.
    final_exponentiation=7.5e-3,
    row_overhead=1.5e-6,
)

_DEFAULT_ENGINE_COSTS = {
    "fast": FAST_ENGINE_COSTS,
    "bn254": BN254_ENGINE_COSTS,
}


def default_engine_cost_model(backend_name: str) -> EngineCostModel:
    """The built-in cost model for a backend (fast-backend shape if unknown)."""
    return _DEFAULT_ENGINE_COSTS.get(backend_name, FAST_ENGINE_COSTS)


#: Per-shard coordination cost of a scatter-gather join (seconds):
#: admitting the query on one more shard's pool and merging its chunk
#: stream.
SHARD_DISPATCH = 5e-4


def estimate_scatter_costs(
    model: EngineCostModel,
    rows_per_shard: list[int],
    dimension: int,
    workers: int = 1,
) -> dict[str, float]:
    """Predicted seconds: single-store vs scatter-gather over shards.

    Cross-shard parallelism is a makespan problem: every shard decrypts
    its own candidate rows concurrently, so the scatter estimate is the
    *most loaded* shard's pairing time plus a per-shard
    :data:`SHARD_DISPATCH` coordination charge — skewed partitions
    therefore price close to the single store (the ideal ``1/n`` speedup
    is discounted by exactly the ``skew`` figure, max over mean) while
    uniform ones approach it.
    ``workers`` is each store's pool width and divides the pairing work
    identically on both sides of the comparison.
    """
    counts = [int(n) for n in rows_per_shard]
    if not counts or any(n < 0 for n in counts) or dimension < 1:
        raise BenchmarkError(
            "need at least one shard, rows >= 0 and dimension >= 1"
        )
    workers = max(1, workers)
    per_row = (
        dimension * model.miller_loop
        + model.final_exponentiation
        + model.row_overhead
    )
    total = sum(counts)
    single = total * per_row / workers
    scatter = (
        max(counts) * per_row / workers
        + len(counts) * SHARD_DISPATCH
    )
    mean = total / len(counts)
    return {
        "single": single,
        "scatter": scatter,
        "skew": (max(counts) / mean) if mean else 1.0,
        "speedup": (single / scatter) if scatter > 0.0 else 1.0,
    }


def paper_shape_errors(unit_cost: float | None = None) -> dict[tuple, float]:
    """Relative error of the analytic model against every reported point.

    Small errors mean the paper's Figure 3 is explained by a single
    per-decryption constant — i.e. our linear-cost reproduction has the
    right shape and only the constant differs across testbeds.
    """
    if unit_cost is None:
        unit_cost = implied_paper_unit_cost()
    errors = {}
    for (scale_factor, selectivity), reported in PAPER_FIGURE3_POINTS.items():
        predicted = predict_with_unit_cost(unit_cost, scale_factor, selectivity)
        errors[(scale_factor, selectivity)] = abs(predicted - reported) / reported
    return errors
