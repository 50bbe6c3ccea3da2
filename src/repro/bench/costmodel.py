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
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import time
from dataclasses import dataclass, replace

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
    # planner entry points (``engine="auto"`` goes through this module)
    # usable in a bare install that never fits measurement series.
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


# -- engine planner cost model -------------------------------------------


@dataclass(frozen=True)
class EngineCostModel:
    """Per-operation timings the planner prices the join pipeline with.

    The planner (``engine="auto"``) estimates, per candidate side,

    - ``serial``:   one full pairing per vector component —
      ``rows * d * (miller_loop + final_exponentiation)``;
    - ``batched``:  ``d`` Miller loops but one shared final
      exponentiation per row, plus a per-chunk dispatch cost;
    - ``parallel``: the batched pairing work divided across ``workers``,
      plus what the persistent pool charges — a one-time spawn cost when
      the pool is cold, per-element encode/transport/decode, and a
      per-chunk scheduling round trip.

    ``switch_margin`` is the planner's conservatism: a non-default
    engine must beat ``batched`` by at least this factor before it is
    chosen, so estimate noise can never make ``auto`` slower than the
    static default.

    The matcher stage (SJ.Match) is priced too, so the planner covers
    the full decrypt→match pipeline: ``hash_build`` / ``hash_probe``
    are the per-item bucket insert and probe of the hash matcher,
    ``nested_compare`` is one nested-loop equality, and ``pair_emit``
    is the per-output-pair cost common to both
    (:func:`estimate_matcher_costs` / :func:`choose_matcher`).
    """

    backend: str
    miller_loop: float
    final_exponentiation: float
    row_overhead: float
    batch_overhead: float
    element_transport: float
    chunk_overhead: float
    pool_spawn: float
    switch_margin: float = 1.25
    hash_build: float = 2.5e-7
    hash_probe: float = 3.0e-7
    nested_compare: float = 8.0e-8
    pair_emit: float = 2.0e-7
    #: Per-component cost of replaying a prepared row's stored line
    #: coefficients instead of a full Miller loop (``None`` = no
    #: prepared pricing; fall back to ``miller_loop``).
    prepared_miller_loop: float | None = None
    #: Per-shard coordination cost of a scatter-gather join: admitting
    #: the query on one more shard's pool and merging its chunk stream
    #: (:func:`estimate_scatter_costs`).
    shard_dispatch: float = 5e-4
    #: Fixed per-call cost of standing up the chunked-stream machinery
    #: (chunk assembly, stream plumbing, admission bookkeeping) that the
    #: batched and parallel engines pay *per refresh* — negligible on a
    #: full-table side, dominant on a 3-row series delta, which is why
    #: :func:`choose_delta_engine` sends tiny deltas through the serial
    #: inline path instead of waking anything up.
    delta_dispatch: float = 2.5e-4

    # -- persistence ------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write the model as JSON (atomic via rename).

        The calibration counterpart of the stored cost *history*: a
        restarted server loads this file and prices replay from what a
        previous calibration measured instead of re-measuring.
        """
        payload = {
            "format": _COST_MODEL_FORMAT,
            "version": _COST_MODEL_VERSION,
            "model": dataclasses.asdict(self),
        }
        temp_path = f"{path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp_path, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "EngineCostModel":
        """Inverse of :meth:`save` (validating).

        Unknown model keys (a newer writer) are dropped; absent optional
        fields take their defaults — the same tolerant-decode posture as
        the wire stats.  Anything structurally wrong (bad format tag,
        non-numeric constant, missing required field) raises
        :class:`~repro.errors.BenchmarkError`, never a raw decode error.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise BenchmarkError(
                f"cannot load cost model from {path}: {error}"
            ) from error
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _COST_MODEL_FORMAT
            or not isinstance(payload.get("model"), dict)
        ):
            raise BenchmarkError(
                f"{path} is not a saved engine cost model"
            )
        raw = payload["model"]
        known = {field.name: field for field in dataclasses.fields(cls)}
        kwargs = {}
        for name, value in raw.items():
            field = known.get(name)
            if field is None:
                continue
            if name == "backend":
                if not isinstance(value, str) or not value:
                    raise BenchmarkError(
                        "cost model 'backend' must be a non-empty string"
                    )
            elif value is None:
                if name != "prepared_miller_loop":
                    raise BenchmarkError(
                        f"cost model constant {name!r} must be a number"
                    )
            elif isinstance(value, bool) or not isinstance(
                value, (int, float)
            ) or not math.isfinite(value) or value < 0:
                raise BenchmarkError(
                    f"cost model constant {name!r} must be a finite "
                    f"non-negative number, got {value!r}"
                )
            else:
                value = float(value)
            kwargs[name] = value
        required = {
            name
            for name, field in known.items()
            if field.default is dataclasses.MISSING
        }
        missing = sorted(required - set(kwargs))
        if missing:
            raise BenchmarkError(
                f"saved cost model is missing required constants {missing}"
            )
        return cls(**kwargs)


_COST_MODEL_FORMAT = "repro-engine-cost-model"
_COST_MODEL_VERSION = 1


#: Defaults measured on the fast (exponent-group) backend: pairing work
#: is a handful of modular multiplications, so transport dominates and
#: the planner correctly prefers ``batched`` at every realistic size.
FAST_ENGINE_COSTS = EngineCostModel(
    backend="fast",
    miller_loop=3.5e-7,
    final_exponentiation=1.5e-6,
    row_overhead=1.5e-6,
    # Kept <= final_exponentiation so batched dominates serial at every
    # side size (their gap is rows*(d-1)*fexp - chunks*batch_overhead).
    batch_overhead=1e-6,
    element_transport=1.2e-6,
    chunk_overhead=4e-4,
    pool_spawn=3e-2,
    # The fast backend models a prepared replay as the same modular
    # multiply as a raw pairing — only the BN254 backend actually saves.
    prepared_miller_loop=3.5e-7,
)

#: Defaults for the pure-Python BN254 pairing: compute dwarfs IPC, so the
#: planner fans out whenever the pool has more than one worker.  The
#: three pairing constants are what ``python -m repro.bench
#: --calibrate-out PATH --calibrate-backend bn254`` measures on the
#: chunk kernel (dimension 8, 24 rows in one chunk, one 2-vCPU box at
#: the faster of its two speeds; CI prints its own beside them).
BN254_ENGINE_COSTS = EngineCostModel(
    backend="bn254",
    # One pair's share of a chunk's simultaneous loop: 88 line products
    # and its twist steps, the inversions shared by the whole chunk.
    miller_loop=1.9e-3,
    # Solved from serial minus batched, so it also carries the
    # squarings and inversions a lone pairing does not get to share.
    final_exponentiation=7.5e-3,
    row_overhead=1.5e-6,
    batch_overhead=4e-5,
    element_transport=2e-5,
    chunk_overhead=1e-3,
    pool_spawn=5e-2,
    # Replaying stored coefficients skips the twist arithmetic: about
    # half of a raw pair's share.
    prepared_miller_loop=1.0e-3,
)

_DEFAULT_ENGINE_COSTS = {
    "fast": FAST_ENGINE_COSTS,
    "bn254": BN254_ENGINE_COSTS,
}


def default_engine_cost_model(backend_name: str) -> EngineCostModel:
    """The built-in cost model for a backend (fast-backend shape if unknown)."""
    return _DEFAULT_ENGINE_COSTS.get(backend_name, FAST_ENGINE_COSTS)


def estimate_engine_costs(
    model: EngineCostModel,
    rows: int,
    dimension: int,
    workers: int,
    batch_size: int,
    parallel_batch_size: int | None = None,
    pool_warm: bool = False,
    prepared: bool = False,
) -> dict[str, float]:
    """Predicted seconds per engine for one candidate side.

    ``prepared`` prices the side's Miller-loop work with the model's
    ``prepared_miller_loop`` constant — the coefficient-replay cost of
    a warm prepared table — instead of the raw ``miller_loop``.
    """
    if rows < 0 or dimension < 1:
        raise BenchmarkError("need rows >= 0 and dimension >= 1")
    workers = max(1, workers)
    if parallel_batch_size is None:
        parallel_batch_size = max(1, batch_size // 2)
    miller = model.miller_loop
    if prepared and model.prepared_miller_loop is not None:
        miller = model.prepared_miller_loop
    pairing_rows = rows * (
        dimension * miller + model.final_exponentiation
    )
    overhead_rows = rows * model.row_overhead
    serial = (
        rows * dimension * (miller + model.final_exponentiation)
        + overhead_rows
    )
    batches = math.ceil(rows / batch_size) if rows else 0
    batched = pairing_rows + overhead_rows + batches * model.batch_overhead
    chunks = math.ceil(rows / parallel_batch_size) if rows else 0
    parallel = (
        (0.0 if pool_warm else model.pool_spawn * workers)
        + rows * dimension * model.element_transport
        + chunks * model.chunk_overhead
        + pairing_rows / workers
        + overhead_rows
    )
    return {"serial": serial, "batched": batched, "parallel": parallel}


def estimate_scatter_costs(
    model: EngineCostModel,
    rows_per_shard: list[int],
    dimension: int,
    workers: int = 1,
) -> dict[str, float]:
    """Predicted seconds: single-store vs scatter-gather over shards.

    Cross-shard parallelism is a makespan problem: every shard decrypts
    its own candidate rows concurrently, so the scatter estimate is the
    *most loaded* shard's pairing time plus a per-shard ``shard_dispatch``
    coordination charge — skewed partitions therefore price close to the
    single store (the ideal ``1/n`` speedup is discounted by exactly the
    ``skew`` figure, max over mean) while uniform ones approach it.
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
        + len(counts) * model.shard_dispatch
    )
    mean = total / len(counts)
    return {
        "single": single,
        "scatter": scatter,
        "skew": (max(counts) / mean) if mean else 1.0,
        "speedup": (single / scatter) if scatter > 0.0 else 1.0,
    }


def select_engine(
    estimates: dict[str, float],
    switch_margin: float,
    allowed: tuple[str, ...] = ("serial", "batched", "parallel"),
) -> str:
    """The decision rule alone, applied to precomputed estimates.

    ``batched`` (the static default) wins unless another allowed engine
    is estimated at least ``switch_margin`` times cheaper — the
    guarantee behind "auto is never slower than the default".
    """
    candidates = {
        name: cost for name, cost in estimates.items() if name in allowed
    }
    if not candidates:
        raise BenchmarkError(
            f"no allowed engine among {sorted(estimates)}; allowed={allowed}"
        )
    if "batched" in candidates:
        baseline = candidates["batched"]
        best_name, best_cost = min(
            candidates.items(), key=lambda item: item[1]
        )
        # Ties (and anything inside the margin) go to the default:
        # a challenger must be strictly better, by the full margin.
        if best_name != "batched" and (
            best_cost >= baseline
            or best_cost * switch_margin > baseline
        ):
            return "batched"
        return best_name
    return min(candidates, key=candidates.get)


def choose_engine(
    model: EngineCostModel,
    rows: int,
    dimension: int,
    workers: int,
    batch_size: int,
    parallel_batch_size: int | None = None,
    pool_warm: bool = False,
    allowed: tuple[str, ...] = ("serial", "batched", "parallel"),
    corrections: dict[str, float] | None = None,
    prepared: bool = False,
) -> tuple[str, dict[str, float]]:
    """The planner decision: ``(chosen_engine, per-engine estimates)``.

    ``corrections`` (per-engine multiplicative factors, typically from
    an :class:`OnlineCalibrator`) scale the model estimates with what
    observed runs say about this hardware; the returned estimates are
    the corrected ones the decision was actually made on.  ``prepared``
    marks the side as a warm prepared table (coefficient replay
    instead of raw Miller loops).
    """
    estimates = estimate_engine_costs(
        model, rows, dimension, workers, batch_size,
        parallel_batch_size, pool_warm, prepared=prepared,
    )
    if corrections:
        estimates = {
            name: cost * float(corrections.get(name, 1.0))
            for name, cost in estimates.items()
        }
    return select_engine(estimates, model.switch_margin, allowed), estimates


def estimate_delta_costs(
    model: EngineCostModel,
    rows: int,
    dimension: int,
    workers: int,
    batch_size: int = 64,
    parallel_batch_size: int | None = None,
    pool_warm: bool = False,
    prepared: bool = False,
) -> dict[str, float]:
    """Predicted seconds per engine for one *delta* side.

    A series-cache refresh decrypts only the handful of rows inserted
    since the last execution, so per-call machinery dominates: the
    batched and parallel engines additionally pay ``delta_dispatch``
    (stream/chunk plumbing that a full-table side amortizes away), and
    a cold pool still pays its spawn cost.  Serial pays neither — it
    decrypts inline, row by row, which is exactly right for a 3-row
    delta.
    """
    estimates = estimate_engine_costs(
        model, rows, dimension, workers, batch_size,
        parallel_batch_size, pool_warm, prepared=prepared,
    )
    return {
        "serial": estimates["serial"],
        "batched": estimates["batched"] + model.delta_dispatch,
        "parallel": estimates["parallel"] + model.delta_dispatch,
    }


def choose_delta_engine(
    model: EngineCostModel,
    rows: int,
    dimension: int,
    workers: int,
    batch_size: int = 64,
    parallel_batch_size: int | None = None,
    pool_warm: bool = False,
    allowed: tuple[str, ...] = ("serial", "batched", "parallel"),
    prepared: bool = False,
) -> tuple[str, dict[str, float]]:
    """The delta-path planner decision: ``(chosen, estimates)``.

    The decision rule mirrors :func:`select_engine` but with **serial**
    as the conservative default: on a tiny delta nothing should be
    woken up, so a chunked or pooled engine must beat the inline path
    by the model's ``switch_margin`` before it is chosen.  Large deltas
    (hundreds of rows) cross back over to batched/parallel exactly as
    the constants dictate.
    """
    estimates = estimate_delta_costs(
        model, rows, dimension, workers, batch_size,
        parallel_batch_size, pool_warm, prepared=prepared,
    )
    candidates = {
        name: cost for name, cost in estimates.items() if name in allowed
    }
    if not candidates:
        raise BenchmarkError(
            f"no allowed engine among {sorted(estimates)}; allowed={allowed}"
        )
    if "serial" in candidates:
        baseline = candidates["serial"]
        best_name, best_cost = min(
            candidates.items(), key=lambda item: item[1]
        )
        if best_name != "serial" and (
            best_cost >= baseline
            or best_cost * model.switch_margin > baseline
        ):
            return "serial", estimates
        return best_name, estimates
    return min(candidates, key=candidates.get), estimates


class OnlineCalibrator:
    """Online correction of planner estimates from observed runtimes.

    The planner records, per decrypted side, its estimates and the
    side's actual seconds.  This class folds those residuals into a
    per-engine multiplicative correction — an exponential moving
    average of ``actual / predicted`` — which :func:`choose_engine`
    applies to future estimates.  Corrections stay at ``1.0`` until an
    engine has ``min_samples`` observations (one noisy query must not
    swing the planner), and are clamped so a pathological measurement
    can never push the model off by more than ``clamp``.

    Thread-safe: one calibrator may serve concurrently admitted
    queries.
    """

    def __init__(
        self,
        alpha: float = 0.35,
        min_samples: int = 2,
        clamp: tuple[float, float] = (0.05, 20.0),
    ):
        if not 0.0 < alpha <= 1.0:
            raise BenchmarkError("alpha must be in (0, 1]")
        if min_samples < 1:
            raise BenchmarkError("min_samples must be at least 1")
        self.alpha = alpha
        self.min_samples = min_samples
        self.clamp = clamp
        self._ratios: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def observe(
        self, engine: str, predicted_seconds: float, actual_seconds: float
    ) -> None:
        """Fold one (prediction, observation) pair into the correction."""
        if predicted_seconds <= 0.0 or actual_seconds <= 0.0:
            return
        ratio = actual_seconds / predicted_seconds
        low, high = self.clamp
        ratio = min(max(ratio, low), high)
        with self._lock:
            previous = self._ratios.get(engine)
            if previous is None:
                self._ratios[engine] = ratio
            else:
                self._ratios[engine] = (
                    (1.0 - self.alpha) * previous + self.alpha * ratio
                )
            self._counts[engine] = self._counts.get(engine, 0) + 1

    def observations(self, engine: str) -> int:
        with self._lock:
            return self._counts.get(engine, 0)

    def correction(self, engine: str) -> float:
        """The multiplicative factor for one engine (1.0 = trust model)."""
        with self._lock:
            if self._counts.get(engine, 0) < self.min_samples:
                return 1.0
            return self._ratios[engine]

    def corrections(self) -> dict[str, float]:
        """All warmed-up corrections (engines below min_samples omitted)."""
        with self._lock:
            return {
                engine: self._ratios[engine]
                for engine, count in self._counts.items()
                if count >= self.min_samples
            }


def calibrate_from_stats(
    planner_records, calibrator: OnlineCalibrator | None = None
) -> OnlineCalibrator:
    """Rebuild an online calibrator from recorded planner decisions.

    ``planner_records`` is any iterable of the per-side planner dicts
    that :class:`~repro.core.server.ServerStats` accumulates (each
    carries ``chosen``, ``estimates`` and ``actual_seconds``), e.g.
    drained from a stats log after a restart.  Records without an
    observed runtime are skipped.
    """
    if calibrator is None:
        calibrator = OnlineCalibrator()
    for record in planner_records:
        if not isinstance(record, dict):
            continue
        chosen = record.get("chosen")
        actual = record.get("actual_seconds")
        estimates = record.get("estimates") or {}
        if not chosen or not actual or chosen not in estimates:
            continue
        predicted = estimates[chosen]
        corrections = record.get("corrections") or {}
        # Undo the correction active when the record was made, so the
        # calibrator re-learns from raw model predictions.
        predicted /= float(corrections.get(chosen, 1.0)) or 1.0
        calibrator.observe(chosen, predicted, actual)
    return calibrator


# -- matcher-stage (SJ.Match) pricing ------------------------------------


def estimate_matcher_costs(
    model: EngineCostModel,
    build_rows: int,
    probe_rows: int,
    expected_matches: int = 0,
) -> dict[str, float]:
    """Predicted seconds per matcher for one (left, right) pairing."""
    if build_rows < 0 or probe_rows < 0 or expected_matches < 0:
        raise BenchmarkError("matcher row counts must be non-negative")
    emit = expected_matches * model.pair_emit
    hash_cost = (
        build_rows * model.hash_build
        + probe_rows * model.hash_probe
        + emit
    )
    nested_cost = build_rows * probe_rows * model.nested_compare + emit
    return {"hash": hash_cost, "nested": nested_cost}


def choose_matcher(
    model: EngineCostModel,
    build_rows: int,
    probe_rows: int,
    expected_matches: int = 0,
) -> tuple[str, dict[str, float]]:
    """The matcher decision: ``(chosen_matcher, per-matcher estimates)``.

    Nested only wins on tiny sides, where its zero setup cost beats the
    hash matcher's bucket maintenance; ties go to hash (the paper's
    algorithm and the asymptotically safe choice).
    """
    estimates = estimate_matcher_costs(
        model, build_rows, probe_rows, expected_matches
    )
    if estimates["nested"] < estimates["hash"]:
        return "nested", estimates
    return "hash", estimates


# -- multi-way plan pricing ----------------------------------------------


def estimate_expected_matches(
    build_rows: int,
    probe_rows: int,
    build_distinct: int | None = None,
    probe_distinct: int | None = None,
) -> int:
    """Expected equi-join output size from per-side distinct estimates.

    The classic containment assumption: with ``V(R)`` / ``V(S)``
    distinct join values per side, every value of the smaller domain is
    assumed to appear in the larger one, so

        E[|R join S|] = |R| * |S| / max(V(R), V(S))

    Distinct counts are clamped to ``[1, rows]``; when a side has no
    estimate its row count is used (every value distinct — the
    conservative floor that predicts the fewest matches).  This feeds
    both matcher pricing (``choose_matcher(expected_matches=...)``) and
    the join-order chooser's intermediate-size chain.
    """
    if build_rows < 0 or probe_rows < 0:
        raise BenchmarkError("row counts must be non-negative")
    if build_rows == 0 or probe_rows == 0:
        return 0
    build_v = build_rows if build_distinct is None else build_distinct
    probe_v = probe_rows if probe_distinct is None else probe_distinct
    build_v = max(1, min(int(build_v), build_rows))
    probe_v = max(1, min(int(probe_v), probe_rows))
    return max(0, round(build_rows * probe_rows / max(build_v, probe_v)))


#: Past this many tables the exhaustive left-deep enumeration
#: (``n * 2^(n-2)`` orders) gives way to a greedy chooser.
MAX_EXHAUSTIVE_PLAN_TABLES = 8


def _left_deep_orders(n: int) -> list[tuple[int, ...]]:
    """Every left-deep order over a chain of ``n`` tables.

    A valid order grows a contiguous interval of the chain — start
    anywhere, then repeatedly extend one end — so every node joins
    through a chain adjacency (no cross products).
    """
    orders: list[tuple[int, ...]] = []

    def extend(lo: int, hi: int, order: list[int]) -> None:
        if lo == 0 and hi == n - 1:
            orders.append(tuple(order))
            return
        if lo > 0:
            extend(lo - 1, hi, order + [lo - 1])
        if hi < n - 1:
            extend(lo, hi + 1, order + [hi + 1])

    for start in range(n):
        extend(start, start, [start])
    return orders


def _order_match_cost(
    model: EngineCostModel,
    order: tuple[int, ...],
    cardinalities: list[int],
    distincts: list[int],
) -> float:
    """Predicted match-stage seconds for one left-deep order.

    SJ.Dec cost is identical across orders — the handle pool decrypts
    every (table, token) side exactly once regardless — so orders
    compete on the match stage alone: each node prices as a hash
    matcher whose build side is the running intermediate estimate.
    """
    inter_rows = cardinalities[order[0]]
    inter_distinct = distincts[order[0]]
    total = 0.0
    for index in order[1:]:
        rows = cardinalities[index]
        expected = estimate_expected_matches(
            inter_rows, rows, inter_distinct, distincts[index]
        )
        total += estimate_matcher_costs(
            model, inter_rows, rows, expected
        )["hash"]
        inter_rows = expected
        # The live join-value domain only shrinks as the chain extends.
        inter_distinct = min(inter_distinct, distincts[index])
    return total


def estimate_plan_costs(
    model: EngineCostModel,
    cardinalities: "list[int] | tuple[int, ...]",
    distincts: "list[int | None] | None" = None,
) -> dict[tuple[int, ...], float]:
    """Predicted match-stage seconds per left-deep order of a chain.

    ``cardinalities[i]`` is the candidate row count of chain position
    ``i`` (post-prefilter); ``distincts[i]`` the estimated distinct
    join values on that side (``None`` → assume all-distinct).  Chains
    longer than :data:`MAX_EXHAUSTIVE_PLAN_TABLES` are not enumerated
    here — use :func:`choose_join_order`, which falls back to greedy.
    """
    cards = [int(c) for c in cardinalities]
    if len(cards) < 2:
        raise BenchmarkError("a plan needs at least two tables")
    if any(c < 0 for c in cards):
        raise BenchmarkError("cardinalities must be non-negative")
    if len(cards) > MAX_EXHAUSTIVE_PLAN_TABLES:
        raise BenchmarkError(
            f"exhaustive enumeration caps at "
            f"{MAX_EXHAUSTIVE_PLAN_TABLES} tables; got {len(cards)}"
        )
    dv = _clamped_distincts(cards, distincts)
    return {
        order: _order_match_cost(model, order, cards, dv)
        for order in _left_deep_orders(len(cards))
    }


def _clamped_distincts(
    cards: list[int], distincts: "list[int | None] | None"
) -> list[int]:
    if distincts is None:
        distincts = [None] * len(cards)
    if len(distincts) != len(cards):
        raise BenchmarkError(
            "distincts must align with cardinalities "
            f"({len(distincts)} != {len(cards)})"
        )
    return [
        max(1, min(int(v), c)) if v is not None else max(1, c)
        for v, c in zip(distincts, cards)
    ]


def choose_join_order(
    model: EngineCostModel,
    cardinalities: "list[int] | tuple[int, ...]",
    distincts: "list[int | None] | None" = None,
) -> tuple[tuple[int, ...], dict[str, float]]:
    """The join-order decision: ``(order, {order_key: seconds})``.

    Orders are tuples of chain positions; the estimates dict is keyed
    by comma-joined positions (JSON-friendly for planner records).
    Ties break toward the left-to-right chain order.  Chains past the
    exhaustive cap are ordered greedily: start at the smallest side,
    then repeatedly extend whichever chain end prices cheaper.
    """
    cards = [int(c) for c in cardinalities]
    if len(cards) < 2:
        raise BenchmarkError("a plan needs at least two tables")
    if any(c < 0 for c in cards):
        raise BenchmarkError("cardinalities must be non-negative")
    dv = _clamped_distincts(cards, distincts)
    if len(cards) > MAX_EXHAUSTIVE_PLAN_TABLES:
        order = _greedy_order(model, cards, dv)
        cost = _order_match_cost(model, order, cards, dv)
        return order, {",".join(map(str, order)): cost}
    costs = estimate_plan_costs(model, cards, distincts)
    identity = tuple(range(len(cards)))
    best = min(costs, key=lambda o: (costs[o], o != identity, o))
    return best, {
        ",".join(map(str, order)): cost for order, cost in costs.items()
    }


def _greedy_order(
    model: EngineCostModel, cards: list[int], dv: list[int]
) -> tuple[int, ...]:
    n = len(cards)
    start = min(range(n), key=lambda i: cards[i])
    order = [start]
    lo = hi = start
    while len(order) < n:
        choices = []
        if lo > 0:
            choices.append(lo - 1)
        if hi < n - 1:
            choices.append(hi + 1)
        nxt = min(
            choices,
            key=lambda i: _order_match_cost(
                model, tuple(order + [i]), cards, dv
            ),
        )
        order.append(nxt)
        lo, hi = min(lo, nxt), max(hi, nxt)
    return tuple(order)


def calibrate_engine_cost_model(
    backend,
    dimension: int = 8,
    rows: int = 24,
    repeats: int = 3,
) -> EngineCostModel:
    """Measure per-op pairing costs on ``backend``; keep default overheads.

    Times the serial (full pairing per component), batched
    (``pair_vectors_batch``) and prepared-replay (``prepare_row`` once,
    then batched over the prepared rows) paths over a synthetic side
    and solves for the Miller-loop, final-exponentiation and
    prepared-replay costs; transport and scheduling constants are
    inherited from the backend's default model (measuring those would
    itself require spawning a pool).
    """
    if dimension < 2 or rows < 1:
        raise BenchmarkError("calibration needs dimension >= 2 and rows >= 1")
    token = backend.g1_powers(range(1, dimension + 1))
    side = [
        backend.g2_powers(range(r + 1, r + dimension + 1))
        for r in range(rows)
    ]
    prepared_side = [backend.prepare_row(row) for row in side]

    def measure(fn) -> float:
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def run_batched():
        backend.pair_vectors_batch(token, side)

    def run_prepared():
        backend.pair_vectors_batch(token, prepared_side)

    def run_serial():
        for row in side:
            accumulator = backend.gt_identity()
            for g1, g2 in zip(token, row):
                accumulator = backend.gt_mul(
                    accumulator, backend.pair(g1, g2)
                )

    batched_row = measure(run_batched) / rows    # d*miller + 1*fexp
    prepared_row = measure(run_prepared) / rows  # d*prep_miller + 1*fexp
    serial_row = measure(run_serial) / rows      # d*(miller + fexp)
    base = default_engine_cost_model(backend.name)
    fexp = max((serial_row - batched_row) / (dimension - 1), 0.0)
    miller = max((batched_row - fexp) / dimension, 1e-12)
    prep_miller = max((prepared_row - fexp) / dimension, 1e-12)
    return replace(
        base,
        backend=backend.name,
        miller_loop=miller,
        final_exponentiation=max(fexp, 1e-12),
        prepared_miller_loop=prep_miller,
    )


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
