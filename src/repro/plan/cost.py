"""What the runtime prices: pool-or-inline per side, and chain order.

A query's server-side work is SJ.Dec over the selected rows, then a
hash match.  Two decisions about that work can come out differently
from the default, and this module prices exactly those:

- **Does a side fan out on the worker pool or run inline?**  Asked
  only on a server at least two workers wide, for a side of at least
  one row (a one-row side runs inline whatever the answer):
  :func:`choose_engine` estimates the side inline (``batched``) and on
  the pool (``parallel``) and picks ``parallel`` only when it wins by
  the model's ``switch_margin``.
- **In which left-deep order does a chain match?**
  :func:`choose_join_order` prices every contiguous order's hash-match
  work from candidate counts and distinct estimates.  SJ.Dec is the
  same under every order, so orders compete on the match stage alone.

Both read their per-operation timings from one :class:`EngineCostModel`
— a built-in per backend, or a file measured on the operator's machine
(``python -m repro.bench --calibrate-out PATH``, loaded by
``python -m repro.net --cost-model PATH``).  That offline calibration
is the only correction there is: nothing here learns from the queries
it prices.

This is a runtime module: it imports nothing from :mod:`repro.bench`
or :mod:`repro.core`.  The paper-figure fitting and the calibration
measurement live in :mod:`repro.bench.costmodel`, which imports from
here.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class EngineCostModel:
    """Per-operation timings (seconds) behind both decisions.

    A side costs, per engine,

    - ``batched``:  ``d`` Miller loops and one shared final
      exponentiation per row, plus a per-chunk dispatch cost;
    - ``parallel``: that pairing work divided across ``workers``, plus
      what the persistent pool charges — a one-time spawn cost when the
      pool is cold, per-element encode/transport/decode, and a
      per-chunk scheduling round trip.

    ``switch_margin`` is the planner's conservatism: ``parallel`` must
    beat ``batched`` by at least this factor before it is chosen, so
    estimate noise can never make a pooled side slower than an inline
    one.

    The match stage is priced as the hash matcher it always is:
    ``hash_build`` / ``hash_probe`` are the per-item bucket insert and
    probe, ``pair_emit`` the per-output-pair cost
    (:func:`estimate_match_cost`).
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
    pair_emit: float = 2.0e-7
    #: Per-component cost of replaying a prepared row's stored line
    #: coefficients instead of a full Miller loop (``None`` = no
    #: prepared pricing; fall back to ``miller_loop``).
    prepared_miller_loop: float | None = None

    # -- persistence ------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write the model as JSON (atomic via rename), so a restarted
        server prices with what a previous calibration measured."""
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

        Unknown model keys (another version's writer — an older one's
        retired constants included) are dropped; absent optional fields
        take their defaults — the same tolerant-decode posture as the
        wire stats.  Anything structurally wrong (bad format tag,
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


# -- pool or inline, per side --------------------------------------------


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
    """Predicted seconds for one side, inline and pooled:
    ``{"batched": ..., "parallel": ...}``.

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
    return {"batched": batched, "parallel": parallel}


def choose_engine(
    model: EngineCostModel,
    rows: int,
    dimension: int,
    workers: int,
    batch_size: int,
    parallel_batch_size: int | None = None,
    pool_warm: bool = False,
    prepared: bool = False,
) -> tuple[str, dict[str, float]]:
    """The planner decision for one side: ``(chosen, estimates)``.

    ``parallel`` iff its estimate beats ``batched`` by the model's
    ``switch_margin``; ties and anything inside the margin run inline —
    the guarantee behind "the pool is never chosen to be slower".
    """
    estimates = estimate_engine_costs(
        model, rows, dimension, workers, batch_size,
        parallel_batch_size, pool_warm, prepared=prepared,
    )
    batched, parallel = estimates["batched"], estimates["parallel"]
    # Strictly cheaper as well: a margin below 1 must not hand the pool
    # a tie (an empty side on a warm pool prices 0.0 either way).
    if parallel < batched and parallel * model.switch_margin <= batched:
        return "parallel", estimates
    return "batched", estimates


# -- chain order ----------------------------------------------------------


def estimate_match_cost(
    model: EngineCostModel,
    build_rows: int,
    probe_rows: int,
    expected_matches: int = 0,
) -> float:
    """Predicted seconds of one hash-match node."""
    if build_rows < 0 or probe_rows < 0 or expected_matches < 0:
        raise BenchmarkError("matcher row counts must be non-negative")
    return (
        build_rows * model.hash_build
        + probe_rows * model.hash_probe
        + expected_matches * model.pair_emit
    )


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
    conservative floor that predicts the fewest matches).  This is the
    join-order chooser's intermediate-size chain.
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
        total += estimate_match_cost(model, inter_rows, rows, expected)
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
