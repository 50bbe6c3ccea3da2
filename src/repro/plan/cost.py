"""What the runtime prices: the order a chain matches in.

A query's server-side work is SJ.Dec over the selected rows, then a
hash match.  Whether a side's SJ.Dec runs on the worker pool is not
priced: it is the backend's ``pool_pays``
(:meth:`~repro.core.engine.BatchedEngine.pools_side`).  What is priced
is the left-deep order a chain matches in:
:func:`choose_join_order` prices every contiguous order's hash-match
work from candidate counts and distinct estimates.  SJ.Dec is the same
under every order, so orders compete on the match stage alone.

The timings come from one built-in :class:`EngineCostModel` per
backend; nothing here learns from the queries it prices.

This is a runtime module: it imports nothing from :mod:`repro.bench`
or :mod:`repro.core`.  The paper-figure fitting and the scatter
estimate live in :mod:`repro.bench.costmodel`, which imports from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class EngineCostModel:
    """Per-operation timings (seconds) of one backend.

    ``miller_loop``, ``final_exponentiation`` and ``row_overhead`` price
    one row of SJ.Dec — ``d`` Miller loops and one shared final
    exponentiation — for the scatter estimate beside a measured shard
    series (:func:`repro.bench.costmodel.estimate_scatter_costs`).

    The match stage is priced as the hash matcher it always is:
    ``hash_build`` / ``hash_probe`` are the per-item bucket insert and
    probe, ``pair_emit`` the per-output-pair cost
    (:func:`estimate_match_cost`).
    """

    backend: str
    miller_loop: float
    final_exponentiation: float
    row_overhead: float
    hash_build: float = 2.5e-7
    hash_probe: float = 3.0e-7
    pair_emit: float = 2.0e-7


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
