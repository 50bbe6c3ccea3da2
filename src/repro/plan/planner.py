"""Compiling a chain spec into a priced left-deep :class:`JoinPlan`.

A chain query names tables at positions ``0..n-1``; under one query
key every position's handles are mutually comparable, so a full chain
match is an n-way handle-equality class and any *contiguous* left-deep
order computes it without cross products.  The planner enumerates those
orders (``n * 2^(n-2)`` of them — tiny for the n <= 8 chains the wire
accepts), prices each with the cost model's hash-match constants
(:func:`repro.plan.cost.choose_join_order`) and the prefilter-posting
cardinality/distinct estimates, and picks the cheapest.  SJ.Dec cost is excluded from the comparison on purpose: the
handle pool decrypts every (table, token) side exactly once regardless
of order, so orders compete on match-stage work alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.plan.cost import choose_join_order, estimate_expected_matches

#: Chain length bound shared with the wire codec: past this the
#: exhaustive order enumeration stops being free and the query header
#: stops being trustworthy.
MAX_CHAIN_TABLES = 8


@dataclass(frozen=True)
class PlanNode:
    """One left-deep node: the running interval joined with one side.

    ``build`` is the set of chain positions already folded in (always a
    contiguous chain interval), ``probe`` the position streamed into
    this node.  ``estimated_build`` / ``estimated_matches`` are the
    planner's intermediate-size chain — diagnostics for the planner
    record, not execution inputs.
    """

    node: int
    build: tuple[int, ...]
    probe: int
    estimated_build: int
    estimated_matches: int


@dataclass(frozen=True)
class JoinPlan:
    """A compiled chain plan: the chosen order and its node sequence."""

    order: tuple[int, ...]
    nodes: tuple[PlanNode, ...]
    #: Per-order match-stage seconds, keyed by comma-joined positions —
    #: the full decision surface, JSON-ready for planner records.
    estimates: dict[str, float]

    @property
    def cost(self) -> float:
        return self.estimates[",".join(map(str, self.order))]

    def record(self) -> dict:
        """The auditable ``stage: "plan"`` planner record."""
        return {
            "stage": "plan",
            "order": list(self.order),
            "nodes": [
                {
                    "build": list(node.build),
                    "probe": node.probe,
                    "estimated_build": node.estimated_build,
                    "estimated_matches": node.estimated_matches,
                }
                for node in self.nodes
            ],
            "estimates": {
                key: float(sec) for key, sec in self.estimates.items()
            },
        }


def compile_plan(
    model,
    cardinalities: "list[int] | tuple[int, ...]",
    distincts: "list[int | None] | None" = None,
) -> JoinPlan:
    """Choose the join order for a chain and lay out its nodes.

    ``model`` is an :class:`~repro.plan.cost.EngineCostModel`;
    ``cardinalities[i]`` is position ``i``'s candidate row count after
    pre-filtering; ``distincts[i]`` the estimated distinct join values
    on that side (``None`` → assume all-distinct).
    """
    n = len(cardinalities)
    if not 2 <= n <= MAX_CHAIN_TABLES:
        raise QueryError(
            f"a chain plan needs 2..{MAX_CHAIN_TABLES} tables, got {n}"
        )
    order, estimates = choose_join_order(model, cardinalities, distincts)
    if distincts is None:
        distincts = [None] * n
    nodes: list[PlanNode] = []
    inter_rows = int(cardinalities[order[0]])
    inter_distinct = distincts[order[0]]
    for j, probe in enumerate(order[1:]):
        expected = estimate_expected_matches(
            inter_rows,
            int(cardinalities[probe]),
            inter_distinct,
            distincts[probe],
        )
        nodes.append(
            PlanNode(
                node=j,
                build=tuple(order[: j + 1]),
                probe=probe,
                estimated_build=inter_rows,
                estimated_matches=expected,
            )
        )
        inter_rows = expected
        if distincts[probe] is not None:
            inter_distinct = (
                distincts[probe]
                if inter_distinct is None
                else min(inter_distinct, distincts[probe])
            )
    return JoinPlan(order=order, nodes=tuple(nodes), estimates=estimates)
