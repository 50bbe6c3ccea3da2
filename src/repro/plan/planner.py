"""A chain's left-deep join order: one rule on candidate counts.

A chain query names tables at positions ``0..n-1``; under one query
key every position's handles are mutually comparable, so a full chain
match is an n-way handle-equality class and any *contiguous* left-deep
order computes it without cross products.  SJ.Dec costs the same under
every order — the handle pool decrypts each ``(table, token)`` side
once — so the order decides only how many partial tuples the match
stage builds.  The rule: start at the position with the fewest
candidates, then extend toward the neighbour with fewer candidates,
ties going left.  A two-table chain keeps the identity order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError

#: Chain length bound shared with the wire codec: past this the query
#: header stops being trustworthy.
MAX_CHAIN_TABLES = 8


@dataclass(frozen=True)
class JoinPlan:
    """A chain's order and the candidate counts it was chosen from."""

    order: tuple[int, ...]
    candidates: tuple[int, ...]

    def record(self) -> dict:
        """The auditable ``stage: "plan"`` planner record."""
        return {
            "stage": "plan",
            "order": list(self.order),
            "candidates": list(self.candidates),
        }


def compile_plan(
    model, cardinalities: "list[int] | tuple[int, ...]"
) -> JoinPlan:
    """The join order of a chain from its candidate counts.

    ``cardinalities[i]`` is position ``i``'s candidate row count after
    pre-filtering (0 where it is not known yet, as for a remote shard).
    ``model`` is ignored by the rule; it stays because
    ``perfbench/workloads.py`` passes a cost model.
    """
    counts = tuple(int(c) for c in cardinalities)
    n = len(counts)
    if not 2 <= n <= MAX_CHAIN_TABLES:
        raise QueryError(
            f"a chain plan needs 2..{MAX_CHAIN_TABLES} tables, got {n}"
        )
    if n == 2:
        return JoinPlan(order=(0, 1), candidates=counts)
    lo = hi = counts.index(min(counts))
    order = [lo]
    while len(order) < n:
        if hi == n - 1 or (lo > 0 and counts[lo - 1] <= counts[hi + 1]):
            lo -= 1
            order.append(lo)
        else:
            hi += 1
            order.append(hi)
    return JoinPlan(order=tuple(order), candidates=counts)
