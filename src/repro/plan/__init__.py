"""Multi-way join plans: left-deep chains over encrypted tables.

The paper's workload is a *series* of equi-joins, and real analytic
chains touch three or more tables.  This package turns an n-way chain
spec into a pipelined left-deep plan:

- :mod:`repro.plan.planner` — the chain's join order, one rule on the
  positions' candidate counts (:func:`~repro.plan.planner.compile_plan`:
  fewest candidates first, then toward the smaller neighbour);
- :mod:`repro.plan.executor` — the pipelined executor: each node's
  match increments cascade directly into the next node's incremental
  matcher, so there is no materialization barrier and the first full
  chain tuple surfaces while SJ.Dec is still streaming;
- :mod:`repro.plan.handles` — the per-query handle pool (each
  (table, token) side decrypted exactly once, however many chain
  positions consume it).
"""

from repro.plan.executor import ChainExecutor
from repro.plan.handles import SideGroup, group_chain_sides
from repro.plan.planner import MAX_CHAIN_TABLES, JoinPlan, compile_plan

__all__ = [
    "ChainExecutor",
    "JoinPlan",
    "MAX_CHAIN_TABLES",
    "SideGroup",
    "compile_plan",
    "group_chain_sides",
]
