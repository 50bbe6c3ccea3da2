"""Multi-way join plans: left-deep chains over encrypted tables.

The paper's workload is a *series* of equi-joins, and real analytic
chains touch three or more tables.  This package turns an n-way chain
spec into a priced, pipelined plan:

- :mod:`repro.plan.cost` — what the runtime prices, and with what: the
  per-operation :class:`~repro.plan.cost.EngineCostModel`, the
  pool-or-inline decision of a side on a pooled server and the join-order
  decision of a chain (imports nothing from ``repro.core`` or
  ``repro.bench``);
- :mod:`repro.plan.planner` — compiles a chain of candidate
  cardinalities into a left-deep join order via the cost model's
  prefilter-posting estimates (:func:`~repro.plan.cost.choose_join_order`);
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
from repro.plan.planner import (
    MAX_CHAIN_TABLES,
    JoinPlan,
    PlanNode,
    compile_plan,
)

__all__ = [
    "ChainExecutor",
    "JoinPlan",
    "MAX_CHAIN_TABLES",
    "PlanNode",
    "SideGroup",
    "compile_plan",
    "group_chain_sides",
]
