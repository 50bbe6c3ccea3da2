"""Equality-pair arithmetic: ground truth, per-query leakage, closure.

Terminology follows Section 2.1 of the paper:

- a *true equality pair* is an unordered pair of rows (possibly from the
  same table) whose join-column values are equal;
- the *minimal leakage of a query* is the set of true pairs among rows
  that match the query's selection criterion — no non-interactive
  single-server scheme can reveal less and still compute the join;
- the *transitive closure* of a pair set adds every pair derivable by
  chaining equalities (if a=b and b=c then a=c).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import combinations

from repro.baselines.api import Pair, RowRef, make_pair
from repro.db.query import JoinQuery
from repro.db.table import Table
from repro.series.ledger import LeakageLedger


def class_pairs(classes: Iterable[list[RowRef]]) -> set[Pair]:
    """Every pair of rows that share a class."""
    pairs: set[Pair] = set()
    for refs in classes:
        for a, b in combinations(refs, 2):
            pairs.add(make_pair(a, b))
    return pairs


def all_true_pairs(tables: list[tuple[Table, str]]) -> set[Pair]:
    """Every true equality pair across (and within) the given tables."""
    groups: dict[object, list[RowRef]] = {}
    for table, join_column in tables:
        index = table.schema.index_of(join_column)
        for i, row in enumerate(table):
            groups.setdefault(row[index], []).append((table.name, i))
    return class_pairs(groups.values())


def minimal_query_leakage(
    tables: list[tuple[Table, str]],
    query: JoinQuery,
) -> set[Pair]:
    """The minimal leakage of one query: true pairs among selected rows.

    Rows are "selected" when they satisfy their table's WHERE clause of
    this query; the pair set includes within-table pairs among selected
    rows (the adversary sees those equalities too — they are part of the
    transitive closure the paper's Example 2.1 counts).
    """
    by_name = {table.name: (table, join_column) for table, join_column in tables}
    groups: dict[object, list[RowRef]] = {}
    for table_name, selection in (
        (query.left_table, query.left_selection),
        (query.right_table, query.right_selection),
    ):
        table, join_column = by_name[table_name]
        predicate = selection.to_predicate()
        join_index = table.schema.index_of(join_column)
        for i in table.matching_indices(predicate):
            groups.setdefault(table[i][join_index], []).append((table_name, i))
    return class_pairs(groups.values())


def connected_components(
    nodes: Iterable[Hashable], edges: Iterable[Iterable[Hashable]]
) -> list[list]:
    """The classes of the equivalence ``edges`` generate over ``nodes``
    and their own endpoints: each a sorted list, in the order their
    first member was seen (``nodes`` first, then edge endpoints)."""
    ledger = LeakageLedger()
    ledger.link((node, node) for node in nodes)
    ledger.link(edges)
    return ledger.classes()


def transitive_closure(pairs: set[Pair]) -> set[Pair]:
    """Close a pair set under transitivity of equality."""
    return class_pairs(connected_components((), pairs))


def is_super_additive(
    revealed: set[Pair], per_query_leakages: list[set[Pair]]
) -> bool:
    """Whether ``revealed`` exceeds the closure of the union of per-query sets.

    The paper calls a scheme's leakage *super-additive* when a series of
    queries reveals strictly more than the transitive closure of the sum
    of the individual queries' leakages.
    """
    budget = transitive_closure(set().union(*per_query_leakages, set()))
    return not revealed <= budget
