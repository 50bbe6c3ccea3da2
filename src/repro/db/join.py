"""Plaintext equi-join algorithms.

These serve two purposes in the reproduction:

1. *Ground truth* — the encrypted join's output is checked against the
   plaintext hash join on the same data and query.
2. *Cost model baselines* — the paper contrasts its ``O(n)`` hash join
   with the ``O(n^2)`` nested-loop join forced by Hahn et al.'s scheme,
   so both algorithms are implemented and instrumented.

The actual matching kernels live in :mod:`repro.db.matcher` — the same
incremental matchers the encrypted server's streaming pipeline feeds
chunk by chunk; here they are fed fully materialized sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.matcher import HashMatcher, NestedMatcher
from repro.db.predicate import Predicate, TruePredicate
from repro.db.schema import Column, Schema
from repro.db.table import Row, Table


@dataclass
class JoinStats:
    """Operation counts, for complexity assertions and benchmarks."""

    probes: int = 0
    comparisons: int = 0
    output_rows: int = 0


@dataclass
class JoinResult:
    """A joined table plus the matched row-index pairs (sorted
    lexicographically, as :func:`chain_join`'s tuples) and statistics."""

    table: Table
    index_pairs: list[tuple[int, int]] = field(default_factory=list)
    stats: JoinStats = field(default_factory=JoinStats)


def chain_prefixes(
    names: "list[str] | tuple[str, ...]",
    column_sets: "list[set[str]]",
) -> tuple[str, ...]:
    """Column prefixes for an n-way chain result.

    The rule every join result's schema follows, plaintext and
    decrypted alike, so reference and decrypted output carry
    byte-identical schemas: no prefixes while every table's columns are
    pairwise disjoint, else table-name prefixes, with occurrence
    numbers on repeated tables.
    """
    seen: set[str] = set()
    disjoint = True
    for columns in column_sets:
        if seen & columns:
            disjoint = False
            break
        seen |= columns
    if disjoint:
        return tuple("" for _ in names)
    repeats = {name for name in names if names.count(name) > 1}
    occurrence: dict[str, int] = {}
    prefixes = []
    for name in names:
        if name in repeats:
            occurrence[name] = occurrence.get(name, 0) + 1
            prefixes.append(f"{name}.{occurrence[name]}.")
        else:
            prefixes.append(f"{name}.")
    return tuple(prefixes)


def chain_schema(names, schemas) -> Schema:
    """Concatenated schema of an n-way chain result."""
    prefixes = chain_prefixes(
        list(names), [set(s.names()) for s in schemas]
    )
    columns = []
    for prefix, schema in zip(prefixes, schemas):
        for column in schema.columns:
            columns.append(Column(prefix + column.name, column.type))
    return Schema(tuple(columns))


def hash_join(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    left_predicate: Predicate | None = None,
    right_predicate: Predicate | None = None,
) -> JoinResult:
    """Equi-join with an expected ``O(|left| + |right|)`` hash join.

    Selection predicates are applied before the join (selection pushdown),
    mirroring how the encrypted scheme only matches rows that satisfy
    the selection criterion.
    """
    left_predicate = left_predicate or TruePredicate()
    right_predicate = right_predicate or TruePredicate()
    left_key = left.schema.index_of(left_column)
    right_key = right.schema.index_of(right_column)

    left_rows = list(left)
    right_rows = list(right)
    # Build-then-probe: the left side is complete before the first
    # probe, so the symmetric right-side bookkeeping is dead weight.
    matcher = HashMatcher(symmetric=False)
    matcher.add_left(
        (i, row[left_key])
        for i, row in enumerate(left_rows)
        if left_predicate.evaluate(row, left.schema)
    )
    matcher.add_right(
        (j, row[right_key])
        for j, row in enumerate(right_rows)
        if right_predicate.evaluate(row, right.schema)
    )
    pairs = matcher.finish()

    result = Table(
        "join",
        chain_schema((left.name, right.name), (left.schema, right.schema)),
    )
    for i, j in pairs:
        result.insert(left_rows[i] + right_rows[j])
    stats = JoinStats(
        probes=matcher.stats.probes,
        comparisons=matcher.stats.comparisons,
        output_rows=len(pairs),
    )
    return JoinResult(result, pairs, stats)


def nested_loop_join(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    left_predicate: Predicate | None = None,
    right_predicate: Predicate | None = None,
) -> JoinResult:
    """The ``O(|left| * |right|)`` nested-loop equi-join.

    Produces exactly the same rows as :func:`hash_join`, in the same
    order; its instrumented comparison count is what the Section 6.5
    comparison against Hahn et al. relies on.
    """
    left_predicate = left_predicate or TruePredicate()
    right_predicate = right_predicate or TruePredicate()
    left_key = left.schema.index_of(left_column)
    right_key = right.schema.index_of(right_column)

    left_rows = list(left)
    right_rows = list(right)
    matcher = NestedMatcher()
    matcher.add_left(
        (i, row[left_key])
        for i, row in enumerate(left_rows)
        if left_predicate.evaluate(row, left.schema)
    )
    matcher.add_right(
        (j, row[right_key])
        for j, row in enumerate(right_rows)
        if right_predicate.evaluate(row, right.schema)
    )
    pairs = matcher.finish()

    result = Table(
        "join",
        chain_schema((left.name, right.name), (left.schema, right.schema)),
    )
    for i, j in pairs:
        result.insert(left_rows[i] + right_rows[j])
    stats = JoinStats(
        probes=matcher.stats.probes,
        comparisons=matcher.stats.comparisons,
        output_rows=len(pairs),
    )
    return JoinResult(result, pairs, stats)


@dataclass
class ChainJoinResult:
    """An n-way chain join result: joined table + row-index tuples."""

    table: Table
    index_tuples: list[tuple[int, ...]] = field(default_factory=list)
    stats: JoinStats = field(default_factory=JoinStats)


def chain_join(
    tables: "list[Table]",
    columns: "list[str]",
    predicates: "list[Predicate | None] | None" = None,
) -> ChainJoinResult:
    """Ground-truth n-way chain equi-join.

    Each table carries one join column, so the chain is transitive: a
    result tuple picks one (predicate-surviving) row per position, all
    sharing the same join value — exactly the n-way handle-equality
    class the encrypted :class:`~repro.plan.executor.ChainExecutor`
    computes.  ``index_tuples`` come out sorted lexicographically, the
    same canonical order the executor's ``finish`` uses, so encrypted
    and plaintext outputs compare byte-for-byte.
    """
    if len(tables) < 2 or len(tables) != len(columns):
        raise ValueError("chain_join needs matching tables and columns, n >= 2")
    if predicates is None:
        predicates = [None] * len(tables)
    all_rows = [list(table) for table in tables]
    # Bucket each position's surviving rows by join value, then walk
    # the value classes common to every position.
    buckets: list[dict[object, list[int]]] = []
    probes = 0
    for table, column, predicate, rows in zip(
        tables, columns, predicates, all_rows
    ):
        predicate = predicate or TruePredicate()
        key = table.schema.index_of(column)
        bucket: dict[object, list[int]] = {}
        for i, row in enumerate(rows):
            if predicate.evaluate(row, table.schema):
                bucket.setdefault(row[key], []).append(i)
                probes += 1
        buckets.append(bucket)
    common = set(buckets[0])
    for bucket in buckets[1:]:
        common &= set(bucket)

    index_tuples: list[tuple[int, ...]] = []
    for value in common:
        partial: list[tuple[int, ...]] = [()]
        for bucket in buckets:
            partial = [
                prefix + (i,) for prefix in partial for i in bucket[value]
            ]
        index_tuples.extend(partial)
    index_tuples.sort()

    result = Table(
        "join",
        chain_schema(
            [t.name for t in tables], [t.schema for t in tables]
        ),
    )
    for combo in index_tuples:
        joined: tuple = ()
        for position, i in enumerate(combo):
            joined = joined + tuple(all_rows[position][i])
        result.insert(joined)
    stats = JoinStats(
        probes=probes,
        comparisons=probes,
        output_rows=len(index_tuples),
    )
    return ChainJoinResult(result, index_tuples, stats)
