"""Experiment drivers: one function per paper artifact (Section 6).

Every driver returns an :class:`~repro.bench.harness.ExperimentResult`
whose records carry the same parameters the paper sweeps, so the
benchmark files and ``python -m repro.bench`` can print paper-style
tables.  Absolute times differ from the paper (pure Python vs. the
authors' C prototype — see EXPERIMENTS.md); the sweeps and trends are
the reproduction target.
"""

from __future__ import annotations

import random

from repro.baselines import (
    CryptDBScheme,
    DeterministicScheme,
    HahnScheme,
    SecureJoinAdapter,
    SerialEngine,
)
from repro.bench.harness import BenchmarkRecord, ExperimentResult, time_callable
from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.core.scheme import SecureJoinParams, SecureJoinScheme
from repro.core.server import SecureJoinServer
from repro.crypto.backend import get_backend
from repro.db.matcher import get_matcher
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.leakage.analyzer import analyze_schemes
from repro.tpch.generator import SELECTIVITY_VALUES, TPCHGenerator

# A single Customers row (m = 8 non-join attributes), as in Figure 2.
_CUSTOMERS_M = 8
_SAMPLE_JOIN_VALUE = 4242
_SAMPLE_ATTRIBUTES = (
    "Customer#000004242",
    "1709 regular st.",
    7,
    "21-467-899-1042",
    3056.30,
    "BUILDING",
    "carefully final accounts sleep",
    "1/100",
)


def figure2(
    t_values=tuple(range(1, 11)),
    backend_name: str = "bn254",
    repeats: int = 3,
    seed: int = 1,
) -> ExperimentResult:
    """Figure 2: TokenGen / Encryption / Decryption time per row vs. t.

    Uses one Customers row exactly as the paper does.  Each record's
    params carry ``t`` and ``operation``; seconds are per single call.
    """
    backend = get_backend(backend_name)
    result = ExperimentResult(
        name="figure2",
        notes=f"crypto micro-benchmarks, backend={backend_name}, m={_CUSTOMERS_M}",
    )
    for t in t_values:
        rng = random.Random(seed)
        params = SecureJoinParams(_CUSTOMERS_M, t, backend_name)
        scheme = SecureJoinScheme(params, backend, rng)
        msk = scheme.setup()
        selection = {0: [f"value-{i}" for i in range(t)]}
        query_key = scheme.new_query_key()

        token_mean, token_stdev = time_callable(
            lambda: scheme.token(msk, selection, query_key), repeats=repeats
        )
        result.records.append(BenchmarkRecord(
            {"t": t, "operation": "token_generation"},
            token_mean, token_stdev, repeats,
        ))

        enc_mean, enc_stdev = time_callable(
            lambda: scheme.encrypt_row(
                msk, _SAMPLE_JOIN_VALUE, _SAMPLE_ATTRIBUTES
            ),
            repeats=repeats,
        )
        result.records.append(BenchmarkRecord(
            {"t": t, "operation": "encryption"}, enc_mean, enc_stdev, repeats,
        ))

        token = scheme.token(msk, selection, query_key)
        ciphertext = scheme.encrypt_row(
            msk, _SAMPLE_JOIN_VALUE, _SAMPLE_ATTRIBUTES
        )
        dec_mean, dec_stdev = time_callable(
            lambda: scheme.decrypt(token, ciphertext), repeats=repeats
        )
        result.records.append(BenchmarkRecord(
            {"t": t, "operation": "decryption"}, dec_mean, dec_stdev, repeats,
        ))
    return result


def figure3(
    scale_factors=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1),
    selectivities=SELECTIVITY_VALUES,
    repeats: int = 3,
    prefilter: bool = True,
) -> ExperimentResult:
    """Figure 3: server-side join runtime vs. TPC-H scale factor.

    One series per selectivity; the IN clause has a single value (t=1),
    matching Section 6.3.  The measured quantity is the server's work:
    pre-filter + SJ.Dec over selected rows + hash matching.
    """
    result = ExperimentResult(
        name="figure3",
        notes="join runtime vs scale factor (fast backend, prefilter="
              f"{prefilter})",
    )
    for scale_factor in scale_factors:
        workload = build_encrypted_tpch(
            scale_factor, in_clause_limit=1, prefilter=prefilter
        )
        for selectivity in selectivities:
            query = tpch_query(selectivity, in_clause_size=1)
            encrypted_query = workload.client.create_query(query)
            holder = {}

            def run():
                holder["result"] = workload.server.execute_join(encrypted_query)

            mean, stdev = time_callable(run, repeats=repeats)
            stats = holder["result"].stats
            result.records.append(BenchmarkRecord(
                {"scale_factor": scale_factor, "selectivity": selectivity},
                mean, stdev, repeats,
                extra={
                    "decryptions": stats.decryptions,
                    "matches": stats.matches,
                    "rows_total": workload.num_customers + workload.num_orders,
                },
            ))
    return result


def figure4(
    in_clause_sizes=tuple(range(1, 11)),
    selectivities=SELECTIVITY_VALUES,
    scale_factor: float = 0.01,
    repeats: int = 3,
    prefilter: bool = True,
) -> ExperimentResult:
    """Figure 4: server-side join runtime vs. IN-clause size at SF 0.01."""
    result = ExperimentResult(
        name="figure4",
        notes=f"join runtime vs IN-clause size, SF={scale_factor}",
    )
    for t in in_clause_sizes:
        workload = build_encrypted_tpch(
            scale_factor, in_clause_limit=t, prefilter=prefilter
        )
        for selectivity in selectivities:
            query = tpch_query(selectivity, in_clause_size=t)
            encrypted_query = workload.client.create_query(query)
            holder = {}

            def run():
                holder["result"] = workload.server.execute_join(encrypted_query)

            mean, stdev = time_callable(run, repeats=repeats)
            stats = holder["result"].stats
            result.records.append(BenchmarkRecord(
                {"t": t, "selectivity": selectivity},
                mean, stdev, repeats,
                extra={"decryptions": stats.decryptions, "matches": stats.matches},
            ))
    return result


def side_handles(server, encrypted_query) -> list[list[tuple[int, bytes]]]:
    """Each side of a query drained once through SJ.Dec on ``server``:
    per chain position, its ``(row, handle)`` items as they arrived."""
    sides = []
    for table, token, prefilter in zip(
        encrypted_query.tables,
        encrypted_query.tokens,
        encrypted_query.prefilters,
    ):
        rows, stream = server.open_side_stream(table, token, prefilter)
        side: list = []
        for chunk in stream:
            end = chunk.start + len(chunk.handles)
            side.extend(zip(rows[chunk.start:end], chunk.handles))
        sides.append(side)
    return sides


def comparison_with_hahn(
    scale_factors=(0.002, 0.004, 0.006, 0.008, 0.01),
    selectivity: float = 1 / 100,
    repeats: int = 3,
) -> ExperimentResult:
    """Section 6.5: hash join (ours) vs. nested-loop join (Hahn et al.).

    Each side is decrypted once and both matchers run on the *same*
    encrypted handles, so the measured gap is purely the join algorithm
    — the structural advantage the paper claims (expected O(n) vs
    O(n^2)).  Comparison counts are recorded so the quadratic blow-up is
    visible independently of wall-clock noise.
    """
    result = ExperimentResult(
        name="comparison_hahn",
        notes="hash vs nested-loop matching on identical encrypted handles",
    )
    for scale_factor in scale_factors:
        workload = build_encrypted_tpch(
            scale_factor, in_clause_limit=1, prefilter=True
        )
        query = tpch_query(selectivity, in_clause_size=1)
        left, right = side_handles(
            workload.server, workload.client.create_query(query)
        )
        for algorithm in ("hash", "nested"):
            holder = {}

            def run():
                matcher = holder["matcher"] = get_matcher(algorithm)
                matcher.add_left(left)
                matcher.add_right(right)
                matcher.finish()

            mean, stdev = time_callable(run, repeats=repeats)
            stats = holder["matcher"].stats
            result.records.append(BenchmarkRecord(
                {"scale_factor": scale_factor, "algorithm": algorithm},
                mean, stdev, repeats,
                extra={
                    "comparisons": stats.comparisons,
                    "matches": stats.matches,
                    "decryptions": len(left) + len(right),
                },
            ))
    return result


#: The engine ablation's rows, as server arguments: the naive product
#: of pairings, the one engine inline (width 1), and the one engine on
#: a two-worker pool, which a side uses iff the backend's pool pays.
_ABLATION_SERVERS = {
    "serial": lambda: {"engine": SerialEngine()},
    "inline": lambda: {"workers": 1},
    "pooled": lambda: {"workers": 2},
}


def engine_ablation(
    scale_factors=(0.01, 0.02, 0.04),
    selectivity: float = 1 / 12.5,
    engines=tuple(_ABLATION_SERVERS),
    repeats: int = 3,
    prefilter: bool = True,
) -> ExperimentResult:
    """Ablation: how SJ.Dec is issued vs. join runtime and pairing ops.

    Runs the Figure 3 workload on one server per row of
    ``_ABLATION_SERVERS`` — ``serial`` (the naive
    :class:`~repro.baselines.SerialEngine`), ``inline`` and ``pooled``
    — all over the same encrypted tables, and records the
    pairing-operation counts alongside wall-clock time, so both the
    shared-final-exponentiation saving of the batched engine and what
    the pool does are visible.  Each server keeps its pool across the
    repeats, so a pooled first run pays the one-time fork and the rest
    measure the warm path; ``engine_selected`` records what ran —
    ``batched`` throughout on the fast backend, where the pool never
    pays.  Each record
    also carries the pipeline stage timings — ``time_to_first_match``
    (how long until the matcher emitted its first pair, the streaming
    win over full-side materialization), ``decrypt_seconds`` and
    ``match_seconds``.  Use :func:`repro.bench.harness.speedup_series`
    with ``baseline_group="serial"`` to summarize.
    """
    result = ExperimentResult(
        name="engine_ablation",
        notes=f"execution engines on the Figure 3 workload, s={selectivity}",
    )
    for scale_factor in scale_factors:
        workload = build_encrypted_tpch(
            scale_factor, in_clause_limit=1, prefilter=prefilter
        )
        query = tpch_query(selectivity, in_clause_size=1)
        encrypted_query = workload.client.create_query(query)
        for engine in engines:
            holder = {}
            # No series cache, as on the workload server: every repeat
            # must measure SJ.Dec, not a replay.
            with SecureJoinServer(
                workload.client.params,
                series_cache_bytes=None,
                **_ABLATION_SERVERS[engine](),
            ) as server:
                for name in encrypted_query.tables:
                    server.store(workload.server.table(name))

                def run():
                    holder["result"] = server.execute_join(encrypted_query)

                mean, stdev = time_callable(run, repeats=repeats)
            stats = holder["result"].stats
            result.records.append(BenchmarkRecord(
                {"scale_factor": scale_factor, "engine": engine},
                mean, stdev, repeats,
                extra={
                    "decryptions": stats.decryptions,
                    "matches": stats.matches,
                    "final_exponentiations": stats.final_exponentiations,
                    "miller_loops": stats.miller_loops,
                    "batches": stats.batches,
                    "workers": stats.workers,
                    "engine_selected": stats.engine_selected,
                    "pool_generation": stats.pool_generation,
                    "time_to_first_match": stats.time_to_first_match,
                    "decrypt_seconds": stats.decrypt_seconds,
                    "match_seconds": stats.match_seconds,
                    "concurrent_sides": stats.concurrent_sides,
                },
            ))
    return result


def example_tables() -> list[tuple[Table, str]]:
    """Tables 1 and 2 of the paper (Teams and Employees)."""
    teams = Table(
        "Teams",
        Schema.of(("key", "int"), ("name", "str")),
        [(1, "Web Application"), (2, "Database")],
    )
    employees = Table(
        "Employees",
        Schema.of(
            ("record", "int"), ("employee", "str"),
            ("role", "str"), ("team", "int"),
        ),
        [
            (1, "Hans", "Programmer", 1),
            (2, "Kaily", "Tester", 1),
            (3, "John", "Programmer", 2),
            (4, "Sally", "Tester", 2),
        ],
    )
    return [(teams, "key"), (employees, "team")]


def example_queries() -> list[JoinQuery]:
    """The t1 and t2 queries of Section 2.1."""
    q1 = JoinQuery.build(
        "Teams", "Employees", on=("key", "team"),
        where_left={"name": ["Web Application"]},
        where_right={"role": ["Tester"]},
    )
    q2 = JoinQuery.build(
        "Teams", "Employees", on=("key", "team"),
        where_left={"name": ["Database"]},
        where_right={"role": ["Programmer"]},
    )
    return [q1, q2]


def leakage_example(seed: int = 3):
    """Section 2.1 / Example 2.1: leakage timeline of all four schemes.

    Returns the :class:`~repro.leakage.analyzer.LeakageTimeline`; the
    expected pair counts are DET 6/6/6, CryptDB 0/6/6, Hahn 0/1/6,
    Secure Join 0/1/2 (the minimum).
    """
    schemes = [
        DeterministicScheme(),
        CryptDBScheme(),
        HahnScheme(),
        SecureJoinAdapter(rng=random.Random(seed)),
    ]
    return analyze_schemes(schemes, example_tables(), example_queries())


def prefilter_ablation(
    scale_factor: float = 0.01,
    selectivity: float = 1 / 100,
    repeats: int = 3,
) -> ExperimentResult:
    """Ablation: server join time with and without the SSE pre-filter.

    Without the pre-filter the server runs SJ.Dec on *every* row (the
    maximally private regime); with it, only on the selected fraction
    (the paper's evaluation regime).
    """
    result = ExperimentResult(
        name="prefilter_ablation",
        notes=f"SF={scale_factor}, selectivity={selectivity}",
    )
    for prefilter in (True, False):
        workload = build_encrypted_tpch(
            scale_factor, in_clause_limit=1, prefilter=prefilter
        )
        query = tpch_query(selectivity, in_clause_size=1)
        encrypted_query = workload.client.create_query(query)
        holder = {}

        def run():
            holder["result"] = workload.server.execute_join(encrypted_query)

        mean, stdev = time_callable(run, repeats=repeats)
        stats = holder["result"].stats
        result.records.append(BenchmarkRecord(
            {"prefilter": prefilter},
            mean, stdev, repeats,
            extra={"decryptions": stats.decryptions, "matches": stats.matches},
        ))
    return result


def backend_ablation(repeats: int = 3, seed: int = 2) -> ExperimentResult:
    """Ablation: identical per-row crypto on BN254 vs. the fast backend.

    Quantifies the substitution documented in DESIGN.md §4: what one row
    costs on the real pairing vs. the exponent-space backend.
    """
    result = ExperimentResult(name="backend_ablation")
    for backend_name in ("fast", "bn254"):
        sub = figure2(
            t_values=(1,), backend_name=backend_name,
            repeats=repeats, seed=seed,
        )
        for record in sub.records:
            record.params["backend"] = backend_name
            result.records.append(record)
    return result


def minimum_rows_decrypted(
    scale_factor: float = 0.01, selectivity: float = 1 / 100
) -> dict:
    """Sanity numbers for EXPERIMENTS.md: how many rows each query touches."""
    generator = TPCHGenerator(scale_factor)
    customers, orders = generator.both()
    label_count_customers = sum(
        1 for v in customers.column_values("selectivity")
        if v == tpch_query(selectivity).left_selection.as_dict()["selectivity"][0]
    )
    label_count_orders = sum(
        1 for v in orders.column_values("selectivity")
        if v == tpch_query(selectivity).right_selection.as_dict()["selectivity"][0]
    )
    return {
        "customers": len(customers),
        "orders": len(orders),
        "selected_customers": label_count_customers,
        "selected_orders": label_count_orders,
    }
