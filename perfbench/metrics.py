"""The benchmark's metric and workload names, in one place.

``BENCHMARK.json`` repeats these lists for the driver; the smoke test
asserts the two agree, and :func:`render` refuses to emit a run that
lacks one of the names.
"""

from __future__ import annotations

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: All six sit at the driver's ceiling: ten runs of one commit on this
#: sandbox still spread by 4-17 % after the speed correction (see
#: perfbench/README.md), and a bound should be twice the spread.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("first_match_ms_p50", "ms", "lower", 0.25),
    ("resubmit_ms_p50", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
)

#: (name, unit, better).  One traced run reports all of them; a layer a
#: workload never enters reads 0.
PER_LAYER = (
    # set-up
    ("tpch.generate_s", "s", "lower"),
    ("client.encrypt_us_per_row", "us", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.bytes_per_row", "bytes", "lower"),
    ("store.bytes_per_user_byte", "ratio", "lower"),
    ("shard.partition_s", "s", "lower"),
    # client
    ("client.token_ms", "ms", "lower"),
    ("client.decrypt_s", "s", "lower"),
    ("client.decrypt_us_per_match", "us", "lower"),
    ("crypto.sym_decrypt_us", "us", "lower"),
    # SJ.Dec engine, drained alone through open_side_stream
    ("engine.decrypt_s", "s", "lower"),
    ("engine.rows", "count", "lower"),
    ("engine.us_per_row", "us", "lower"),
    ("engine.chunks", "count", "lower"),
    ("engine.first_chunk_ms", "ms", "lower"),
    # SJ.Match, recorded handles fed to get_matcher("hash")
    ("matcher.match_s", "s", "lower"),
    ("matcher.us_per_handle", "us", "lower"),
    ("matcher.probes", "count", "lower"),
    ("matcher.comparisons", "count", "lower"),
    ("matcher.matches", "count", "higher"),
    # core.server
    ("server.execute_s", "s", "lower"),
    ("server.self_s", "s", "lower"),
    ("server.candidates", "count", "lower"),
    ("server.stats_decrypt_s", "s", "lower"),
    ("server.stats_match_s", "s", "lower"),
    ("server.stats_first_match_ms", "ms", "lower"),
    # series cache and handle store
    ("series.hit_ratio", "ratio", "higher"),
    ("series.replays", "count", "higher"),
    ("series.delta_refreshes", "count", "higher"),
    ("series.delta_rows_per_refresh", "count", "lower"),
    ("series.reused_handles", "count", "higher"),
    ("series.evictions", "count", "lower"),
    ("series.entries", "count", "higher"),
    ("series.bytes", "bytes", "lower"),
    ("series.budget_share", "ratio", "higher"),
    ("series.refresh_ms", "ms", "lower"),
    ("series.write_ms", "ms", "lower"),
    ("series.delete_us", "us", "lower"),
    ("plan.handle_store_hits", "count", "higher"),
    ("plan.handle_store_bytes", "bytes", "lower"),
    # repro.plan
    ("plan.compile_ms", "ms", "lower"),
    ("plan.order", "count", "lower"),
    ("plan.nodes", "count", "lower"),
    ("plan.handle_pool_hits", "count", "higher"),
    ("plan.executor_s", "s", "lower"),
    # store.wire, the remote query staged in-process
    ("wire.query_bytes", "bytes", "lower"),
    ("wire.query_encode_us", "us", "lower"),
    ("wire.query_decode_us", "us", "lower"),
    ("wire.result_bytes", "bytes", "lower"),
    ("wire.result_encode_ms", "ms", "lower"),
    ("wire.result_decode_ms", "ms", "lower"),
    ("wire.frames", "count", "lower"),
    ("wire.bytes_per_query", "bytes", "lower"),
    # repro.net
    ("net.connect_ms", "ms", "lower"),
    ("net.roundtrip_s", "s", "lower"),
    ("net.first_frame_ms", "ms", "lower"),
    ("net.socket_self_s", "s", "lower"),
    # repro.shard
    ("shard.scatter_s", "s", "lower"),
    ("shard.self_s", "s", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.rows_per_shard_max", "count", "lower"),
    # BN254 arithmetic
    ("crypto.miller_loop_ms", "ms", "lower"),
    ("crypto.miller_prepared_ms", "ms", "lower"),
    ("crypto.final_exp_ms", "ms", "lower"),
    ("crypto.fp12_mul_us", "us", "lower"),
    ("crypto.fp2_mul_us", "us", "lower"),
    ("crypto.prepare_row_ms", "ms", "lower"),
    ("crypto.query_prepared_ms", "ms", "lower"),
    ("crypto.miller_loops", "count", "lower"),
    ("crypto.prepared_miller_loops", "count", "lower"),
    ("crypto.final_exps", "count", "lower"),
    # the harness itself
    ("bench.query_ms_p95", "ms", "lower"),
    ("bench.speed_slice_us", "us", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
)

#: Read-outs that must repeat exactly for one seed, however long the run.
EXACT = (
    "engine.rows",
    "matcher.matches",
    "crypto.miller_loops",
    "crypto.prepared_miller_loops",
    "crypto.final_exps",
    "wire.query_bytes",
    "store.bytes_per_user_byte",
    "shard.rows_per_shard_max",
)


def render(values: dict[str, float], trace: bool) -> dict[str, dict]:
    """The ``metrics`` object of the result line, in declaration order."""
    if trace:
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _, _ in END_TO_END
    }
