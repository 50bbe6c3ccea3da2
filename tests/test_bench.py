"""Tests for the benchmark harness and experiment drivers (small configs)."""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.harness import (
    BenchmarkRecord,
    ExperimentResult,
    format_series_table,
    time_callable,
)
from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.errors import QueryError


class TestHarness:
    def test_time_callable(self):
        mean, stdev = time_callable(lambda: sum(range(100)), repeats=3)
        assert mean > 0
        assert stdev >= 0

    def test_single_repeat_no_stdev(self):
        mean, stdev = time_callable(lambda: None, repeats=1)
        assert stdev == 0.0

    def test_record_millis(self):
        record = BenchmarkRecord({"x": 1}, 0.5)
        assert record.millis_mean == 500.0

    def test_result_filter(self):
        result = ExperimentResult("e")
        result.records.append(BenchmarkRecord({"a": 1, "b": 2}, 0.1))
        result.records.append(BenchmarkRecord({"a": 1, "b": 3}, 0.2))
        assert len(result.filter(a=1)) == 2
        assert len(result.filter(b=3)) == 1
        assert result.filter(b=9) == []

    def test_result_series(self):
        result = ExperimentResult("e")
        result.records.append(BenchmarkRecord({"x": 2, "g": "s"}, 0.2))
        result.records.append(BenchmarkRecord({"x": 1, "g": "s"}, 0.1))
        series = result.series("x", "g")
        assert series["s"] == [(1, 0.1), (2, 0.2)]

    def test_format_table(self):
        text = format_series_table(
            "title", [{"a": 1, "b": 2.5}], ["a", "b", "missing"]
        )
        assert "title" in text
        assert "2.5" in text
        assert "-" in text


class TestWorkloads:
    def test_build_and_cache(self):
        first = build_encrypted_tpch(0.001, in_clause_limit=1)
        second = build_encrypted_tpch(0.001, in_clause_limit=1)
        assert first is second  # cached
        assert first.num_customers == 150
        assert first.num_orders == 1500

    def test_no_cache_builds_fresh(self):
        first = build_encrypted_tpch(0.001, use_cache=False)
        second = build_encrypted_tpch(0.001, use_cache=False)
        assert first is not second

    def test_tpch_query_shape(self):
        query = tpch_query(1 / 100, in_clause_size=3)
        values = query.left_selection.as_dict()["selectivity"]
        assert values[0] == "1/100"
        assert len(values) == 3
        assert query.left_join_column == "custkey"

    def test_bad_selectivity(self):
        with pytest.raises(Exception):
            tpch_query(0.42)


class TestExperimentDrivers:
    def test_figure2_fast(self):
        result = experiments.figure2(
            t_values=(1, 2), backend_name="fast", repeats=1
        )
        operations = {r.params["operation"] for r in result.records}
        assert operations == {"token_generation", "encryption", "decryption"}
        assert len(result.records) == 6

    def test_figure3_tiny(self):
        result = experiments.figure3(
            scale_factors=(0.001,), selectivities=(1 / 100, 1 / 12.5),
            repeats=1,
        )
        assert len(result.records) == 2
        # Higher selectivity decrypts more rows.
        low = result.filter(selectivity=1 / 100)[0]
        high = result.filter(selectivity=1 / 12.5)[0]
        assert high.extra["decryptions"] > low.extra["decryptions"]

    def test_figure4_tiny(self):
        result = experiments.figure4(
            in_clause_sizes=(1, 2), selectivities=(1 / 100,),
            scale_factor=0.001, repeats=1,
        )
        assert len(result.records) == 2

    def test_comparison_tiny(self):
        result = experiments.comparison_with_hahn(
            scale_factors=(0.001,), repeats=1
        )
        hash_rec = result.filter(algorithm="hash")[0]
        nested_rec = result.filter(algorithm="nested")[0]
        assert nested_rec.extra["comparisons"] > hash_rec.extra["comparisons"]
        assert nested_rec.extra["matches"] == hash_rec.extra["matches"]

    def test_prefilter_ablation_tiny(self):
        result = experiments.prefilter_ablation(
            scale_factor=0.001, repeats=1
        )
        with_filter = result.filter(prefilter=True)[0]
        without = result.filter(prefilter=False)[0]
        assert without.extra["decryptions"] > with_filter.extra["decryptions"]
        assert without.extra["matches"] == with_filter.extra["matches"]

    def test_leakage_example_numbers(self):
        timeline = experiments.leakage_example()
        assert timeline.summary()["securejoin"] == [0, 1, 2]
