"""Tests for the join cost model and paper-shape extrapolation
(:mod:`repro.bench.costmodel`), and for the two decisions the runtime
prices (:mod:`repro.plan.cost`)."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.costmodel import (
    CostModel,
    PAPER_FIGURE3_POINTS,
    expected_decryptions,
    fit_join_cost,
    implied_paper_unit_cost,
    paper_shape_errors,
    predict_with_unit_cost,
)
from repro.bench.harness import BenchmarkRecord
from repro.errors import BenchmarkError

_DATA = Path(__file__).parent / "data"


class TestExpectedDecryptions:
    def test_sf_001_s_100(self):
        # 1500 customers + 15000 orders, 1% each -> 15 + 150.
        assert expected_decryptions(0.01, 1 / 100) == 165

    def test_scales_linearly(self):
        assert expected_decryptions(0.1, 1 / 100) == pytest.approx(
            10 * expected_decryptions(0.01, 1 / 100), rel=0.01
        )


class TestFit:
    def test_recovers_synthetic_coefficients(self):
        model_true = (2e-6, 5e-7, 1e-3)
        records = []
        for decryptions, matches in [(100, 5), (500, 40), (1000, 90),
                                     (2000, 200), (4000, 350)]:
            seconds = (
                model_true[0] * decryptions
                + model_true[1] * matches
                + model_true[2]
            )
            records.append(BenchmarkRecord(
                {"d": decryptions}, seconds,
                extra={"decryptions": decryptions, "matches": matches},
            ))
        model = fit_join_cost(records)
        assert model.per_decryption == pytest.approx(model_true[0], rel=1e-6)
        assert model.per_match == pytest.approx(model_true[1], rel=1e-6)
        assert model.fixed == pytest.approx(model_true[2], rel=1e-6)
        assert model.predict(3000, 250) == pytest.approx(
            model_true[0] * 3000 + model_true[1] * 250 + model_true[2]
        )

    def test_too_few_points(self):
        with pytest.raises(BenchmarkError):
            fit_join_cost([])

    def test_fit_from_real_measurements(self):
        """Fit on actual figure3 runs; prediction must track reality.

        The measured joins are sub-millisecond at these scale factors,
        so a single GC pause or scheduler stall mid-sample (common late
        in a full-suite session with all the benchmark workloads on the
        heap) can dominate one record and flip the near-collinear fit's
        coefficients.  That is measurement noise, not a modeling
        failure: average over repeats and allow a clean-measurement
        retry before declaring the fit wrong.  Deterministic coverage
        of the fit math itself (no retries, exact coefficients) lives
        in ``test_recovers_synthetic_coefficients``.
        """
        last_error = None
        for _ in range(3):
            result = experiments.figure3(
                scale_factors=(0.002, 0.004), repeats=3
            )
            model = fit_join_cost(result.records)
            try:
                assert model.per_decryption > 0
                for record in result.records:
                    predicted = model.predict(
                        record.extra["decryptions"], record.extra["matches"]
                    )
                    assert predicted == pytest.approx(
                        record.seconds_mean, rel=1.0
                    )
                return
            except AssertionError as error:
                last_error = error
        raise last_error


class TestPaperShape:
    def test_single_unit_cost_explains_figure3(self):
        """One per-decryption constant reproduces all four reported
        corner points of Figure 3 to within 5% — the 'shape holds'
        claim of EXPERIMENTS.md, quantified."""
        errors = paper_shape_errors()
        assert all(error < 0.05 for error in errors.values()), errors

    def test_implied_unit_cost_matches_figure2(self):
        """The per-decryption cost implied by Figure 3 equals Figure 2's
        reported single-row decryption time (21.2 ms at t=1): the
        paper's two experiments are mutually consistent, and our
        analytic model captures both with one constant."""
        cost = implied_paper_unit_cost()
        assert cost == pytest.approx(0.0212, rel=0.05)

    def test_prediction_monotone_in_both_axes(self):
        cost = implied_paper_unit_cost()
        assert predict_with_unit_cost(cost, 0.1, 1 / 100) > (
            predict_with_unit_cost(cost, 0.01, 1 / 100)
        )
        assert predict_with_unit_cost(cost, 0.01, 1 / 12.5) > (
            predict_with_unit_cost(cost, 0.01, 1 / 100)
        )

    def test_paper_points_present(self):
        assert len(PAPER_FIGURE3_POINTS) == 4


class TestEngineCostModel:
    """The planner's per-engine runtime estimates and decision rule."""

    def _model(self, **overrides):
        from repro.plan.cost import FAST_ENGINE_COSTS
        from dataclasses import replace

        return replace(FAST_ENGINE_COSTS, **overrides)

    def test_default_models_per_backend(self):
        from repro.bench import costmodel
        from repro.plan.cost import (
            BN254_ENGINE_COSTS,
            FAST_ENGINE_COSTS,
            default_engine_cost_model,
        )

        assert default_engine_cost_model("fast") is FAST_ENGINE_COSTS
        assert default_engine_cost_model("bn254") is BN254_ENGINE_COSTS
        # Unknown backends fall back to the fast-backend shape.
        assert default_engine_cost_model("???") is FAST_ENGINE_COSTS
        # The name the gating benchmark imports is the runtime's own.
        assert costmodel.default_engine_cost_model is default_engine_cost_model

    def test_two_candidate_rule_reproduces_the_three_candidate_decisions(self):
        """``tests/data/engine_decisions.bin`` holds what the previous
        planner — three candidates, ``select_engine`` over ``allowed=
        ("batched", "parallel")``, no corrections — decided at 22 960
        points per built-in model (one bit per point, 1 = parallel,
        written on the commit before ``serial`` left the planner; there
        it never won a single point with all three allowed either).
        The one-rule planner must decide every point the same way."""
        from repro.plan.cost import (
            BN254_ENGINE_COSTS,
            FAST_ENGINE_COSTS,
            choose_engine,
        )

        golden = (_DATA / "engine_decisions.bin").read_bytes()
        grid = list(itertools.product(
            (FAST_ENGINE_COSTS, BN254_ENGINE_COSTS),
            list(range(200)) + [500, 1_000, 5_000, 20_000, 100_000],
            (2, 3, 5, 8, 13, 21, 40),
            (1, 2, 4, 8),
            (False, True),
            (False, True),
        ))
        assert len(grid) == 45_920 == 8 * len(golden)
        parallel = {"fast": 0, "bn254": 0}
        for index, point in enumerate(grid):
            model, rows, dimension, workers, warm, prepared = point
            chosen, estimates = choose_engine(
                model, rows=rows, dimension=dimension, workers=workers,
                batch_size=64, pool_warm=warm, prepared=prepared,
            )
            assert set(estimates) == {"batched", "parallel"}
            expected = (golden[index // 8] >> (7 - index % 8)) & 1
            assert chosen == ("parallel" if expected else "batched"), point
            parallel[model.backend] += expected
        assert parallel == {"fast": 0, "bn254": 16_125}

    def test_parallel_wins_when_compute_dominates(self):
        from repro.plan.cost import BN254_ENGINE_COSTS, choose_engine

        chosen, estimates = choose_engine(
            BN254_ENGINE_COSTS, rows=64, dimension=21,
            workers=4, batch_size=64, pool_warm=False,
        )
        assert chosen == "parallel"
        assert estimates["parallel"] < estimates["batched"]

    def test_transport_dominates_on_fast_backend(self):
        """Exponent-group pairings are so cheap that IPC always loses:
        auto must stick to batched at any realistic size."""
        from repro.plan.cost import choose_engine

        model = self._model()
        for rows in (10, 1000, 100000):
            chosen, _ = choose_engine(
                model, rows=rows, dimension=21, workers=8,
                batch_size=64, pool_warm=True,
            )
            assert chosen == "batched"

    def test_single_worker_never_parallel(self):
        from repro.plan.cost import BN254_ENGINE_COSTS, choose_engine

        chosen, _ = choose_engine(
            BN254_ENGINE_COSTS, rows=512, dimension=21,
            workers=1, batch_size=64, pool_warm=True,
        )
        assert chosen == "batched"

    def test_switch_margin_protects_the_default(self):
        """A candidate barely under batched must NOT displace it."""
        from repro.plan.cost import choose_engine

        # Make parallel ~20% cheaper than batched: inside the 25% margin.
        model = self._model(
            element_transport=0.0, chunk_overhead=0.0, pool_spawn=0.0,
            miller_loop=1e-6, final_exponentiation=1e-9,
            row_overhead=2e-5, switch_margin=1.25,
        )
        chosen, estimates = choose_engine(
            model, rows=1000, dimension=10, workers=2,
            batch_size=64, pool_warm=True,
        )
        assert estimates["parallel"] < estimates["batched"]
        assert chosen == "batched"
        # Widen the gap beyond the margin: parallel may take over.
        model = self._model(
            element_transport=0.0, chunk_overhead=0.0, pool_spawn=0.0,
            miller_loop=1e-6, final_exponentiation=1e-9,
            row_overhead=0.0, switch_margin=1.25,
        )
        chosen, _ = choose_engine(
            model, rows=1000, dimension=10, workers=4,
            batch_size=64, pool_warm=True,
        )
        assert chosen == "parallel"

    def test_zero_rows_tie_goes_to_batched(self):
        """An empty side costs 0.0 inline, and on a warm pool too; the
        tie must go to the default, whatever the margin."""
        from repro.plan.cost import choose_engine

        chosen, estimates = choose_engine(
            self._model(), rows=0, dimension=5, workers=4, batch_size=64
        )
        assert chosen == "batched"
        assert estimates["batched"] == 0.0
        # A cold pool still charges its spawn cost, even for zero rows.
        assert estimates["parallel"] > 0.0
        chosen, estimates = choose_engine(
            self._model(switch_margin=0.5), rows=0, dimension=5,
            workers=4, batch_size=64, pool_warm=True,
        )
        assert estimates == {"batched": 0.0, "parallel": 0.0}
        assert chosen == "batched"

    def test_cold_pool_charges_spawn_cost(self):
        from repro.plan.cost import estimate_engine_costs

        model = self._model()
        cold = estimate_engine_costs(
            model, rows=100, dimension=5, workers=4, batch_size=64,
            pool_warm=False,
        )
        warm = estimate_engine_costs(
            model, rows=100, dimension=5, workers=4, batch_size=64,
            pool_warm=True,
        )
        assert cold["parallel"] == pytest.approx(
            warm["parallel"] + 4 * model.pool_spawn
        )
        assert cold["batched"] == warm["batched"]

    def test_retired_planner_inputs_are_refused(self):
        """No candidate allowlist and no correction factors: passing
        one is an error, not a silently ignored keyword."""
        from repro.plan.cost import BN254_ENGINE_COSTS, choose_engine

        point = dict(rows=64, dimension=21, workers=4, batch_size=64)
        with pytest.raises(TypeError):
            choose_engine(BN254_ENGINE_COSTS, allowed=("serial",), **point)
        with pytest.raises(TypeError):
            choose_engine(
                BN254_ENGINE_COSTS, corrections={"parallel": 100.0}, **point
            )

    def test_cost_model_file_of_the_previous_version_loads(self):
        """``tests/data/cost_model_pr17.json`` is ``BN254_ENGINE_COSTS``
        as the previous version saved it, with the three constants that
        version still had; an operator's calibrated file keeps loading."""
        import json

        from repro.plan.cost import BN254_ENGINE_COSTS, EngineCostModel

        path = _DATA / "cost_model_pr17.json"
        retired = {"nested_compare", "delta_dispatch", "shard_dispatch"}
        assert retired <= set(json.loads(path.read_text())["model"])
        loaded = EngineCostModel.load(path)
        assert loaded == BN254_ENGINE_COSTS
        assert not retired & set(vars(loaded))

    def test_invalid_inputs(self):
        from repro.plan.cost import estimate_engine_costs
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            estimate_engine_costs(
                self._model(), rows=-1, dimension=5, workers=2, batch_size=8
            )
        with pytest.raises(BenchmarkError):
            estimate_engine_costs(
                self._model(), rows=5, dimension=0, workers=2, batch_size=8
            )


class TestCalibration:
    def test_calibrate_on_fast_backend(self):
        from repro.bench.costmodel import calibrate_engine_cost_model
        from repro.crypto.backend import FastBackend

        model = calibrate_engine_cost_model(
            FastBackend(), dimension=6, rows=16, repeats=2
        )
        assert model.backend == "fast"
        assert model.miller_loop > 0
        assert model.final_exponentiation > 0
        assert model.prepared_miller_loop > 0
        # Only the pairing constants are measured; what the pool
        # charges is inherited from the backend's built-in model.
        from repro.plan.cost import FAST_ENGINE_COSTS, estimate_engine_costs

        assert model.chunk_overhead == FAST_ENGINE_COSTS.chunk_overhead
        assert model.pool_spawn == FAST_ENGINE_COSTS.pool_spawn
        est = estimate_engine_costs(
            model, rows=256, dimension=6, workers=2, batch_size=64
        )
        assert 0.0 < est["batched"] < est["parallel"]

    def test_calibrate_rejects_degenerate_shapes(self):
        from repro.bench.costmodel import calibrate_engine_cost_model
        from repro.crypto.backend import FastBackend
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            calibrate_engine_cost_model(FastBackend(), dimension=1)
        with pytest.raises(BenchmarkError):
            calibrate_engine_cost_model(FastBackend(), rows=0)


class TestPlannerRecord:
    """Predicted against actual, per side, with nothing learnt from it."""

    def test_auto_engine_records_predicted_and_actual(self):
        """End to end: every side's planner record carries both
        estimates and the observed seconds — and the model the engine
        prices with is the same object after the queries as before."""
        import random

        from repro.core.client import SecureJoinClient
        from repro.core.engine import BatchedEngine
        from repro.core.server import SecureJoinServer
        from repro.db.query import JoinQuery
        from repro.db.schema import Schema
        from repro.db.table import Table

        left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                     [(i % 5, f"a{i}") for i in range(30)])
        right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                      [(i % 5, f"b{i}") for i in range(20)])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=1,
            rng=random.Random(3),
        )
        engine = BatchedEngine(batch_size=8)
        server = SecureJoinServer(client.params, engine=engine, workers=2)
        server.store(client.encrypt_table(left, "k"))
        server.store(client.encrypt_table(right, "k"))
        query = JoinQuery.build("L", "R", on=("k", "k"))
        first = server.execute_join(client.create_query(query))
        for _ in range(3):
            result = server.execute_join(client.create_query(query))
        assert len(result.stats.planner) == 2
        for side, before in zip(result.stats.planner, first.stats.planner):
            assert side["actual_seconds"] > 0.0
            assert set(side["estimates"]) == {"batched", "parallel"}
            assert side["chosen"] == "batched"
            # Same inputs, same model: the fourth query is priced
            # exactly as the first was.
            assert side["estimates"] == before["estimates"]
            assert "corrections" not in side
        assert engine.cost_model is None
        assert not hasattr(engine, "calibrator")
        server.close()


class TestMatcherCostModel:
    """Pricing one hash-match node, the unit of the join-order choice."""

    def _model(self):
        from repro.plan.cost import FAST_ENGINE_COSTS

        return FAST_ENGINE_COSTS

    def test_hash_cost_is_linear_in_rows(self):
        from repro.plan.cost import estimate_match_cost

        model = self._model()
        small = estimate_match_cost(model, 100, 100)
        large = estimate_match_cost(model, 200, 200)
        assert small == pytest.approx(
            100 * model.hash_build + 100 * model.hash_probe
        )
        assert large == pytest.approx(2 * small)

    def test_expected_matches_are_charged(self):
        from repro.plan.cost import estimate_match_cost

        model = self._model()
        without = estimate_match_cost(model, 50, 50, expected_matches=0)
        with_matches = estimate_match_cost(model, 50, 50, expected_matches=10)
        assert with_matches == pytest.approx(without + 10 * model.pair_emit)

    def test_invalid_inputs(self):
        from repro.plan.cost import estimate_match_cost
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            estimate_match_cost(self._model(), -1, 5)
        with pytest.raises(BenchmarkError):
            estimate_match_cost(self._model(), 5, 5, expected_matches=-1)
