"""Tests for the join cost model and paper-shape extrapolation, the
built-in per-backend models (both :mod:`repro.bench.costmodel`) and the
pool-or-inline rule that needs none."""

from __future__ import annotations

import importlib
import itertools
from pathlib import Path

import pytest

from repro.bench import costmodel, experiments
from repro.bench.costmodel import (
    BN254_ENGINE_COSTS,
    FAST_ENGINE_COSTS,
    CostModel,
    EngineCostModel,
    PAPER_FIGURE3_POINTS,
    default_engine_cost_model,
    expected_decryptions,
    fit_join_cost,
    implied_paper_unit_cost,
    paper_shape_errors,
    predict_with_unit_cost,
)
from repro.bench.harness import BenchmarkRecord
from repro.crypto.backend import FastBackend
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


class _PayingBackend(FastBackend):
    """The fast backend as if its pool paid, as BN254's does."""

    pool_pays = True


def _side(backend, rows: int, dimension: int = 5):
    """A token and ``rows`` ciphertext rows of ``dimension`` elements."""
    token = backend.g1_powers(range(1, dimension + 1))
    return token, [
        backend.g2_powers(range(r + 1, r + dimension + 1))
        for r in range(rows)
    ]


class TestEngineCostModel:
    """The built-in models, and the pool-or-inline rule that replaced
    pricing each side with them."""

    def test_default_models_per_backend(self):
        assert default_engine_cost_model("fast") is FAST_ENGINE_COSTS
        assert default_engine_cost_model("bn254") is BN254_ENGINE_COSTS
        # Unknown backends fall back to the fast-backend shape.
        assert default_engine_cost_model("???") is FAST_ENGINE_COSTS

    def test_two_candidate_rule_reproduces_the_three_candidate_decisions(self):
        """``tests/data/engine_decisions.bin`` holds what an earlier
        planner — three candidates, ``select_engine`` over ``allowed=
        ("batched", "parallel")``, no corrections — decided at 22 960
        points per built-in model (one bit per point, 1 = parallel).
        The engine only ever decides on a warm pool at least two
        workers wide, for a side of two rows or more: on that reachable
        subset, 8 526 points per backend, the backend's ``pool_pays``
        must decide every point the same way."""
        from repro.core.engine import BatchedEngine
        from repro.crypto.backend import BN254Backend

        golden = (_DATA / "engine_decisions.bin").read_bytes()
        grid = list(itertools.product(
            (FastBackend, BN254Backend),
            list(range(200)) + [500, 1_000, 5_000, 20_000, 100_000],
            (2, 3, 5, 8, 13, 21, 40),
            (1, 2, 4, 8),
            (False, True),
            (False, True),
        ))
        assert len(grid) == 45_920 == 8 * len(golden)
        engine = BatchedEngine()
        reachable = {"fast": 0, "bn254": 0}
        parallel = {"fast": 0, "bn254": 0}
        for index, point in enumerate(grid):
            backend, rows, _, workers, warm, _ = point
            if not (warm and workers >= 2 and rows >= 2):
                continue
            expected = (golden[index // 8] >> (7 - index % 8)) & 1
            # The class attribute is the rule's input: no backend (and
            # no BN254 table) needs building.
            assert engine.pools_side(backend, rows) == bool(expected), point
            reachable[backend.name] += 1
            parallel[backend.name] += expected
        assert reachable == {"fast": 8_526, "bn254": 8_526}
        assert parallel == {"fast": 0, "bn254": 8_526}

    def test_parallel_wins_when_compute_dominates(self):
        """A BN254 pairing is milliseconds of pure Python against
        microseconds of IPC: from two rows up its sides go to the pool."""
        from repro.core.engine import BatchedEngine
        from repro.crypto.backend import BN254Backend

        engine = BatchedEngine()
        assert BN254Backend.pool_pays
        assert [engine.pools_side(BN254Backend, rows)
                for rows in (1, 2, 64)] == [False, True, True]

    def test_transport_dominates_on_fast_backend(self):
        """Exponent-group pairings are so cheap that IPC always loses:
        a fast-backend side stays inline at any size, on any width."""
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService

        assert not FastBackend.pool_pays
        backend = FastBackend()
        token, rows = _side(backend, 40)
        engine = BatchedEngine(batch_size=8)
        with ExecutionService(workers=8) as service:
            engine.bind_service(service)
            for count in (2, 10, 40):
                _, report = engine.decrypt_handles(
                    backend, token, rows[:count]
                )
                assert report.selected == "batched"
            assert not service.started

    def test_single_worker_never_parallel(self):
        """One worker wide, nothing is decided: even a backend whose
        pool pays runs inline."""
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService

        backend = _PayingBackend()
        token, rows = _side(backend, 12)
        engine = BatchedEngine(batch_size=8)
        with ExecutionService(workers=1) as service:
            engine.bind_service(service)
            _, report = engine.decrypt_handles(backend, token, rows)
            assert not service.started
        assert (report.selected, report.workers) == ("", 1)

    def test_zero_rows_tie_goes_to_batched(self):
        """An empty side is nothing to share: it runs inline and
        selects nothing, even where the pool pays."""
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService

        backend = _PayingBackend()
        token, _ = _side(backend, 0)
        engine = BatchedEngine()
        with ExecutionService(workers=4) as service:
            engine.bind_service(service)
            handles, report = engine.decrypt_handles(backend, token, [])
            assert not service.started
        assert handles == []
        assert (report.engine, report.selected, report.batches) == (
            "batched", "", 0,
        )

    def test_cold_pool_charges_spawn_cost(self):
        """The pool is forked by the first side sent to it and then
        kept: its spawn is paid once, so no side is decided on whether
        the pool is warm yet."""
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService

        backend = _PayingBackend()
        token, rows = _side(backend, 6)
        engine = BatchedEngine()
        with ExecutionService(workers=2) as service:
            engine.bind_service(service)
            assert not service.started
            generations = [
                engine.decrypt_handles(backend, token, rows)[1]
                .pool_generation
                for _ in range(3)
            ]
        assert generations == [1, 1, 1]

    def test_retired_planner_inputs_are_refused(self):
        """No per-side or chain-order price is left to feed: the pricing
        functions and the runtime's cost module are gone, and a cost
        model handed to the engine is an error, not a silently ignored
        keyword."""
        from repro.core.engine import BatchedEngine

        for name in (
            "choose_engine", "estimate_engine_costs", "choose_join_order",
            "estimate_match_cost", "estimate_plan_costs",
        ):
            assert not hasattr(costmodel, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.plan.cost")
        with pytest.raises(TypeError):
            BatchedEngine(cost_model=BN254_ENGINE_COSTS)

    def test_invalid_inputs(self):
        """The model keeps what the scatter estimate reads; the six
        constants only the per-side price read and the three only the
        chain-order price read are no fields, and the model is no file
        format."""
        base = dict(
            backend="fast", miller_loop=1e-6, final_exponentiation=1e-6,
            row_overhead=1e-6,
        )
        EngineCostModel(**base)
        for retired in (
            "batch_overhead", "element_transport", "chunk_overhead",
            "pool_spawn", "switch_margin", "prepared_miller_loop",
            "hash_build", "hash_probe", "pair_emit",
        ):
            with pytest.raises(TypeError):
                EngineCostModel(**base, **{retired: 1.0})
        assert not hasattr(EngineCostModel, "save")
        assert not hasattr(EngineCostModel, "load")

