"""Edge-case tests for the LSS pilot/second-stage budget clamps.

Historically the clamp order could leave ``second_stage_samples <= 0`` at
tiny budgets (the ``max(pilot_size, 2)`` floor was applied *after* the
stage-II reservation), silently starving the second stage.  The normalised
clamps guarantee a positive second stage whenever one is affordable and
degrade to a deterministic pilot-only SRS estimate when it is not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lss import LearnedStratifiedSampling
from repro.workloads.queries import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload("sports", level="S", num_rows=400)


class TestTinyBudgets:
    @pytest.mark.parametrize("budget", range(8, 24))
    @pytest.mark.parametrize("num_strata", [2, 4, 8, 16])
    def test_every_tiny_budget_yields_an_estimate(self, workload, budget, num_strata):
        estimator = LearnedStratifiedSampling(num_strata=num_strata)
        estimate = estimator.estimate(workload.query, budget, seed=np.random.default_rng(5))
        assert np.isfinite(estimate.count)
        assert 0.0 <= estimate.count <= workload.num_objects
        assert estimate.predicate_evaluations <= budget

    @pytest.mark.parametrize("num_strata", [8, 16])
    def test_infeasible_design_degrades_to_pilot_only(self, workload, num_strata):
        # sampling budget (~6 after the learning split) cannot cover a
        # 2-object pilot plus one fresh sample per stratum.
        estimator = LearnedStratifiedSampling(num_strata=num_strata)
        estimate = estimator.estimate(workload.query, 8, seed=np.random.default_rng(9))
        assert estimate.details["degenerate"] == "pilot-only"
        assert estimate.interval is not None
        assert estimate.method == "lss"

    def test_feasible_design_still_uses_two_stages(self, workload):
        estimator = LearnedStratifiedSampling(num_strata=4)
        estimate = estimator.estimate(workload.query, 60, seed=np.random.default_rng(2))
        assert "degenerate" not in estimate.details
        assert estimate.details["pilot_size"] >= 2
        # The reservation holds: pilot left at least one fresh sample per
        # stratum for stage II.
        assert estimate.details["pilot_size"] <= 60 - estimate.details["num_strata"]

    def test_pilot_only_is_deterministic(self, workload):
        estimator = LearnedStratifiedSampling(num_strata=16)
        first = estimator.estimate(workload.query, 9, seed=np.random.default_rng(31))
        second = estimator.estimate(workload.query, 9, seed=np.random.default_rng(31))
        assert first.count == second.count
        assert first.interval == second.interval

    def test_budget_floor_still_enforced(self, workload):
        with pytest.raises(ValueError, match="at least 8"):
            LearnedStratifiedSampling().estimate(workload.query, 7, seed=0)

    def test_pilot_only_accounting_stays_within_budget(self, workload):
        estimator = LearnedStratifiedSampling(num_strata=12)
        with workload.query.fresh_accounting():
            estimate = estimator.estimate(workload.query, 10, seed=np.random.default_rng(4))
            assert workload.query.evaluations == estimate.predicate_evaluations
            assert workload.query.evaluations <= 10


class TestDesignFallback:
    def test_invalid_optimizer_option_raises(self, workload):
        # A configuration error is not an infeasible pilot: it must surface
        # instead of silently serving a fixed-height estimate.
        estimator = LearnedStratifiedSampling(optimizer_options={"grid_ratio": -1.0})
        with pytest.raises(ValueError, match="grid_ratio"):
            estimator.estimate(workload.query, 60, seed=np.random.default_rng(2))

    def test_infeasible_pilot_falls_back_to_fixed_height(self, workload):
        estimator = LearnedStratifiedSampling(min_stratum_size=workload.num_objects + 1)
        estimate = estimator.estimate(workload.query, 60, seed=np.random.default_rng(2))
        assert estimate.details["design"].algorithm == "fixed-height"
