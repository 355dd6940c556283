"""The Garg-Konemann lower-bound oracle: bounds, certificates, infeasibility."""

import json

import pytest

from repro.bounds import (
    BoundOptions,
    bound_scenario,
    compute_bound,
    plan_surrogate_cost,
    verify_certificate,
)
from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError
from repro.explore.executor import metrics_from_state
from repro.geometry import Rect
from repro.service.engine import build_graph, full_plan
from repro.service.jobs import ScenarioSpec
from repro.tilegraph import CapacityModel, TileGraph


SCENARIO = ScenarioSpec(
    grid=12, num_nets=40, total_sites=300, seed=0, site_seed=0
)


class TestOptions:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(mode="simplex")

    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            BoundOptions(epsilon=1.5)

    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(iterations=0)

    def test_theta_grid_needs_zero(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(theta_grid=(0.5, 1.0))


class TestLowerBound:
    def test_bound_below_plan_cost(self):
        """The acceptance invariant: certified LB <= RABID plan cost."""
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        metrics = metrics_from_state(full_plan(SCENARIO, RabidConfig()))
        assert metrics["unassigned_nets"] == 0
        plan = plan_surrogate_cost(metrics)
        assert not bound.certified_infeasible
        assert 0.0 < bound.lower_bound <= plan
        # theta=0 is always on the grid, so the constrained line search
        # can never do worse than the unconstrained floor.
        assert bound.lower_bound >= bound.unconstrained_bound

    def test_dual_feasibility(self):
        """The certificate re-verifies against an independent pricing pass."""
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        graph = build_graph(SCENARIO)
        nets = SCENARIO.nets()
        limits = SCENARIO.limits(sorted(nets))
        verdict = verify_certificate(bound.certificate(), graph, nets, limits)
        assert verdict["ok"]
        assert verdict["nets_checked"] == len(nets)
        assert verdict["worst_dual_violation"] <= 1e-6
        assert bound.lower_bound <= verdict["derived_bound"] + 1e-6

    def test_deterministic(self):
        summaries = [
            json.dumps(
                bound_scenario(
                    SCENARIO, BoundOptions(iterations=2)
                ).summary(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        # `seconds` is wall-clock; everything else must be identical.
        a, b = (json.loads(s) for s in summaries)
        a.pop("seconds"), b.pop("seconds")
        assert a == b

    def test_counters_populated(self):
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        assert bound.pricing_calls >= 2 * 40
        assert bound.iterations == 2
        assert bound.seconds > 0


class TestAcceptanceWorkload:
    @pytest.mark.slow
    def test_32x32_bound_below_plan_with_verified_certificate(self):
        """The issue's acceptance run: 32x32 / 500 nets, certified."""
        scenario = ScenarioSpec(
            grid=32, num_nets=500, total_sites=3500, seed=0, site_seed=0
        )
        bound = bound_scenario(scenario, BoundOptions(iterations=2))
        metrics = metrics_from_state(full_plan(scenario, RabidConfig()))
        assert metrics["unassigned_nets"] == 0
        plan = plan_surrogate_cost(metrics)
        assert not bound.certified_infeasible
        assert 0.0 < bound.lower_bound <= plan
        nets = scenario.nets()
        verdict = verify_certificate(
            bound.certificate(), build_graph(scenario),
            nets, scenario.limits(sorted(nets)),
        )
        assert verdict["ok"]
        assert verdict["worst_dual_violation"] <= 1e-6


class TestInfeasibility:
    def test_structural_certificate(self):
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(0)
        )
        result = compute_bound(
            graph, {"n0": ((0, 0), [(3, 0)])}, {"n0": 8},
            BoundOptions(iterations=1),
        )
        assert result.certified_infeasible
        assert result.infeasible_reason == "structural"
        assert result.structural_nets == ["n0"]

    def test_capacity_certificate(self):
        # Eight identical nets through the 2-edge unit-capacity cut
        # around the source: max concurrent flow 1/4, certified by
        # lambda_lb > 1 after the lengths concentrate on the cut.
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(1)
        )
        nets = {f"n{i}": ((0, 0), [(3, 0)]) for i in range(8)}
        limits = {name: 8 for name in nets}
        result = compute_bound(
            graph, nets, limits, BoundOptions(epsilon=0.5, iterations=8)
        )
        assert result.lambda_lb > 1.0
        assert result.certified_infeasible
        assert result.infeasible_reason == "capacity"

    def test_feasible_instance_not_flagged(self):
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(8)
        )
        result = compute_bound(
            graph, {"n0": ((0, 0), [(3, 0)])}, {"n0": 8},
            BoundOptions(iterations=2),
        )
        assert not result.certified_infeasible
        assert result.lambda_lb < 1.0
        assert result.infeasible_reason == ""


class TestGoldenSectionRefinement:
    def test_refined_lb_never_below_grid_lb(self):
        """Satellite contract: golden-section refinement only improves."""
        grid_only = bound_scenario(
            SCENARIO, BoundOptions(iterations=2, refine_iters=0)
        )
        refined = bound_scenario(
            SCENARIO, BoundOptions(iterations=2, refine_iters=4)
        )
        assert refined.lower_bound >= grid_only.lower_bound
        # theta=0 stays on the grid, so the unconstrained floor holds.
        assert refined.lower_bound >= refined.unconstrained_bound

    def test_refinement_deterministic(self):
        options = BoundOptions(iterations=2, refine_iters=6)
        a = bound_scenario(SCENARIO, options).summary()
        b = bound_scenario(SCENARIO, options).summary()
        a.pop("seconds"), b.pop("seconds")
        assert a == b

    def test_refinement_prices_extra_thetas(self):
        grid_only = bound_scenario(
            SCENARIO, BoundOptions(iterations=2, refine_iters=0)
        )
        refined = bound_scenario(
            SCENARIO, BoundOptions(iterations=2, refine_iters=4)
        )
        assert refined.pricing_calls > grid_only.pricing_calls

    def test_negative_refine_iters_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(refine_iters=-1)


class TestTriageShortCircuit:
    STARVED = ScenarioSpec(
        grid=12, num_nets=60, capacity=6, total_sites=5, length_limit=2
    )

    def test_certified_scenario_skips_pricing(self):
        from repro.obs import Tracer

        tracer = Tracer()
        result = bound_scenario(
            self.STARVED, BoundOptions(triage=True), tracer=tracer
        )
        assert result.certified_infeasible
        assert result.infeasible_reason == "triage-sites"
        assert result.pricing_calls == 0
        assert result.lower_bound is None
        assert tracer.metrics.counter("triage.skips").value == 1

    def test_feasible_scenario_falls_through(self):
        gated = bound_scenario(
            SCENARIO, BoundOptions(triage=True, refine_iters=0)
        )
        plain = bound_scenario(SCENARIO, BoundOptions(refine_iters=0))
        assert not gated.certified_infeasible
        assert gated.lower_bound == plain.lower_bound

    def test_short_circuit_result_serializes(self):
        result = bound_scenario(self.STARVED, BoundOptions(triage=True))
        summary = result.summary()
        assert summary["certified_infeasible"]
        cert = result.certificate()
        assert cert.infeasible_reason == "triage-sites"


class TestOptimalityGap:
    """``optimality_gap`` is None, with a reason, for unrankable plans."""

    PLAN = {"unassigned_nets": 0, "overflow": 0,
            "wirelength_tiles": 30, "buffers": 10}

    def _result(self, lower_bound=20.0, certified=False):
        from types import SimpleNamespace

        return SimpleNamespace(
            lower_bound=lower_bound, certified_infeasible=certified
        )

    def test_feasible_plan_gets_gap(self):
        from repro.bounds import optimality_gap

        assert optimality_gap(self._result(), self.PLAN) == (1.0, "")

    @pytest.mark.parametrize(
        "result_kw, plan_kw, reason",
        [
            ({"lower_bound": None}, {}, "no-bound"),
            ({"certified": True}, {}, "certified-infeasible"),
            ({}, {"unassigned_nets": 2}, "unassigned-nets"),
            ({}, {"overflow": 5}, "plan-overflow"),
        ],
    )
    def test_unrankable_plan_gets_reason(self, result_kw, plan_kw, reason):
        from repro.bounds import optimality_gap

        plan = dict(self.PLAN, **plan_kw)
        assert optimality_gap(self._result(**result_kw), plan) == (None, reason)
