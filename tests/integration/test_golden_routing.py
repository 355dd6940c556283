"""Golden comparisons: sequential runs must match pre-flat-kernel output.

The two golden files were captured with the object-graph router *before*
the flat-array kernel landed. ``workers=1`` runs are required to be
byte-identical to them — routed trees, buffer placements, and site
assignments — so these tests pin the acceptance criterion "sequential
runs produce output identical to pre-change output".
"""

import json
import os

import pytest

from repro.benchmarks.routing_kernel import (
    make_routing_scenario,
    routes_as_json,
    run_routing_kernel,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRoutingKernelGolden:
    def test_sequential_kernel_matches_golden(self):
        golden = load_golden("routing_kernel_32x32_seed0.json")
        spec = golden["scenario"]
        scenario = make_routing_scenario(
            grid=spec["grid"],
            num_nets=spec["num_nets"],
            capacity=spec["capacity"],
            seed=spec["seed"],
        )
        result = run_routing_kernel(
            scenario,
            passes=spec["passes"],
            radius_weight=spec["radius_weight"],
            window_margin=spec["window_margin"],
            workers=1,
        )
        assert result.signature == golden["signature"]
        assert result.wirelength_tiles == golden["wirelength_tiles"]
        assert result.overflow == golden["overflow"]

    def test_per_net_edges_match_golden(self):
        """Not just the hash: compare the actual edge lists, so a failure
        names the first differing net instead of two signatures."""
        golden = load_golden("routing_kernel_32x32_seed0.json")
        spec = golden["scenario"]
        scenario = make_routing_scenario(
            grid=spec["grid"],
            num_nets=spec["num_nets"],
            capacity=spec["capacity"],
            seed=spec["seed"],
        )
        result = run_routing_kernel(
            scenario,
            passes=spec["passes"],
            radius_weight=spec["radius_weight"],
            window_margin=spec["window_margin"],
        )
        got = routes_as_json(result.routes)
        want = {
            name: [[list(e[0]), list(e[1])] for e in edges]
            for name, edges in golden["routes"].items()
        }
        assert set(got) == set(want)
        for name in sorted(want):
            assert got[name] == want[name], f"net {name} routed differently"


def _assert_planner_matches_golden(filename):
    """Re-run the full planner a golden was recorded with and diff it."""
    from repro.benchmarks import load_benchmark
    from repro.core import RabidConfig, RabidPlanner

    golden = load_golden(filename)
    bench = load_benchmark(golden["circuit"], seed=golden["seed"])
    config = RabidConfig(
        length_limit=bench.spec.length_limit,
        window_margin=10,
        stage4_iterations=golden["stage4_iterations"],
    )
    result = RabidPlanner(bench.graph, bench.netlist, config).run()

    routes = {
        name: sorted(
            [list(min(u, v)), list(max(u, v))] for u, v in tree.edges()
        )
        for name, tree in result.routes.items()
    }
    want_routes = {
        name: [[list(e[0]), list(e[1])] for e in edges]
        for name, edges in golden["routes"].items()
    }
    assert routes == want_routes

    buffers = {
        name: [
            [list(s.tile), list(s.drives_child) if s.drives_child else None]
            for s in tree.buffer_specs()
        ]
        for name, tree in result.routes.items()
    }
    want_buffers = {
        name: [
            [list(b[0]), list(b[1]) if b[1] is not None else None]
            for b in specs
        ]
        for name, specs in golden["buffers"].items()
    }
    assert buffers == want_buffers
    assert bench.graph.used_sites.tolist() == golden["used_sites"]
    assert sorted(result.failed_nets) == sorted(golden["failed_nets"])
    assert result.final_metrics.overflows == golden["overflows"]


@pytest.mark.slow
class TestPlannerGolden:
    def test_apte_planner_matches_golden(self):
        _assert_planner_matches_golden("planner_apte_seed0.json")

    def test_ami49_planner_matches_golden(self):
        # The full default plan (two Stage-4 passes plus rescue), which
        # spends most of its time in the buffered (tile, j) wavefront.
        _assert_planner_matches_golden("planner_ami49_seed0.json")

    def test_ami49_seed1_signature_matches_golden(self):
        # Held-out seed: the plan with the most Stage-4 two-paths whose old
        # route cannot be legally buffered (searched without a bound).
        from repro.benchmarks import load_benchmark
        from repro.benchmarks.buffering_kernel import buffering_signature
        from repro.core import RabidConfig, RabidPlanner

        golden = load_golden("planner_ami49_seed1_signature.json")
        bench = load_benchmark(golden["circuit"], seed=golden["seed"])
        config = RabidConfig(
            length_limit=bench.spec.length_limit,
            window_margin=10,
            stage4_iterations=golden["stage4_iterations"],
        )
        result = RabidPlanner(bench.graph, bench.netlist, config).run()
        assert len(result.failed_nets) == golden["failed_nets"]
        assert result.final_metrics.num_buffers == golden["num_buffers"]
        assert result.final_metrics.overflows == golden["overflows"]
        assert (
            buffering_signature(result.routes, bench.graph, result.failed_nets)
            == golden["buffering_signature"]
        )
