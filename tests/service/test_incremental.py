"""Incremental re-plan == full re-plan, for every delta kind.

The service's core guarantee: the exact-replay engine produces a plan
whose buffering-kernel signature equals a from-scratch plan of the
evolved scenario. Each test perturbs a cached baseline one way, replans
incrementally, and compares against ``full_plan(apply_delta(...))``.
"""

import json

import numpy as np
import pytest

from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.service import (
    DeltaSpec,
    MacroSpec,
    ScenarioSpec,
    add_net,
    apply_delta,
    full_plan,
    incremental_replan,
    move_macro,
    remove_net,
    set_capacity,
    set_length_limit,
    set_sites,
)
from repro.service.checkpoint import checkpoint_from_dict, checkpoint_to_dict

SPEC = ScenarioSpec(
    grid=12, num_nets=60, total_sites=400, macros=(MacroSpec(2, 2, 3, 3),)
)


@pytest.fixture
def baseline():
    return full_plan(SPEC)


def assert_usage_consistent(state):
    """Graph usage must equal the sum of the plan's trees — after every
    commit, not just at steady state (the ledger-transaction guarantee
    extended to service jobs)."""
    graph = state.graph
    edge_usage = np.zeros_like(graph.edge_usage)
    used_sites = np.zeros_like(graph.used_sites)
    for tree in state.routes.values():
        for u, v in tree.edges():
            edge_usage[graph.edge_id(u, v)] += 1
        for tile, count in tree.buffer_counts().items():
            used_sites[tile] += count
    assert np.array_equal(edge_usage, graph.edge_usage)
    assert np.array_equal(used_sites, graph.used_sites)
    assert not graph.ledger().active


DELTAS = {
    "move_macro": DeltaSpec((move_macro(0, 7, 7),)),
    "set_sites": DeltaSpec((set_sites([(6, 6, 0), (7, 7, 12)]),)),
    "set_capacity": DeltaSpec(
        (set_capacity([(5, 5, 6, 5, 1), (5, 5, 5, 6, 1)]),)
    ),
    "add_net": DeltaSpec(
        (add_net("zz_new", (1, 1), [(8, 3), (4, 9)]),)
    ),
    "remove_net": DeltaSpec((remove_net("net07"),)),
    "set_length_limit": DeltaSpec((set_length_limit("net11", 2),)),
    "combined": DeltaSpec(
        (
            move_macro(0, 6, 1),
            set_length_limit("net23", 3),
            remove_net("net40"),
            add_net("zz_more", (10, 10), [(2, 2)]),
        )
    ),
}


@pytest.mark.parametrize("kind", sorted(DELTAS))
def test_incremental_matches_full(baseline, kind):
    delta = DELTAS[kind]
    stats = incremental_replan(baseline, delta)
    reference = full_plan(apply_delta(SPEC, delta))
    assert stats.signature == reference.signature
    assert baseline.signature == reference.signature
    assert stats.nets_replayed + stats.nets_resolved == stats.nets_total
    assert_usage_consistent(baseline)


def test_stacked_deltas_match_full(baseline):
    d1 = DELTAS["move_macro"]
    d2 = DELTAS["set_length_limit"]
    incremental_replan(baseline, d1)
    incremental_replan(baseline, d2)
    reference = full_plan(apply_delta(apply_delta(SPEC, d1), d2))
    assert baseline.signature == reference.signature
    assert_usage_consistent(baseline)


def test_replay_actually_skips_work(baseline):
    # A corner-local perturbation must leave far-away nets replayed.
    stats = incremental_replan(baseline, DeltaSpec((set_sites([(11, 11, 3)]),)))
    assert stats.nets_replayed > 0


def test_outcomes_track_trees(baseline):
    incremental_replan(baseline, DELTAS["move_macro"])
    for name, tree in baseline.routes.items():
        assert tuple(tree.buffer_specs()) == baseline.outcomes[name].specs


def test_failed_replan_rolls_back(baseline):
    sig = baseline.signature
    usage_before = baseline.graph.snapshot_usage()
    routes_before = dict(baseline.routes)
    # A negative site override passes delta validation but blows up inside
    # the replay (effective_sites), exercising the restore path.
    bad = DeltaSpec((set_sites([(3, 3, -1)]),))
    with pytest.raises(ConfigurationError):
        incremental_replan(baseline, bad)
    assert baseline.signature == sig
    assert baseline.routes == routes_before
    h, v, b, kinds = usage_before
    assert np.array_equal(baseline.graph.h_usage, h)
    assert np.array_equal(baseline.graph.v_usage, v)
    assert np.array_equal(baseline.graph.used_sites, b)
    assert baseline.graph.kind_used == kinds
    assert_usage_consistent(baseline)
    # The baseline must still be usable after the failed attempt.
    stats = incremental_replan(baseline, DELTAS["move_macro"])
    assert stats.signature == full_plan(apply_delta(SPEC, DELTAS["move_macro"])).signature


def test_reroute_path_taken_for_capacity_choke(baseline):
    # Throttling a band of central edges to capacity 1 forces reroutes
    # (not just re-buffering) through the dirty-region machinery.
    edges = [(x, 6, x, 7, 1) for x in range(3, 9)]
    delta = DeltaSpec((set_capacity(edges),))
    stats = incremental_replan(baseline, delta)
    reference = full_plan(apply_delta(SPEC, delta))
    assert stats.signature == reference.signature
    assert stats.nets_rerouted > 0
    assert_usage_consistent(baseline)


def canonical_routes(state):
    return {
        name: sorted((min(u, v), max(u, v)) for u, v in tree.edges())
        for name, tree in state.routes.items()
    }


def assert_matches_full(state, reference):
    assert state.signature == reference.signature
    assert canonical_routes(state) == canonical_routes(reference)


def test_removing_last_ordered_net_searches_nothing(baseline):
    # No net follows "zeco-*" in name order, so no search saw its usage.
    add = DeltaSpec((add_net("zeco-00001", (1, 1), [(9, 4), (3, 10)]),))
    remove = DeltaSpec((remove_net("zeco-00001"),))
    incremental_replan(baseline, add)
    stats = incremental_replan(baseline, remove)
    assert stats.nets_searched == 0
    assert_matches_full(
        baseline, full_plan(apply_delta(apply_delta(SPEC, add), remove))
    )
    assert_usage_consistent(baseline)


def test_capacity_change_inside_escalated_read_box():
    # A wall between x=2 and x=3 is open only at y >= 17. With
    # window_margin=1 the net's windows span y 8..10 and (4x) 5..13, so
    # its search escalates to the full grid and detours through the gap,
    # expanding the whole left side of the wall on the way.
    config = RabidConfig(window_margin=1)
    wall = tuple(((2, y), (3, y), 0) for y in range(17))
    spec = ScenarioSpec(
        grid=20, num_nets=0, capacity=2, total_sites=200,
        added_nets=(("a", (1, 9), ((4, 9),)),),
        capacity_overrides=wall,
    )
    state = full_plan(spec, config)
    tree = state.routes["a"]
    assert tree.search_escalated
    assert min(y for _, y in tree.nodes) == 9
    x0, y0, x1, y1 = tree.search_box
    assert x0 <= 2 <= x1 and y0 <= 3 <= y1
    # Opening the wall at y=3 lies outside the tree's 4x-margin box
    # (y >= 5) but inside the read box, so the net is searched again
    # and takes the shorter detour.
    delta = DeltaSpec((set_capacity([(2, 3, 3, 3, 2)]),))
    stats = incremental_replan(state, delta)
    assert stats.nets_searched == 1
    assert stats.rerouted_nets == ["a"]
    assert min(y for _, y in state.routes["a"].nodes) == 3
    assert_matches_full(state, full_plan(apply_delta(spec, delta), config))


def test_checkpoint_restored_trees_count_as_reading_everything(baseline):
    payload = json.loads(json.dumps(checkpoint_to_dict("b0", baseline)))
    _, restored = checkpoint_from_dict(payload)
    assert all(
        getattr(t, "search_box", None) is None for t in restored.routes.values()
    )
    delta = DELTAS["set_capacity"]
    stats = incremental_replan(restored, delta)
    assert stats.nets_searched == stats.nets_total
    assert_matches_full(restored, full_plan(apply_delta(SPEC, delta)))
    # The re-searched trees carry boxes again, so the next delta is local.
    stats = incremental_replan(restored, DELTAS["move_macro"])
    assert stats.nets_searched < stats.nets_total


def _children_cover(tracer, parent_name, child_names):
    (parent,) = tracer.spans_named(parent_name)
    children = [s for s in tracer.spans if s.parent == parent.index]
    assert [s.name for s in children] == list(child_names)
    for span in children:
        assert parent.start_s <= span.start_s <= span.end_s <= parent.end_s
    covered = sum(s.duration_s for s in children)
    assert covered >= 0.9 * parent.duration_s


def test_route_and_buffer_spans_cover_their_parent():
    tracer = Tracer()
    state = full_plan(SPEC, tracer=tracer)
    _children_cover(
        tracer,
        "service.full_plan",
        ("service.full_plan.route", "service.full_plan.buffer"),
    )
    tracer = Tracer()
    incremental_replan(state, DELTAS["combined"], tracer=tracer)
    _children_cover(
        tracer,
        "service.incremental_replan",
        ("service.replan.route", "service.replan.buffer"),
    )
