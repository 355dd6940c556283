"""The flat-array maze kernel: fallback parity, workspaces, parallel Stage 2.

``reference_route`` below is the router's original dict-keyed wavefront,
which once served caller-supplied cost functions; it stays here as the
parity oracle for the flat kernel.
"""

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.geometry import Rect
from repro.routing.maze import (
    EdgeCost,
    RoutingWorkspace,
    _search_window,
    congestion_cost,
    route_net_on_tiles,
    scalar_edge_cost,
    soft_congestion_cost,
    workspace_for,
)
from repro.routing.ripup import RipupOptions, ripup_and_reroute
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph
from repro.tilegraph.graph import Tile


def canonical_edges(tree):
    return sorted((min(u, v), max(u, v)) for u, v in tree.edges())


def saturate_column(graph, x):
    """Fill every horizontal edge (x, y)-(x+1, y) to capacity."""
    for y in range(graph.ny):
        cap = graph.wire_capacity((x, y), (x + 1, y))
        graph.add_wire((x, y), (x + 1, y), cap)


def _reference_dijkstra(
    graph: TileGraph,
    seeds: Dict[Tile, float],
    targets: Set[Tile],
    cost_fn: EdgeCost,
    window: Tuple[int, int, int, int],
    expanded_tiles: Optional[List[Tile]] = None,
) -> Tuple[Optional[Tuple[Tile, Dict[Tile, Tile]]], int]:
    """Dict-keyed wavefront over object tiles and a scalar ``cost_fn``.

    Returns ``(result, nodes_expanded)`` where ``result`` is (reached
    target, predecessor map) or None when unreachable within the window
    under finite costs, and ``nodes_expanded`` counts settled tiles.
    Settled tiles are appended to ``expanded_tiles`` when given.
    """
    x0, y0, x1, y1 = window
    dist: Dict[Tile, float] = dict(seeds)
    pred: Dict[Tile, Tile] = {}
    heap: List[Tuple[float, Tile]] = [(c, t) for t, c in seeds.items()]
    heapq.heapify(heap)
    settled: Set[Tile] = set()
    expanded = 0
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        expanded += 1
        if expanded_tiles is not None:
            expanded_tiles.append(u)
        if u in targets:
            return (u, pred), expanded
        for v in graph.neighbors(u):
            if not (x0 <= v[0] <= x1 and y0 <= v[1] <= y1):
                continue
            if v in settled:
                continue
            step = cost_fn(graph, u, v)
            if step == float("inf"):
                continue
            nd = d + step
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return None, expanded


def reference_route(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    cost_fn: EdgeCost,
    radius_weight: float,
    net_name: str,
    window_margin: int,
    tracer,
    expanded_tiles: Optional[List[Tile]] = None,
) -> RouteTree:
    """The original dict-keyed router, driven by a scalar ``cost_fn``.

    Every tile any of its searches settles is appended to
    ``expanded_tiles`` when given.
    """
    sink_set = {t for t in sinks}
    tree_tiles: Dict[Tile, float] = {source: 0.0}  # tile -> path cost from source
    parent: Dict[Tile, Tile] = {}
    pending: Set[Tile] = set(sink_set) - {source}

    all_pins = [source] + list(sinks)
    margins = [window_margin, window_margin * 4, max(graph.nx, graph.ny)]
    total_expanded = 0
    escalated = cost_fn is soft_congestion_cost

    while pending:
        found = None
        used_cost: EdgeCost = cost_fn
        for attempt, margin in enumerate(margins):
            window = _search_window(graph, all_pins, margin)
            seeds = {
                t: radius_weight * path_cost for t, path_cost in tree_tiles.items()
            }
            found, expanded = _reference_dijkstra(
                graph, seeds, pending, used_cost, window, expanded_tiles
            )
            total_expanded += expanded
            if found is not None:
                break
            escalated = True
            if attempt == len(margins) - 1 and used_cost is not soft_congestion_cost:
                # Full-grid search failed: relax to the soft cost and
                # rescan the margins.
                used_cost = soft_congestion_cost
                for margin2 in margins:
                    window = _search_window(graph, all_pins, margin2)
                    found, expanded = _reference_dijkstra(
                        graph, seeds, pending, used_cost, window,
                        expanded_tiles,
                    )
                    total_expanded += expanded
                    if found is not None:
                        break
                break
        if found is None:
            raise RoutingError(
                f"net {net_name!r}: sink(s) {sorted(pending)} unreachable from {source}"
            )
        target, pred = found
        # Walk back to the tree, recording path costs from the source.
        path = [target]
        while path[-1] not in tree_tiles:
            path.append(pred[path[-1]])
        attach = path[-1]
        path.reverse()  # attach ... target
        running = tree_tiles[attach]
        for a, b in zip(path, path[1:]):
            running += used_cost(graph, a, b)
            if b not in tree_tiles:
                tree_tiles[b] = running
                parent[b] = a
        pending -= set(tree_tiles)

    if tracer is not None and tracer.enabled and total_expanded:
        tracer.count("maze_nodes_expanded", total_expanded)
    sink_tiles = sorted(sink_set)
    tree = RouteTree.from_parent_map(source, parent, sink_tiles, net_name=net_name)
    tree.search_escalated = escalated
    return tree



class TestSoftFallbackParity:
    def test_strict_to_soft_fallback_matches_direct_soft_run(self, die10):
        """Regression: the strict->soft retry must return the same tree as
        routing with the soft cost from the start (same buffers reused)."""
        graph_a = TileGraph(die10, 10, 10, CapacityModel.uniform(2))
        graph_b = TileGraph(die10, 10, 10, CapacityModel.uniform(2))
        for g in (graph_a, graph_b):
            saturate_column(g, 4)  # wall between x=4 and x=5
        fallback = route_net_on_tiles(graph_a, (0, 5), [(9, 5)])
        direct = route_net_on_tiles(
            graph_b, (0, 5), [(9, 5)], cost_fn=soft_congestion_cost
        )
        assert canonical_edges(fallback) == canonical_edges(direct)

    def test_fallback_reuses_workspace_buffers(self, die10):
        """The soft retry runs on the same preallocated buffers (no new
        workspace allocation mid-net)."""
        graph = TileGraph(die10, 10, 10, CapacityModel.uniform(2))
        saturate_column(graph, 4)
        ws = workspace_for(graph)
        assert not ws.heap
        epoch_before = ws.epoch
        route_net_on_tiles(graph, (0, 5), [(9, 5)])
        assert workspace_for(graph) is ws
        # strict margins (3 windows) + at least one soft rescan, all on
        # the same workspace: the epoch advanced once per search.
        assert ws.epoch >= epoch_before + 4

    def test_explicit_workspace_is_used(self, graph10):
        ws = RoutingWorkspace(graph10.num_tiles)
        tree = route_net_on_tiles(graph10, (0, 0), [(5, 5)], workspace=ws)
        assert ws.epoch > 0
        assert tree.sink_tiles == [(5, 5)]


class TestFlatVsGenericParity:
    def test_flat_path_matches_generic_dict_path(self, die10):
        """The flat kernel and the dict-based fallback agree edge-for-edge."""
        flat_graph = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        generic_graph = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        rng = np.random.default_rng(7)
        pins = []
        for _ in range(30):
            pts = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(4, 2))]
            pins.append((pts[0], pts[1:]))

        for i, (source, sinks) in enumerate(pins):
            fast = route_net_on_tiles(
                flat_graph, source, sinks, radius_weight=0.4, net_name=f"n{i}"
            )
            slow = reference_route(
                generic_graph, source, sinks, congestion_cost, 0.4, f"n{i}",
                6, None,
            )
            assert canonical_edges(fast) == canonical_edges(slow), f"net {i}"
            fast.add_usage(flat_graph)
            slow.add_usage(generic_graph)
        assert (flat_graph.edge_usage == generic_graph.edge_usage).all()

    def test_custom_cost_fn_rejected(self, graph10):
        def strict_clone(graph, u, v):
            return congestion_cost(graph, u, v)

        with pytest.raises(ConfigurationError):
            route_net_on_tiles(graph10, (0, 0), [(5, 5)], cost_fn=strict_clone)

    def test_cost_array_override(self, graph10):
        """A uniform cost array routes like an unweighted BFS (shortest path)."""
        costs = [1.0] * graph10.num_edges
        tree = route_net_on_tiles(graph10, (0, 0), [(6, 2)], cost_array=costs)
        assert tree.wirelength_tiles() == 8

    def test_scalar_edge_cost_tracks_mutation(self, graph10):
        lookup = scalar_edge_cost(graph10, congestion_cost)
        assert lookup(graph10, (0, 0), (1, 0)) == congestion_cost(
            graph10, (0, 0), (1, 0)
        )
        graph10.add_wire((0, 0), (1, 0), 5)
        assert lookup(graph10, (0, 0), (1, 0)) == congestion_cost(
            graph10, (0, 0), (1, 0)
        )
        # Unknown callables pass through untouched.
        custom = lambda g, u, v: 2.0
        assert scalar_edge_cost(graph10, custom) is custom


def bounding_box(tiles):
    xs = [t[0] for t in tiles]
    ys = [t[1] for t in tiles]
    return (min(xs), min(ys), max(xs), max(ys))


class TestSearchBox:
    """``tree.search_box`` bounds every tile the reference search expands."""

    def _route_both(self, graph_a, graph_b, source, sinks, margin, cost_fn,
                    radius_weight=0.0):
        tree = route_net_on_tiles(
            graph_a, source, sinks, cost_fn=cost_fn,
            radius_weight=radius_weight, window_margin=margin,
        )
        expanded: List[Tile] = []
        ref = reference_route(
            graph_b, source, sinks, cost_fn, radius_weight, "n", margin,
            None, expanded_tiles=expanded,
        )
        assert canonical_edges(tree) == canonical_edges(ref)
        x0, y0, x1, y1 = tree.search_box
        assert all(x0 <= x <= x1 and y0 <= y <= y1 for x, y in expanded)
        # The flat kernel expands the same tiles, so the box is tight.
        assert tree.search_box == bounding_box(expanded)
        return tree, expanded

    def test_random_nets_on_accumulating_usage(self, die10):
        graph_a = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        graph_b = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        rng = np.random.default_rng(11)
        for _ in range(30):
            pts = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(4, 2))]
            tree, _ = self._route_both(
                graph_a, graph_b, pts[0], pts[1:], 2, congestion_cost, 0.4
            )
            tree.add_usage(graph_a)
            tree.add_usage(graph_b)

    def test_forced_full_grid_escalation(self):
        die = Rect(0.0, 0.0, 20.0, 20.0)
        graphs = [TileGraph(die, 20, 20, CapacityModel.uniform(2))
                  for _ in range(2)]
        for g in graphs:
            # A wall between x=2 and x=3 with its only gap at y >= 17,
            # outside the 4x-margin window (y 6..14) of the pins below.
            for y in range(17):
                g.set_wire_capacity((2, y), (3, y), 0)
        tree, expanded = self._route_both(
            graphs[0], graphs[1], (1, 10), [(4, 10)], 1, congestion_cost
        )
        assert tree.search_escalated
        assert max(t[1] for t in tree.nodes) >= 17
        assert tree.search_box[3] >= 17

    @pytest.mark.parametrize("cost_fn", [congestion_cost, soft_congestion_cost])
    def test_soft_rescan(self, die10, cost_fn):
        graphs = [TileGraph(die10, 10, 10, CapacityModel.uniform(2))
                  for _ in range(2)]
        for g in graphs:
            saturate_column(g, 4)  # no strict path from x <= 4 to x >= 5
        tree, expanded = self._route_both(
            graphs[0], graphs[1], (0, 5), [(9, 5)], 1, cost_fn
        )
        assert tree.search_escalated
        if cost_fn is congestion_cost:
            # The failed strict full-grid search expanded the whole left
            # half before the soft rescan crossed the wall.
            assert {(x, y) for x in range(5) for y in range(10)} <= set(expanded)

    def test_no_search_gives_empty_box(self, graph10):
        tree = route_net_on_tiles(graph10, (3, 3), [(3, 3)])
        x0, y0, x1, y1 = tree.search_box
        assert x0 > x1 and y0 > y1


class TestRouteCounters:
    def test_heap_pops_and_cache_hits_counted(self, graph10):
        from repro.obs import Tracer

        tracer = Tracer()
        route_net_on_tiles(graph10, (0, 0), [(7, 7)], tracer=tracer)
        expanded = tracer.metrics.value("maze_nodes_expanded")
        assert expanded > 0
        assert tracer.metrics.value("route.heap_pops") >= expanded
        assert tracer.metrics.value("route.cache_hits") > 0


class TestParallelRipup:
    def _routes(self, graph, num_nets=40, seed=3):
        rng = np.random.default_rng(seed)
        routes = {}
        order = []
        for i in range(num_nets):
            sx, sy = (int(v) for v in rng.integers(0, graph.nx, size=2))
            dx, dy = (int(v) for v in rng.integers(-3, 4, size=2))
            tx = min(graph.nx - 1, max(0, sx + dx))
            ty = min(graph.ny - 1, max(0, sy + dy))
            name = f"n{i:02d}"
            tree = route_net_on_tiles(graph, (sx, sy), [(tx, ty)], net_name=name)
            tree.add_usage(graph)
            routes[name] = tree
            order.append(name)
        return routes, order

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            RipupOptions(workers=0)

    def test_parallel_matches_expected_usage_accounting(self, die10):
        graph = TileGraph(die10, 10, 10, CapacityModel.uniform(4))
        routes, order = self._routes(graph)
        ripup_and_reroute(graph, routes, order, RipupOptions(workers=3))
        expected = np.zeros_like(graph.edge_usage)
        for tree in routes.values():
            for u, v in tree.edges():
                expected[graph.edge_id(u, v)] += 1
        assert (expected == graph.edge_usage).all()

    def test_parallel_deterministic_across_worker_counts(self, die10):
        results = []
        for workers in (2, 4):
            graph = TileGraph(die10, 10, 10, CapacityModel.uniform(4))
            routes, order = self._routes(graph)
            ripup_and_reroute(graph, routes, order, RipupOptions(workers=workers))
            results.append(
                {name: canonical_edges(t) for name, t in routes.items()}
            )
        assert results[0] == results[1]

    def test_stage2_batches_counter(self, die10):
        from repro.obs import Tracer

        graph = TileGraph(die10, 10, 10, CapacityModel.uniform(4))
        routes, order = self._routes(graph)
        tracer = Tracer()
        ripup_and_reroute(
            graph, routes, order, RipupOptions(workers=2, max_iterations=1),
            tracer=tracer,
        )
        assert tracer.metrics.value("stage2.batches") >= 1
