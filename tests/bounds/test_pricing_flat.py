"""Path pricing on the shared labeled wavefront vs the original pricer.

:class:`~repro.bounds.pricing.PathPricer` runs the Stage-4 ``(tile, j)``
kernel in its multi-goal mode: it drops dominated labels and stops once
every sink tile has settled a label. The reference below is the pricer's
original dedicated search:
a layered Dijkstra that ran until every label of every sink had been
popped and then took ``argmin_j dist`` per sink. Costs must agree
exactly on every input; paths must agree whenever every step cost is
strictly positive (with zero-cost steps equal-cost labels may settle in
a different order, so only the prices are pinned).
"""

import heapq
import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.bounds import PathPricer
from repro.bounds.pricing import INF, NetPricing, PricedPath
from repro.geometry import Rect
from repro.tilegraph import CapacityModel, TileGraph

Tile = Tuple[int, int]


def _reference_search(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    length_limit: int,
    edge_lengths: Sequence[float],
    site_lengths: Sequence[float],
    wire_cost: float,
    buffer_cost: float,
    scale: float,
    margin: int,
    collect_paths: bool,
) -> NetPricing:
    flat = graph.flat()
    ny = flat.ny
    sites = graph.sites_flat
    layers = length_limit + 1
    num_states = flat.num_tiles * layers

    xs = [source[0], *(s[0] for s in sinks)]
    ys = [source[1], *(s[1] for s in sinks)]
    x_lo = max(0, min(xs) - margin)
    x_hi = min(flat.nx - 1, max(xs) + margin)
    y_lo = max(0, min(ys) - margin)
    y_hi = min(flat.ny - 1, max(ys) + margin)
    tile_x = flat.tile_x
    tile_y = flat.tile_y

    dist = [INF] * num_states
    parent = [-1] * num_states if collect_paths else None
    via = [-1] * num_states if collect_paths else None

    src_idx = source[0] * ny + source[1]
    start = src_idx * layers  # (source, d=0)
    dist[start] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, start)]
    adj = flat.adj
    targets = {s[0] * ny + s[1] for s in sinks}
    remaining = {t: layers for t in targets}  # states left per target

    while heap:
        d_cur, state = heapq.heappop(heap)
        if d_cur > dist[state]:
            continue
        tile = state // layers
        depth = state - tile * layers
        if tile in remaining:
            remaining[tile] -= 1
            if remaining[tile] <= 0:
                del remaining[tile]
                if not remaining:
                    break
        # Buffer insertion: reset the spacing counter on a site tile.
        if depth > 0 and sites[tile] > 0:
            s_len = site_lengths[tile]
            if s_len < INF:
                nd = d_cur + buffer_cost + scale * s_len
                nstate = tile * layers
                if nd < dist[nstate]:
                    dist[nstate] = nd
                    if collect_paths:
                        parent[nstate] = state
                        via[nstate] = -2  # buffer marker
                    heapq.heappush(heap, (nd, nstate))
        # Wire step: advance one tile, spend one unit of drive length.
        if depth + 1 >= layers:
            continue
        for nbr, eid in adj[tile]:
            if not (x_lo <= tile_x[nbr] <= x_hi and y_lo <= tile_y[nbr] <= y_hi):
                continue
            e_len = edge_lengths[eid]
            if e_len >= INF:
                continue
            nd = d_cur + wire_cost + scale * e_len
            nstate = nbr * layers + depth + 1
            if nd < dist[nstate]:
                dist[nstate] = nd
                if collect_paths:
                    parent[nstate] = state
                    via[nstate] = eid
                heapq.heappush(heap, (nd, nstate))

    costs: Dict[Tile, float] = {}
    paths: Dict[Tile, PricedPath] = {}
    for sink in sinks:
        t_idx = sink[0] * ny + sink[1]
        base = t_idx * layers
        best_state = min(range(base, base + layers), key=lambda s: dist[s])
        best = dist[best_state]
        costs[sink] = best
        if collect_paths and best < INF:
            edges: List[int] = []
            buffers: List[int] = []
            state = best_state
            while state != start and parent is not None:
                step = via[state]
                if step == -2:
                    buffers.append(state // layers)
                else:
                    edges.append(step)
                state = parent[state]
            paths[sink] = PricedPath(
                sink=sink,
                cost=best,
                edges=tuple(reversed(edges)),
                buffers=tuple(reversed(buffers)),
            )
    return NetPricing(source=source, costs=costs, paths=paths)


def reference_price(
    graph, source, sinks, length_limit, edge_lengths, site_lengths,
    wire_cost=1.0, buffer_cost=1.0, scale=1.0, collect_paths=False,
    window_margin=10,
) -> NetPricing:
    """The original pricer: the search above under window escalation."""
    margins: List[int] = []
    for margin in (window_margin, window_margin * 4, max(graph.nx, graph.ny)):
        if margin not in margins:
            margins.append(margin)
    result: Optional[NetPricing] = None
    for margin in margins:
        result = _reference_search(
            graph, source, sinks, length_limit, edge_lengths, site_lengths,
            wire_cost, buffer_cost, scale, margin, collect_paths,
        )
        if result.reachable:
            break
    return result


def _graph(nx, ny, capacity=2):
    return TileGraph(
        Rect(0, 0, float(nx), float(ny)), nx, ny,
        CapacityModel.uniform(capacity),
    )


def _random_case(seed, ties=False):
    """A small graph with some zero-capacity edges and zero-site tiles.

    ``ties`` draws lengths from two values, so many labels tie.
    """
    rng = random.Random(seed)
    draw = (lambda: rng.choice((0.5, 1.0))) if ties else (
        lambda: rng.uniform(0.05, 2.0)
    )
    nx, ny = rng.randint(3, 8), rng.randint(3, 8)
    graph = _graph(nx, ny)
    for tile in graph.tiles():
        graph.set_sites(tile, rng.choice((0, 0, 1, 3)))
        x, y = tile
        for nbr in ((x + 1, y), (x, y + 1)):
            if nbr[0] < nx and nbr[1] < ny and rng.random() < 0.15:
                graph.set_wire_capacity(tile, nbr, 0)
    caps = graph.edge_capacity.tolist()
    edges = [draw() if c > 0 else INF for c in caps]
    sites = [draw() for _ in range(nx * ny)]
    tiles = list(graph.tiles())
    source = rng.choice(tiles)
    sinks = [rng.choice(tiles) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        sinks.append(source)
    if rng.random() < 0.3:
        sinks.append(sinks[0])
    return graph, source, sinks, rng.randint(1, 5), edges, sites, rng


def _assert_same(graph, *args, paths=True, window_margin=10, **kwargs):
    pricer = PathPricer(graph, window_margin=window_margin)
    got = pricer.price(*args, collect_paths=True, **kwargs)
    want = reference_price(
        graph, *args, collect_paths=True, window_margin=window_margin,
        **kwargs,
    )
    assert got.costs == want.costs
    if paths:
        assert got.paths == want.paths
    return got


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize(
    "wire_cost, buffer_cost, scale",
    [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, 4.0), (0.0, 0.0, 1.0),
     (1.0, 1.0, 0.015625)],
)
def test_random_graphs_match_reference(seed, wire_cost, buffer_cost, scale):
    graph, source, sinks, limit, edges, sites, rng = _random_case(seed)
    _assert_same(
        graph, source, sinks, limit, edges, sites,
        wire_cost=wire_cost, buffer_cost=buffer_cost, scale=scale,
        window_margin=rng.choice((0, 1, 10)),
    )


@pytest.mark.parametrize("seed", range(40))
def test_tied_lengths_match_reference_paths(seed):
    """Positive steps with many equal-cost labels: paths still agree."""
    graph, source, sinks, limit, edges, sites, _ = _random_case(seed, True)
    _assert_same(graph, source, sinks, limit, edges, sites)
    _assert_same(
        graph, source, sinks, limit, edges, sites,
        wire_cost=1.0, buffer_cost=1.0, scale=0.0,
    )


@pytest.mark.parametrize("seed", range(40))
def test_zero_step_costs_match_reference_prices(seed):
    """``scale=0`` with zero base costs: every step is free."""
    graph, source, sinks, limit, edges, sites, _ = _random_case(seed)
    got = _assert_same(
        graph, source, sinks, limit, edges, sites,
        wire_cost=0.0, buffer_cost=0.0, scale=0.0, paths=False,
    )
    assert all(c in (0.0, INF) for c in got.costs.values())


class TestEdgeCases:
    def test_sink_at_source_costs_nothing(self):
        graph = _graph(5, 5)
        edges = [1.0] * len(graph.edge_capacity)
        sites = [1.0] * 25
        got = _assert_same(graph, (2, 2), [(2, 2), (4, 2)], 3, edges, sites)
        assert got.costs[(2, 2)] == 0.0
        assert got.paths[(2, 2)].edges == ()

    def test_sink_on_another_sinks_path(self):
        graph = _graph(8, 3)
        for tile in graph.tiles():
            graph.set_sites(tile, 1)
        edges = [0.5] * len(graph.edge_capacity)
        sites = [2.0] * 24
        got = _assert_same(
            graph, (0, 1), [(3, 1), (7, 1)], 4, edges, sites
        )
        near, far = got.paths[(3, 1)], got.paths[(7, 1)]
        assert set(near.edges) <= set(far.edges)
        assert far.buffers

    def test_duplicate_sinks(self):
        graph = _graph(6, 6)
        edges = [1.0] * len(graph.edge_capacity)
        sites = [1.0] * 36
        got = _assert_same(
            graph, (0, 0), [(3, 4), (3, 4), (5, 0)], 8, edges, sites
        )
        assert set(got.costs) == {(3, 4), (5, 0)}

    def test_unreachable_sink_forces_window_escalation(self):
        graph = _graph(12, 12)
        for x in range(11):
            graph.set_wire_capacity((x, 1), (x, 2), 0)
        caps = graph.edge_capacity.tolist()
        edges = [0.25 if c > 0 else INF for c in caps]
        sites = [1.0] * 144
        got = _assert_same(
            graph, (0, 0), [(0, 4), (2, 0)], 64, edges, sites,
            window_margin=1,
        )
        assert got.reachable
        assert got.costs[(0, 4)] > 4.0

    def test_length_limit_beyond_coded_range(self):
        """``L`` past the kernel's one-byte ``j`` coding still matches."""
        graph, source, sinks, _, edges, sites, _ = _random_case(5)
        _assert_same(graph, source, sinks, 300, edges, sites)

    def test_structurally_unreachable_sink(self):
        graph = _graph(6, 6)  # no sites: L bounds every path
        edges = [1.0] * len(graph.edge_capacity)
        sites = [1.0] * 36
        got = _assert_same(graph, (0, 0), [(1, 0), (5, 5)], 3, edges, sites)
        assert not got.reachable
        assert got.costs[(5, 5)] == INF
        assert (5, 5) not in got.paths

    def test_zero_capacity_edges_and_site_less_tiles_unused(self):
        graph, source, sinks, limit, edges, sites, _ = _random_case(3)
        got = _assert_same(graph, source, sinks, limit, edges, sites)
        caps = graph.edge_capacity.tolist()
        has_site = graph.sites_flat.tolist()
        for path in got.paths.values():
            assert all(caps[e] > 0 for e in path.edges)
            assert all(has_site[t] > 0 for t in path.buffers)


def test_step_costs_reuse_unscaled_edges_and_mask_sites():
    graph = _graph(3, 3)
    graph.set_sites((1, 1), 2)
    edges = [1.0] * len(graph.edge_capacity)
    sites = [0.5] * 9
    pricer = PathPricer(graph)
    edge_costs, site_costs = pricer.step_costs(edges, sites)
    assert edge_costs is edges
    assert site_costs == [INF] * 4 + [0.5] + [INF] * 4
    scaled, _ = pricer.step_costs([2.0, INF] + edges[2:], sites, 0.0)
    assert scaled[:2] == [0.0, INF]


def test_pricing_counters():
    from repro.obs import Tracer

    graph = _graph(6, 6)
    edges = [1.0] * len(graph.edge_capacity)
    sites = [1.0] * 36
    tracer = Tracer()
    PathPricer(graph, tracer=tracer).price((0, 0), [(4, 4)], 10, edges, sites)
    settled = tracer.metrics.value("bound.labels_settled")
    assert settled > 0
    assert tracer.metrics.value("bound.heap_pops") >= settled
