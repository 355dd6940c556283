"""Parity of the flat Stage-4 wavefronts against dict-keyed reference oracles.

The two oracles below are the object-keyed Dijkstra loops Stage 4 used
before its searches moved onto integer labels: ``reference_buffered_path``
over ``(tile, j)`` states and ``reference_plain_path`` over tiles. On
seeded random grids the flat kernels must return exactly the same paths,
including ``None`` where the oracle finds none.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.core.costs import buffer_site_cost
from repro.core.two_path import _remove_loops, _wire_path, best_buffered_path
from repro.errors import ConfigurationError
from repro.geometry import Rect
from repro.obs import Tracer
from repro.routing.maze import congestion_cost, soft_congestion_cost
from repro.tilegraph import CapacityModel, TileGraph

INF = float("inf")


def reference_buffered_path(graph, start, goal, q_of, length_limit,
                            forbidden, window, wire_cost=congestion_cost):
    """Dict-keyed ``(tile, j)`` wavefront (the pre-flat implementation)."""
    L = length_limit
    goals: Set = {goal} if isinstance(goal, tuple) else set(goal)
    if start in goals:
        return [start]
    x0, y0, x1, y1 = window
    dist: Dict = {(start, 0): 0.0}
    pred: Dict = {}
    heap: List = [(0.0, start, 0)]
    settled: Set = set()
    goal_state = None
    while heap:
        d, tile, j = heapq.heappop(heap)
        state = (tile, j)
        if state in settled:
            continue
        settled.add(state)
        if tile in goals:
            goal_state = state
            break
        if j > 0:
            q = q_of(tile)
            if q != INF:
                nd = d + q
                nstate = (tile, 0)
                if nd < dist.get(nstate, INF):
                    dist[nstate] = nd
                    pred[nstate] = state
                    heapq.heappush(heap, (nd, tile, 0))
        if j + 1 <= L:
            for nbr in graph.neighbors(tile):
                if not (x0 <= nbr[0] <= x1 and y0 <= nbr[1] <= y1):
                    continue
                if nbr in forbidden and nbr not in goals:
                    continue
                step = wire_cost(graph, tile, nbr)
                if step == INF:
                    continue
                nd = d + step
                nstate = (nbr, j + 1)
                if nd < dist.get(nstate, INF):
                    dist[nstate] = nd
                    pred[nstate] = state
                    heapq.heappush(heap, (nd, nbr, j + 1))
    if goal_state is None:
        return None
    path: List = []
    state = goal_state
    while True:
        tile = state[0]
        if not path or path[-1] != tile:
            path.append(tile)
        if state not in pred:
            break
        state = pred[state]
    path.reverse()
    return _remove_loops(path)


def reference_plain_path(graph, start, goal, forbidden, window, wire_cost):
    """Dict-keyed wire-cost-only Dijkstra (the pre-flat implementation)."""
    x0, y0, x1, y1 = window
    dist: Dict = {start: 0.0}
    pred: Dict = {}
    heap: List = [(0.0, start)]
    settled: Set = set()
    while heap:
        d, tile = heapq.heappop(heap)
        if tile in settled:
            continue
        settled.add(tile)
        if tile == goal:
            path = [tile]
            while path[-1] in pred:
                path.append(pred[path[-1]])
            path.reverse()
            return path
        for nbr in graph.neighbors(tile):
            if not (x0 <= nbr[0] <= x1 and y0 <= nbr[1] <= y1):
                continue
            if nbr in forbidden and nbr != goal:
                continue
            step = wire_cost(graph, tile, nbr)
            if step == INF:
                continue
            nd = d + step
            if nd < dist.get(nbr, INF):
                dist[nbr] = nd
                pred[nbr] = tile
                heapq.heappush(heap, (nd, nbr))
    return None


def random_graph(rng: random.Random) -> TileGraph:
    """A small grid with random capacities, wire usage and buffer sites.

    About a third of the grids are uniform (no usage, equal capacities and
    sites), where many equal-cost paths make the tie order decide.
    """
    nx, ny = rng.randint(2, 9), rng.randint(2, 9)
    g = TileGraph(Rect(0.0, 0.0, float(nx), float(ny)), nx, ny,
                  CapacityModel.uniform(4))
    if rng.random() < 0.35:
        for tile in g.tiles():
            g.set_sites(tile, 2)
        return g
    for u, v in list(g.edges()):
        cap = rng.choice([0, 1, 2, 3, 4, 4, 4])
        g.set_wire_capacity(u, v, cap)
        used = rng.randint(0, cap + 1) if rng.random() < 0.2 else rng.randint(0, cap)
        if used:
            g.add_wire(u, v, used)
    for tile in g.tiles():
        sites = rng.choice([0, 1, 2, 3, 3])
        g.set_sites(tile, sites)
        used = rng.randint(0, sites)
        if used:
            g.use_site(tile, used)
    return g


def random_tile(rng: random.Random, g: TileGraph) -> Tuple[int, int]:
    return (rng.randrange(g.nx), rng.randrange(g.ny))


def random_window(rng: random.Random, g: TileGraph, start):
    """A random rectangle; usually around ``start``, sometimes anywhere."""
    if rng.random() < 0.8:
        return (
            rng.randint(0, start[0]), rng.randint(0, start[1]),
            rng.randint(start[0], g.nx - 1), rng.randint(start[1], g.ny - 1),
        )
    xa, xb = sorted((rng.randrange(g.nx), rng.randrange(g.nx)))
    ya, yb = sorted((rng.randrange(g.ny), rng.randrange(g.ny)))
    return (xa, ya, xb, yb)


def random_query(rng: random.Random, g: TileGraph):
    """Start, goal (tile or set), forbidden set and window of one search.

    Goals mostly lie inside the window; the rest test window clipping.
    """
    start = random_tile(rng, g)
    window = random_window(rng, g, start)
    x0, y0, x1, y1 = window

    def pick():
        if rng.random() < 0.8:
            return (rng.randint(x0, x1), rng.randint(y0, y1))
        return random_tile(rng, g)

    if rng.random() < 0.5:
        goal = pick()
    else:
        goal = {pick() for _ in range(rng.randint(1, 4))}
    density = rng.choice([0.0, 0.05, 0.2])
    forbidden = {t for t in g.tiles() if rng.random() < density}
    return start, goal, forbidden, window


class TestBufferedPathParity:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        cached_q = g.site_cost_cache().cost_fn()

        def lambda_q(t):
            return buffer_site_cost(g, t)

        # Several queries per graph: the per-graph label buffers are reused
        # across searches with different L, which the epoch stamps must
        # keep apart.
        for _ in range(8):
            start, goal, forbidden, window = random_query(rng, g)
            L = rng.randint(1, 6)
            for wire_cost in (congestion_cost, soft_congestion_cost):
                want = reference_buffered_path(
                    g, start, goal, lambda_q, L, forbidden, window, wire_cost
                )
                for q_of in (lambda_q, cached_q):
                    got = best_buffered_path(
                        g, start, goal, q_of, L, forbidden, window, wire_cost
                    )
                    assert got == want, (start, goal, L, window, wire_cost)

    def test_cache_backed_q_sees_site_bookings(self, graph10_sites):
        # Bookings between searches must reach the next search even though
        # the kernel reads the cached list instead of calling q_of.
        q_of = graph10_sites.site_cost_cache().cost_fn()
        window = (0, 0, 9, 0)
        for x in range(10):
            graph10_sites.use_site((x, 0), 3)
        assert best_buffered_path(
            graph10_sites, (0, 0), (9, 0), q_of, 3, set(), window
        ) is None
        graph10_sites.use_site((3, 0), -1)
        graph10_sites.use_site((6, 0), -1)
        path = best_buffered_path(
            graph10_sites, (0, 0), (9, 0), q_of, 3, set(), window
        )
        assert path == [(x, 0) for x in range(10)]

    def test_rejects_custom_wire_cost(self, graph10_sites):
        with pytest.raises(ConfigurationError):
            best_buffered_path(
                graph10_sites, (0, 0), (3, 0), lambda t: 1.0, 3, set(),
                (0, 0, 9, 9), wire_cost=lambda g, u, v: 1.0,
            )

    def test_tracer_counts_work(self, graph10_sites):
        tracer = Tracer()
        q_of = graph10_sites.site_cost_cache().cost_fn()
        best_buffered_path(
            graph10_sites, (0, 0), (5, 5), q_of, 3, set(), (0, 0, 9, 9),
            tracer=tracer,
        )
        pops = tracer.metrics.value("buffered_path.heap_pops")
        settled = tracer.metrics.value("buffered_path.labels_settled")
        assert pops >= settled > 0


class TestWirePathParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_oracle(self, seed):
        rng = random.Random(1000 + seed)
        g = random_graph(rng)
        for _ in range(8):
            start, goal, forbidden, window = random_query(rng, g)
            if not isinstance(goal, tuple):
                goal = min(goal)
            for wire_cost in (congestion_cost, soft_congestion_cost):
                want = reference_plain_path(
                    g, start, goal, forbidden, window, wire_cost
                )
                got = _wire_path(g, start, goal, forbidden, window, wire_cost)
                assert got == want, (start, goal, window, wire_cost)
