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
from repro.core.two_path import (
    _remove_loops,
    _route_bound,
    _wire_path,
    best_buffered_path,
)
from repro.errors import ConfigurationError
from repro.geometry import Rect
from repro.obs import Tracer
from repro.routing.maze import congestion_cost, soft_congestion_cost
from repro.tilegraph import CapacityModel, TileGraph

INF = float("inf")


def reference_buffered_path(graph, start, goal, q_of, length_limit,
                            forbidden, window, wire_cost=congestion_cost,
                            cost_out=None):
    """Dict-keyed ``(tile, j)`` wavefront (the pre-flat implementation).

    When a path is found, its goal label's distance is appended to
    ``cost_out`` (if given).
    """
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
    if cost_out is not None:
        cost_out.append(dist[goal_state])
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


def random_route(rng: random.Random, g: TileGraph, start, goal):
    """A random simple tile path from ``start`` to ``goal`` on the grid.

    A depth-first walk that tries goal-ward neighbors first most of the
    time, so routes range from near-direct to winding (and often leave a
    search window).
    """
    def closer(t):
        return abs(t[0] - goal[0]) + abs(t[1] - goal[1])

    path = [start]
    seen = {start}
    stack = []
    while path[-1] != goal:
        tile = path[-1]
        if len(stack) < len(path):
            nbrs = [n for n in g.neighbors(tile) if n not in seen]
            rng.shuffle(nbrs)
            if rng.random() < 0.8:
                nbrs.sort(key=closer)
            stack.append(iter(nbrs))
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
            continue
        seen.add(nxt)
        path.append(nxt)
    return path


def traced_search(g, start, goal, q_of, L, forbidden, window, old_path=None):
    tracer = Tracer()
    path = best_buffered_path(g, start, goal, q_of, L, forbidden, window,
                              tracer=tracer, old_path=old_path)
    return path, tracer.metrics


class TestBoundedSearchParity:
    """``old_path`` bounds the search but must never change its result."""

    def check(self, g, start, goal, q_of, L, forbidden, window, old_path):
        """Bounded result == oracle; bounded pops <= unbounded pops."""
        lambda_q = lambda t: buffer_site_cost(g, t)  # noqa: E731
        cost = []
        want = reference_buffered_path(
            g, start, goal, lambda_q, L, forbidden, window, cost_out=cost
        )
        got, bounded = traced_search(
            g, start, goal, q_of, L, forbidden, window, old_path
        )
        assert got == want, (start, goal, L, window, old_path)
        goals = {goal} if isinstance(goal, tuple) else set(goal)
        if start in goals:
            return 0.0, 0.0  # answered before any search
        plain, unbounded = traced_search(
            g, start, goal, q_of, L, forbidden, window
        )
        assert plain == want
        assert (bounded.value("buffered_path.heap_pops")
                <= unbounded.value("buffered_path.heap_pops"))
        ub = _route_bound(
            g, old_path, goals, g.site_cost_cache().costs(),
            g.cost_cache().strict_costs(), L, forbidden, window,
        )
        if ub != INF:
            # A legal walk exists, so the search finds one no dearer.
            assert want is not None and cost[0] <= ub
            assert bounded.value("buffered_path.unbounded") == 0
            assert bounded.value("buffered_path.floor_pops") > 0
        else:
            assert bounded.value("buffered_path.unbounded") == 1
            assert bounded.value("buffered_path.floor_pops") == 0
        return ub, cost[0] if cost else None

    @pytest.mark.parametrize("seed", range(40))
    def test_random_routes_match_oracle(self, seed):
        rng = random.Random(2000 + seed)
        g = random_graph(rng)
        cached_q = g.site_cost_cache().cost_fn()
        for _ in range(8):
            start, goal, forbidden, window = random_query(rng, g)
            target = goal if isinstance(goal, tuple) else min(goal)
            L = rng.randint(1, 6)
            optimal = reference_buffered_path(
                g, start, goal, cached_q, L, forbidden, window
            )
            routes = [random_route(rng, g, start, target) for _ in range(3)]
            if optimal is not None:
                routes.append(optimal)
            for old_path in routes:
                self.check(
                    g, start, goal, cached_q, L, forbidden, window, old_path
                )

    @pytest.mark.parametrize("seed", range(10))
    def test_tie_heavy_uniform_grid(self, seed):
        # No usage, equal capacities and sites: many equal-cost paths, so
        # the (d, s) tie order decides which one comes back.
        rng = random.Random(3000 + seed)
        nx, ny = rng.randint(4, 10), rng.randint(4, 10)
        g = TileGraph(Rect(0.0, 0.0, float(nx), float(ny)), nx, ny,
                      CapacityModel.uniform(4))
        for tile in g.tiles():
            g.set_sites(tile, 2)
        q_of = g.site_cost_cache().cost_fn()
        window = (0, 0, nx - 1, ny - 1)
        for _ in range(6):
            start, goal = random_tile(rng, g), random_tile(rng, g)
            L = rng.randint(1, 5)
            for old_path in (random_route(rng, g, start, goal),
                             random_route(rng, g, start, goal)):
                self.check(g, start, goal, q_of, L, set(), window, old_path)

    def test_optimal_old_path_bound_equals_best_cost(self):
        # When the old route is itself optimal its bound is d* exactly,
        # the tightest case for the slack on the limit.
        tight = 0
        for seed in range(30):
            rng = random.Random(4000 + seed)
            g = random_graph(rng)
            q_of = g.site_cost_cache().cost_fn()
            for _ in range(6):
                start, goal, forbidden, window = random_query(rng, g)
                L = rng.randint(1, 6)
                optimal = reference_buffered_path(
                    g, start, goal, q_of, L, forbidden, window
                )
                if optimal is None or len(optimal) < 2:
                    continue
                ub, best = self.check(
                    g, start, goal, q_of, L, forbidden, window, optimal
                )
                tight += ub == best
        assert tight >= 20

    def test_unbufferable_old_path_runs_unbounded(self, graph10):
        # The straight route crosses 5 site-less tiles with L = 3, so it
        # gives no bound; the search detours through row 1's sites.
        for tile in graph10.tiles():
            graph10.set_sites(tile, 0 if tile[1] == 0 else 2)
        q_of = graph10.site_cost_cache().cost_fn()
        straight = [(x, 0) for x in range(7)]
        ub, best = self.check(
            graph10, (0, 0), (6, 0), q_of, 3, set(), (0, 0, 9, 9), straight
        )
        assert ub == INF and best is not None

    def test_old_path_leaving_window_runs_unbounded(self, graph10_sites):
        q_of = graph10_sites.site_cost_cache().cost_fn()
        detour = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0)]
        window = (0, 0, 9, 1)
        ub, best = self.check(
            graph10_sites, (0, 0), (2, 0), q_of, 3, set(), window, detour
        )
        assert ub == INF and best is not None
        # Inside the window the same route does bound the search.
        ub, _ = self.check(
            graph10_sites, (0, 0), (2, 0), q_of, 3, set(), (0, 0, 9, 9),
            detour,
        )
        assert ub != INF

    def test_forbidden_tiles(self, graph10_sites):
        q_of = graph10_sites.site_cost_cache().cost_fn()
        window = (0, 0, 9, 9)
        wall = {(3, y) for y in range(8)}
        around = ([(x, 0) for x in range(3)]
                  + [(2, y) for y in range(1, 9)]
                  + [(3, 8), (4, 8)]
                  + [(4, y) for y in range(7, -1, -1)]
                  + [(x, 0) for x in range(5, 7)])
        ub, best = self.check(
            graph10_sites, (0, 0), (6, 0), q_of, 3, wall, window, around
        )
        assert ub != INF
        # A route through the wall gives no bound.
        through = [(x, 0) for x in range(7)]
        ub, _ = self.check(
            graph10_sites, (0, 0), (6, 0), q_of, 3, wall, window, through
        )
        assert ub == INF

    def test_bound_prunes_work(self, graph10_sites):
        # A direct old route on an open grid: the floor cuts the labels that
        # wander away from the goal.
        q_of = graph10_sites.site_cost_cache().cost_fn()
        straight = [(x, 0) for x in range(6)]
        _, bounded = traced_search(
            graph10_sites, (0, 0), (5, 0), q_of, 3, set(), (0, 0, 9, 9),
            straight,
        )
        _, unbounded = traced_search(
            graph10_sites, (0, 0), (5, 0), q_of, 3, set(), (0, 0, 9, 9),
        )
        assert (bounded.value("buffered_path.heap_pops")
                < unbounded.value("buffered_path.heap_pops"))


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
