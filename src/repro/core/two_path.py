"""Stage 4: two-path rip-up and reroute (paper Section III-D).

Each net is taken apart one *two-path* at a time (a maximal tree path whose
interior is degree-2 and contains no sink/Steiner node). The two endpoints
are reconnected by the minimum-cost path under the combined wire (Eq. 1)
and buffer (Eq. 2) congestion costs, found by a wavefront expansion over
labels ``(tile, distance since the last buffer)`` — the buffer-aware maze
labels of Hur/Lillis and Zhou et al. that the paper cites. Afterwards the
caller rips out and reinserts the whole net's buffers via the Stage-3 DP.

The search is the shared labeled wavefront
:func:`repro.routing.maze._buffered_wavefront` on the graph's flat CSR
index, in its single-goal mode: edge costs come from the
:class:`~repro.tilegraph.cost_cache.CongestionCostCache` lists and ``q(v)``
from the :class:`~repro.tilegraph.ledger.SiteCostCache` list, each fetched
once per search (usage never changes during one), and ``dist``/``pred``
live in epoch-stamped per-graph label buffers. Integer labels order exactly
like the ``(tile, j)`` tuples a dict-keyed wavefront would compare, so ties
pop in the same order and the returned paths are identical.

Each strict two-path search is bounded by the two-path it replaces: the
old route's cheapest legal labeled walk caps the cost worth exploring,
and a reverse wire-only wavefront gives every tile a floor on its cost to
the goal. Labels whose distance plus floor exceeds the cap are dropped.
The settle order is unchanged, so the result is too (see
:func:`repro.routing.maze._buffered_wavefront`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.routing.maze import (
    _buffered_wavefront,
    _dijkstra_flat,
    _floor_mask,
    _label_chain,
    _label_workspace,
    _search_mask,
    congestion_cost,
    soft_congestion_cost,
    workspace_for,
)
from repro.routing.tree import RouteTree
from repro.tilegraph.graph import Tile, TileGraph
from repro.tilegraph.ledger import SiteCostCache

INF = float("inf")

#: Relative slack on a search bound: labels are dropped only above
#: ``bound * (1 + _BOUND_SLACK)``. The bound, the floors and the labels
#: sum the same steps in different orders, so they can differ in the last
#: bits; the slack absorbs that (pruning less is always exact).
_BOUND_SLACK = 1e-9


def _edge_costs(graph: TileGraph, wire_cost: Callable) -> List[float]:
    """The cached per-edge-id cost list behind a built-in wire cost."""
    if wire_cost is congestion_cost:
        return graph.cost_cache().strict_costs()
    if wire_cost is soft_congestion_cost:
        return graph.cost_cache().soft_costs()
    raise ConfigurationError(
        "wire_cost must be congestion_cost or soft_congestion_cost"
    )


def _site_costs(
    graph: TileGraph,
    q_of: Callable[[Tile], float],
    window: Tuple[int, int, int, int],
) -> List[float]:
    """``q(v)`` per tile index for every tile the search may buffer at.

    The graph's own :meth:`SiteCostCache.cost_fn` is served straight from
    the cached list; any other callable is evaluated once per window tile
    (only window tiles are ever expanded with ``j > 0``).
    """
    cache = getattr(q_of, "__self__", None)
    if isinstance(cache, SiteCostCache) and cache.graph is graph:
        return cache.costs()
    q = [INF] * graph.num_tiles
    x0, y0, x1, y1 = window
    ny = graph.ny
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            q[x * ny + y] = q_of((x, y))
    return q


def best_buffered_path(
    graph: TileGraph,
    start: Tile,
    goal: "Tile | Set[Tile]",
    q_of: Callable[[Tile], float],
    length_limit: int,
    forbidden: Set[Tile],
    window: Tuple[int, int, int, int],
    wire_cost: Callable[[TileGraph, Tile, Tile], float] = congestion_cost,
    tracer=None,
    old_path: Optional[List[Tile]] = None,
) -> Optional[List[Tile]]:
    """Min-cost start-to-goal path under wire + buffer congestion costs.

    States are ``(tile, j)`` with ``j`` the tile distance since the last
    buffer (the start counts as buffered, ``j = 0``). Moving to a neighbor
    costs Eq. (1) and increments ``j``; taking a buffer site costs Eq. (2)
    and resets ``j``. Paths whose ``j`` would reach ``length_limit`` must
    buffer first, so any returned path can be legally buffered.

    ``goal`` may be a single tile or a set of tiles (the path ends at the
    cheapest reachable member — used by the Stage-4 rescue pass to attach
    a sink to an existing tree). ``wire_cost`` is ``congestion_cost`` or
    ``soft_congestion_cost``.

    ``old_path`` is a known route from ``start`` to a goal. When it can be
    legally buffered inside the search's mask, the cost of its cheapest
    labeled walk bounds the search: a reverse wire-only wavefront gives
    each tile a floor on its cost to the goal, and labels whose distance
    plus floor exceeds the bound are dropped (see
    :func:`repro.routing.maze._buffered_wavefront`). The returned path is
    the same as without ``old_path``; only the work shrinks.

    With an enabled ``tracer`` the search counts
    ``buffered_path.heap_pops`` and ``buffered_path.labels_settled``, and
    with ``old_path`` also ``buffered_path.floor_pops`` (the reverse
    wavefront) or, when the old route gives no bound,
    ``buffered_path.unbounded``.

    Returns the tile path (start first) or ``None`` when no legal path
    exists within the window.
    """
    costs = _edge_costs(graph, wire_cost)
    goals: Set[Tile] = {goal} if isinstance(goal, tuple) else set(goal)
    if start in goals:
        return [start]
    q = _site_costs(graph, q_of, window)
    ny = graph.ny
    Lp = length_limit + 1
    bound = INF
    if old_path is not None and old_path[0] == start:
        bound = _route_bound(
            graph, old_path, goals, q, costs, length_limit, forbidden, window
        )
    tracing = tracer is not None and tracer.enabled
    floor = None
    limit = INF
    if bound == INF:
        mask = _search_mask(graph, goals, forbidden, window)
        if old_path is not None and tracing:
            tracer.count("buffered_path.unbounded")
    else:
        limit = bound * (1.0 + _BOUND_SLACK)
        mask, floor, floor_pops = _floor_mask(
            graph, goals, forbidden, window, costs, limit
        )
        if tracing:
            tracer.count("buffered_path.floor_pops", floor_pops)
    ws = _label_workspace(graph, graph.num_tiles * Lp)
    found, pops, settled = _buffered_wavefront(
        graph.flat(), ws, start[0] * ny + start[1], mask, q, length_limit,
        costs, floor=floor, limit=limit,
    )
    if tracing:
        tracer.count("buffered_path.heap_pops", pops)
        tracer.count("buffered_path.labels_settled", settled)
    if not found:
        return None
    # Drop the buffer self-transitions.
    tiles: List[int] = []
    for s in _label_chain(ws, found[0]):
        t = s // Lp
        if not tiles or tiles[-1] != t:
            tiles.append(t)
    return _remove_loops([(t // ny, t % ny) for t in tiles])


def _route_bound(
    graph: TileGraph,
    path: List[Tile],
    goals: Set[Tile],
    q: List[float],
    costs: List[float],
    length_limit: int,
    forbidden: Set[Tile],
    window: Tuple[int, int, int, int],
) -> float:
    """Cost of the cheapest legal labeled walk along ``path`` (start first).

    The walk follows the search's own rules and arithmetic — wire steps
    ``d + costs[e]`` advance ``j`` up to ``length_limit``, buffers ``d +
    q[v]`` reset it — so no search result costs more. ``INF`` when the
    path leaves the window, enters a forbidden non-goal tile, ends off
    the goals, crosses an ``INF`` edge or cannot be buffered in time.
    """
    x0, y0, x1, y1 = window
    if path[-1] not in goals:
        return INF
    for tile in path:
        if not (x0 <= tile[0] <= x1 and y0 <= tile[1] <= y1):
            return INF
        if tile in forbidden and tile not in goals:
            return INF
    ny = graph.ny
    edge_id = graph.edge_id
    # by_j[j]: cheapest walk so far that ends at the current tile with j.
    by_j = [0.0] + [INF] * length_limit
    for u, v in zip(path, path[1:]):
        qu = q[u[0] * ny + u[1]]
        if qu != INF:
            buffered = min(by_j[1:]) + qu
            if buffered < by_j[0]:
                by_j[0] = buffered
        step = costs[edge_id(u, v)]
        if step == INF:
            return INF
        by_j = [INF] + [d + step for d in by_j[:-1]]
    return min(by_j)


def _remove_loops(path: List[Tile]) -> List[Tile]:
    """Excise revisit loops so the path is simple over tiles.

    The (tile, j) state space legitimately revisits a tile (e.g., a detour
    to a buffer site and back), but a route tree needs simple tile paths;
    re-insertion of buffers afterwards restores legality where possible.
    """
    first_seen: Dict[Tile, int] = {}
    out: List[Tile] = []
    for tile in path:
        if tile in first_seen:
            del_from = first_seen[tile] + 1
            for dropped in out[del_from:]:
                del first_seen[dropped]
            del out[del_from:]
        else:
            first_seen[tile] = len(out)
            out.append(tile)
    return out


def _wire_path(
    graph: TileGraph,
    start: Tile,
    goal: Tile,
    forbidden: Set[Tile],
    window: Tuple[int, int, int, int],
    wire_cost: Callable[[TileGraph, Tile, Tile], float],
) -> Optional[List[Tile]]:
    """Wire-cost-only path on the maze kernel (no bufferable path exists).

    ``forbidden`` tiles other than ``goal`` may not be entered.
    """
    idx = graph.tile_index
    start_idx, goal_idx = idx(start), idx(goal)
    ws = workspace_for(graph)
    target, _, _ = _dijkstra_flat(
        graph.flat(),
        ws,
        _edge_costs(graph, wire_cost),
        [(start_idx, 0.0)],
        {goal_idx},
        window,
        blocked=[idx(t) for t in forbidden if t != goal],
    )
    if target < 0:
        return None
    path = [target]
    while path[-1] != start_idx:
        path.append(ws.parent[path[-1]])
    path.reverse()
    return [graph.tile_at(i) for i in path]


def optimize_two_paths(
    graph: TileGraph,
    tree: RouteTree,
    q_of: Callable[[Tile], float],
    length_limit: int,
    window_margin: int = 6,
    tracer=None,
) -> int:
    """Reroute every two-path of ``tree`` at minimum combined cost.

    Preconditions: the tree's *wire* usage is recorded on ``graph``; its
    *buffer* usage has already been released (Stage 4 rips a net's buffers
    before rerouting it). The tree's buffer annotations are cleared here.
    ``tracer`` receives the buffered-path work counters.

    Returns:
        The number of two-paths whose route changed.
    """
    tree.clear_buffers()
    changed = 0
    for old_path in tree.two_paths():
        head, tail = old_path[0], old_path[-1]
        for a, b in zip(old_path, old_path[1:]):
            graph.add_wire(a, b, -1)
        forbidden = (set(tree.nodes) - set(old_path[1:-1])) - {head, tail}
        window = _window_for(graph, head, tail, window_margin)
        new_path = best_buffered_path(
            graph, tail, head, q_of, length_limit, forbidden, window,
            tracer=tracer, old_path=old_path[::-1],
        )
        if new_path is None:
            # No bufferable path within capacity; try any within-capacity
            # path (the net's buffering may still be fixed elsewhere).
            new_path = _wire_path(
                graph, tail, head, forbidden, window, congestion_cost
            )
        if new_path is None and not _path_fits(graph, old_path):
            # Only when even the old route overflows do we accept paying
            # overflow penalties for a (hopefully better) soft-cost route;
            # otherwise keeping the old route preserves the Stage-2
            # capacity guarantee.
            new_path = best_buffered_path(
                graph,
                tail,
                head,
                q_of,
                length_limit,
                forbidden,
                window,
                wire_cost=soft_congestion_cost,
                tracer=tracer,
            ) or _wire_path(
                graph, tail, head, forbidden, window, soft_congestion_cost
            )
        if new_path is None:
            new_path = list(reversed(old_path))  # keep the old route
        new_path = list(reversed(new_path))  # head first, as two_paths yields
        if new_path != old_path:
            changed += 1
        tree.replace_two_path(old_path, new_path)
        for a, b in zip(new_path, new_path[1:]):
            graph.add_wire(a, b, 1)
    return changed


def _path_fits(graph: TileGraph, path: List[Tile]) -> bool:
    """True when re-adding this (currently ripped) path stays in capacity."""
    return all(
        graph.wire_usage(a, b) < graph.wire_capacity(a, b)
        for a, b in zip(path, path[1:])
    )


def _window_for(
    graph: TileGraph, a: Tile, b: Tile, margin: int
) -> Tuple[int, int, int, int]:
    return (
        max(0, min(a[0], b[0]) - margin),
        max(0, min(a[1], b[1]) - margin),
        min(graph.nx - 1, max(a[0], b[0]) + margin),
        min(graph.ny - 1, max(a[1], b[1]) + margin),
    )
