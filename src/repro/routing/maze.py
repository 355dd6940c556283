"""Congestion-driven maze routing on the tile graph (Stage 2, Eq. 1).

``congestion_cost`` implements the paper's Eq. (1):

    Cost(e) = (w(e) + 1) / (W(e) - w(e))   when w(e)/W(e) < 1
              infinity                     otherwise

The router grows a tree from the source tile by wavefront (Dijkstra)
expansion: each unreached sink is connected to the partial tree by a
minimum-cost path, nearest sink first; shared prefixes make the result a
Steiner tree over tiles. An optional Prim-Dijkstra-style ``radius_weight``
biases attachment points by their congestion-cost distance from the source,
mirroring the Stage-1 trade-off on the tile graph.

When the strict cost leaves a sink unreachable (every remaining cut is at
capacity), the router retries with a *soft* cost that charges a large but
finite penalty per overfull edge, guaranteeing a route exists on a
connected grid.

The wavefront itself runs on the graph's flat CSR index
(:meth:`TileGraph.flat`): integer tile ids, per-edge costs read from the
:class:`~repro.tilegraph.cost_cache.CongestionCostCache` lists, and
preallocated dist/parent buffers held in a :class:`RoutingWorkspace` that
is reused across nets (stamped with a search epoch instead of cleared).
Because tile id ``x * ny + y`` is monotone in the ``(x, y)`` lexicographic
order the old object-keyed heap used for tie-breaking, and the cached
costs are bit-identical to the scalar formulas, the flat kernel settles
tiles in exactly the same order and returns byte-identical trees.

The edge cost is one of the two built-ins; bulk callers with other
per-edge costs (the MCF router) pass them as ``cost_array``, a per-edge-id
list, and stay on the same kernel.

This module also holds the repo's one labeled ``(tile, j)`` wavefront,
:func:`_buffered_wavefront`, shared by the Stage-4 two-path search
(:mod:`repro.core.two_path`) and the lower-bound path pricer
(:mod:`repro.bounds.pricing`). A label is one integer ``s = tile * (L + 1)
+ j`` with ``j`` the tile distance since the last gate; because ``tile`` is
monotone in ``(x, y)`` order and ``j < L + 1``, ``(d, s)`` heap entries
order exactly like ``(d, (tile, j))`` tuples would.
"""

from __future__ import annotations

import heapq
import weakref
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError, RoutingError
from repro.routing.tree import RouteTree
from repro.tilegraph.cost_cache import OVERFLOW_PENALTY
from repro.tilegraph.graph import Tile, TileGraph

EdgeCost = Callable[[TileGraph, Tile, Tile], float]

__all__ = [
    "OVERFLOW_PENALTY",
    "RoutingWorkspace",
    "congestion_cost",
    "route_net_on_tiles",
    "scalar_edge_cost",
    "soft_congestion_cost",
]

_INF = float("inf")


def congestion_cost(graph: TileGraph, u: Tile, v: Tile) -> float:
    """Paper Eq. (1): wires-crossing over wires-remaining, or infinity."""
    usage = graph.wire_usage(u, v)
    capacity = graph.wire_capacity(u, v)
    if capacity <= 0 or usage >= capacity:
        return float("inf")
    return (usage + 1) / (capacity - usage)


def soft_congestion_cost(graph: TileGraph, u: Tile, v: Tile) -> float:
    """Eq. (1) with saturation mapped to a large finite penalty.

    Keeps the router total: on a connected grid every sink is reachable,
    at the price of recorded overflow (which later passes will repair).
    """
    usage = graph.wire_usage(u, v)
    capacity = graph.wire_capacity(u, v)
    if capacity <= 0:
        return OVERFLOW_PENALTY * (usage + 1)
    if usage >= capacity:
        return OVERFLOW_PENALTY * (usage - capacity + 1)
    return (usage + 1) / (capacity - usage)


def scalar_edge_cost(graph: TileGraph, cost_fn: EdgeCost) -> EdgeCost:
    """Swap a built-in cost for its cached-lookup equivalent.

    The monotone and two-path optimizers evaluate edge costs one scalar at
    a time while *mutating usage between evaluations*, so they cannot hold
    a cost list across calls; the returned closure re-reads the cache on
    every lookup, which is still just a staleness check plus a list index
    once the dirty set is empty. Unrecognized cost functions are returned
    unchanged.
    """
    if cost_fn is congestion_cost:
        cache = graph.cost_cache()
        edge_id = graph.edge_id

        def _strict(_g: TileGraph, u: Tile, v: Tile) -> float:
            return cache.strict_costs()[edge_id(u, v)]

        return _strict
    if cost_fn is soft_congestion_cost:
        cache = graph.cost_cache()
        edge_id = graph.edge_id

        def _soft(_g: TileGraph, u: Tile, v: Tile) -> float:
            return cache.soft_costs()[edge_id(u, v)]

        return _soft
    return cost_fn


def _search_window(
    graph: TileGraph, tiles: Sequence[Tile], margin: int
) -> Tuple[int, int, int, int]:
    """Bounding box of ``tiles`` expanded by ``margin``, clipped to grid."""
    xs = [t[0] for t in tiles]
    ys = [t[1] for t in tiles]
    return (
        max(0, min(xs) - margin),
        max(0, min(ys) - margin),
        min(graph.nx - 1, max(xs) + margin),
        min(graph.ny - 1, max(ys) + margin),
    )


class RoutingWorkspace:
    """Preallocated wavefront buffers for one tile graph, reused per search.

    Buffers are *stamped*, not cleared: :meth:`begin` bumps an epoch and a
    slot only counts as written when its stamp matches, so starting a new
    search costs O(1) instead of O(num_tiles). One workspace serves any
    number of sequential searches; concurrent searches (parallel Stage 2)
    each need their own instance. The labeled ``(tile, j)`` wavefront
    sizes one with a slot per label instead of per tile.
    """

    __slots__ = ("num_tiles", "epoch", "dist", "dist_stamp",
                 "parent", "parent_eid", "heap")

    def __init__(self, num_tiles: int) -> None:
        self.num_tiles = num_tiles
        self.epoch = 0
        self.dist: List[float] = [0.0] * num_tiles
        self.dist_stamp: List[int] = [0] * num_tiles
        self.parent: List[int] = [0] * num_tiles
        self.parent_eid: List[int] = [0] * num_tiles
        self.heap: List[Tuple[float, int]] = []

    def begin(self) -> int:
        """Start a fresh search; returns the new epoch."""
        self.epoch += 1
        del self.heap[:]
        return self.epoch


#: One lazily-created default workspace per graph (sequential callers).
_default_workspaces: "weakref.WeakKeyDictionary[TileGraph, RoutingWorkspace]" = (
    weakref.WeakKeyDictionary()
)


def workspace_for(graph: TileGraph) -> RoutingWorkspace:
    """The graph's shared sequential workspace (created on first use)."""
    ws = _default_workspaces.get(graph)
    if ws is None or ws.num_tiles != graph.num_tiles:
        ws = RoutingWorkspace(graph.num_tiles)
        _default_workspaces[graph] = ws
    return ws


def _window_mask(flat, window: Tuple[int, int, int, int]) -> bytearray:
    """One byte per tile: 1 inside ``window`` (inclusive), 0 outside."""
    x0, y0, x1, y1 = window
    ny = flat.ny
    mask = bytearray(flat.num_tiles)
    row = b"\x01" * (y1 - y0 + 1)
    for x in range(x0, x1 + 1):
        base = x * ny + y0
        mask[base : base + len(row)] = row
    return mask


def _dijkstra_flat(
    flat,
    ws: RoutingWorkspace,
    costs: Sequence[float],
    seeds: Sequence[Tuple[int, float]],
    targets: Set[int],
    window: Tuple[int, int, int, int],
    blocked: Sequence[int] = (),
    expanded_tiles: Optional[List[int]] = None,
) -> Tuple[int, int, int]:
    """Flat-index wavefront from ``seeds`` until the cheapest target settles.

    Returns ``(target_idx, pops, lookups)`` with ``target_idx`` of -1
    when no target is reachable within the window under finite costs.
    Parent links land in ``ws.parent``/``ws.parent_eid`` (valid for this
    epoch only). Seeds are expandable even when they lie outside the
    window — only *neighbor* tiles are window-clipped, matching the
    object-graph router. ``blocked`` tiles are never entered, exactly as
    if they lay outside the window. Each expanded tile is appended to
    ``expanded_tiles`` when given: the search read the cost of an edge
    only if it expanded one of its endpoints.
    """
    epoch = ws.begin()
    dist = ws.dist
    dist_stamp = ws.dist_stamp
    parent = ws.parent
    parent_eid = ws.parent_eid
    adj = flat.adj
    # One byte per tile doubling as window membership AND not-yet-settled:
    # a single index in the inner loop instead of a window test plus a
    # settled-stamp compare. Settling clears the byte; out-of-window tiles
    # start cleared, which excludes them exactly like a window test would.
    live = _window_mask(flat, window)
    for idx in blocked:
        live[idx] = 0
    heap = ws.heap
    for idx, c in seeds:
        dist[idx] = c
        dist_stamp[idx] = epoch
        # Seeds are expandable even when outside the window.
        live[idx] = 1
        heap.append((c, idx))
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    mark = (expanded_tiles if expanded_tiles is not None else []).append
    pops = 0
    lookups = 0
    while heap:
        d, u = pop(heap)
        pops += 1
        if not live[u]:
            continue
        live[u] = 0
        mark(u)
        if u in targets:
            return u, pops, lookups
        for v, eid in adj[u]:
            if not live[v]:
                continue
            step = costs[eid]
            lookups += 1
            if step == _INF:
                continue
            nd = d + step
            if dist_stamp[v] != epoch or nd < dist[v]:
                dist[v] = nd
                dist_stamp[v] = epoch
                parent[v] = u
                parent_eid[v] = eid
                push(heap, (nd, v))
    return -1, pops, lookups


#: Search-mask codes per tile for the labeled wavefront: blocked (outside
#: the window or forbidden), enterable window tile, and goal.
_BLOCKED, _OPEN, _GOAL = 0, 1, 2
#: Code ``_SETTLED + j``: the tile has settled a label of gate distance
#: ``j`` (the lowest so far); only ``j < _MAX_CODED_J`` fits in a byte.
_SETTLED = 3
_MAX_CODED_J = 256 - _SETTLED

#: Per-graph label buffers: a :class:`RoutingWorkspace` with one slot per
#: ``(tile, j)`` label, kept apart from the graph's tile workspace and
#: replaced by a larger one when a search needs more labels.
_label_workspaces: "weakref.WeakKeyDictionary[TileGraph, RoutingWorkspace]" = (
    weakref.WeakKeyDictionary()
)


def _label_workspace(graph: TileGraph, num_labels: int) -> RoutingWorkspace:
    ws = _label_workspaces.get(graph)
    if ws is None or ws.num_tiles < num_labels:
        ws = _label_workspaces[graph] = RoutingWorkspace(num_labels)
    return ws


def _search_mask(
    graph: TileGraph,
    goals: Iterable[Tile],
    forbidden: Iterable[Tile],
    window: Tuple[int, int, int, int],
) -> bytearray:
    """One code per tile: window membership, forbidden tiles and goals.

    A goal outside the window is unreachable, and a goal inside it may be
    entered even when forbidden.
    """
    x0, y0, x1, y1 = window
    ny = graph.ny
    mask = _window_mask(graph.flat(), window)
    for x, y in forbidden:
        if x0 <= x <= x1 and y0 <= y <= y1:
            mask[x * ny + y] = _BLOCKED
    for x, y in goals:
        if x0 <= x <= x1 and y0 <= y <= y1:
            mask[x * ny + y] = _GOAL
    return mask


def _buffered_wavefront(
    flat,
    ws: RoutingWorkspace,
    start: int,
    mask: bytearray,
    q: Sequence[float],
    length_limit: int,
    costs: Sequence[float],
    goals_needed: int = 1,
    wire_base: float = 0.0,
    buffer_base: float = 0.0,
) -> Tuple[List[int], int, int]:
    """Labeled ``(tile, j)`` wavefront from tile ``start`` (a gate, ``j = 0``).

    A wire step to a window neighbor costs ``wire_base + costs[eid]`` and
    advances ``j`` (never past ``length_limit``); a buffer on a tile with
    finite ``q[tile]`` costs ``buffer_base + q[tile]`` and resets ``j`` to
    zero. ``INF`` costs are impassable. The base is added to the label's
    distance before the step cost, ``(d + base) + cost``.

    The search settles labels in ``(d, s)`` order and records the first
    settled label of each ``_GOAL`` tile of ``mask``, then keeps expanding
    through it. It stops once ``goals_needed`` goal tiles have one — with
    the default of 1, at the cheapest goal label. With strictly positive
    step costs a goal tile's first settled label is its cheapest one, the
    lowest ``j`` among equals.

    A settled label ``(v, j)`` dominates every later label ``(v, j')``
    with ``j' > j``: its distance is no larger and any continuation of
    the later one is also open to it. Dominated labels are neither pushed
    nor expanded, which cannot change the result: a label settled first
    among its tile's labels of no larger ``j`` only ever has such a label
    as its predecessor, so those labels — every recorded goal label and
    its whole path among them — settle in the same order with the same
    distances and predecessors as in the unpruned search. (This needs
    step costs ``>= 0`` only; float ``+`` is monotone.)

    Returns ``(goal_labels, heap_pops, labels_settled)`` in settle order;
    ``labels_settled`` also counts dominated labels that were pushed
    before their dominator settled. Distances land in ``ws.dist`` and
    predecessor labels in ``ws.parent`` (``-1`` at the start), valid
    until the workspace's next search. ``mask`` is consumed: a tile's
    byte becomes ``_SETTLED + j`` for the lowest ``j`` it has settled.
    """
    adj = flat.adj
    Lp = length_limit + 1
    # stamp[s] is 2 * epoch once label s has a tentative distance in this
    # search and 2 * epoch + 1 once it is settled; anything smaller is a
    # leftover of an earlier search.
    labeled = 2 * ws.begin()
    done = labeled + 1
    dist = ws.dist
    stamp = ws.dist_stamp
    pred = ws.parent
    heap = ws.heap
    push = heapq.heappush
    pop = heapq.heappop

    s0 = start * Lp
    dist[s0] = 0.0
    stamp[s0] = labeled
    pred[s0] = -1
    heap.append((0.0, s0))
    found: List[int] = []
    pops = 0
    settled = 0
    while heap:
        d, s = pop(heap)
        pops += 1
        if stamp[s] == done:
            continue
        stamp[s] = done
        settled += 1
        t = s // Lp
        j = s - t * Lp
        code = mask[t]
        if code > _GOAL:
            if code - _SETTLED < j:
                continue  # dominated by a settled label of lower j
        elif code == _GOAL:
            found.append(s)
            if len(found) == goals_needed:
                break
        mask[t] = _SETTLED + j if j < _MAX_CODED_J else _OPEN
        # Buffer here (resets j); only from unbuffered labels.
        if j:
            qv = q[t]
            if qv != _INF:
                nd = d + buffer_base + qv
                ns = s - j
                if stamp[ns] < labeled or nd < dist[ns]:
                    dist[ns] = nd
                    stamp[ns] = labeled
                    pred[ns] = s
                    push(heap, (nd, ns))
        # Step to a neighbor. A run of exactly L between gates is legal
        # (a gate may drive L units), so j may reach L.
        if j < length_limit:
            j += 1
            d += wire_base
            for v, eid in adj[t]:
                code = mask[v]
                if not code or (code > _GOAL and code - _SETTLED <= j):
                    continue
                step = costs[eid]
                if step == _INF:
                    continue
                nd = d + step
                ns = v * Lp + j
                if stamp[ns] < labeled or nd < dist[ns]:
                    dist[ns] = nd
                    stamp[ns] = labeled
                    pred[ns] = s
                    push(heap, (nd, ns))
    return found, pops, settled


def _label_chain(ws: RoutingWorkspace, label: int) -> List[int]:
    """Labels from the search start to ``label``, along ``ws.parent``."""
    chain: List[int] = []
    pred = ws.parent
    while label >= 0:
        chain.append(label)
        label = pred[label]
    chain.reverse()
    return chain


def _route_net_flat(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    strict_costs: Sequence[float],
    soft_costs_fn: Callable[[], Sequence[float]],
    start_soft: bool,
    radius_weight: float,
    net_name: str,
    window_margin: int,
    tracer,
    workspace: Optional[RoutingWorkspace],
    cache_backed: bool,
) -> RouteTree:
    """Fast path: route with per-edge-id cost lists on the flat index."""
    flat = graph.flat()
    ws = workspace if workspace is not None else workspace_for(graph)
    tile_index = graph.tile_index
    tile_at = graph.tile_at

    sink_set = {t for t in sinks}
    source_idx = tile_index(source)
    # idx -> path cost from source; insertion order mirrors tree growth.
    tree_tiles: Dict[int, float] = {source_idx: 0.0}
    parent: Dict[Tile, Tile] = {}
    pending: Set[int] = {tile_index(t) for t in sink_set} - {source_idx}

    all_pins = [source] + list(sinks)
    margins = [window_margin, window_margin * 4, max(graph.nx, graph.ny)]
    # Every tile any attempt expanded, in order (repeats included).
    expanded_tiles: List[int] = []
    total_pops = 0
    total_lookups = 0
    # True once any search read beyond the first window (wider margins or
    # the soft rescan). Soft-start callers are conservatively escalated.
    escalated = start_soft

    while pending:
        target = -1
        used_costs = soft_costs_fn() if start_soft else strict_costs
        soft = start_soft
        for attempt, margin in enumerate(margins):
            window = _search_window(graph, all_pins, margin)
            seeds = [
                (idx, radius_weight * path_cost)
                for idx, path_cost in tree_tiles.items()
            ]
            target, pops, lookups = _dijkstra_flat(
                flat, ws, used_costs, seeds, pending, window, (),
                expanded_tiles,
            )
            total_pops += pops
            total_lookups += lookups
            if target >= 0:
                break
            escalated = True
            if attempt == len(margins) - 1 and not soft:
                # Full-grid strict search failed: relax to the soft cost
                # and rescan the margins. The workspace (dist/parent/heap
                # buffers) carries over — only the epoch advances.
                soft = True
                used_costs = soft_costs_fn()
                for margin2 in margins:
                    window = _search_window(graph, all_pins, margin2)
                    target, pops, lookups = _dijkstra_flat(
                        flat, ws, used_costs, seeds, pending, window, (),
                        expanded_tiles,
                    )
                    total_pops += pops
                    total_lookups += lookups
                    if target >= 0:
                        break
                break
        if target < 0:
            unreachable = sorted(tile_at(i) for i in pending)
            raise RoutingError(
                f"net {net_name!r}: sink(s) {unreachable} unreachable from {source}"
            )
        # Walk back to the tree, recording path costs from the source.
        ws_parent = ws.parent
        ws_parent_eid = ws.parent_eid
        path = [target]
        while path[-1] not in tree_tiles:
            path.append(ws_parent[path[-1]])
        attach = path[-1]
        path.reverse()  # attach ... target
        running = tree_tiles[attach]
        for b in path[1:]:
            running += used_costs[ws_parent_eid[b]]
            if b not in tree_tiles:
                tree_tiles[b] = running
                parent[tile_at(b)] = tile_at(ws_parent[b])
        pending -= tree_tiles.keys()

    if tracer is not None and tracer.enabled:
        if expanded_tiles:
            tracer.count("maze_nodes_expanded", len(expanded_tiles))
        if total_pops:
            tracer.count("route.heap_pops", total_pops)
        if cache_backed and total_lookups:
            tracer.count("route.cache_hits", total_lookups)
    sink_tiles = sorted(sink_set)
    tree = RouteTree.from_parent_map(source, parent, sink_tiles, net_name=net_name)
    # Everything this search read lies inside the first window iff it
    # never escalated — the parallel Stage-2 commit relies on this flag.
    tree.search_escalated = escalated
    tree.search_box = _read_box(expanded_tiles, graph.ny)
    return tree


def _read_box(expanded_tiles: List[int], ny: int) -> Tuple[int, int, int, int]:
    """Inclusive ``(x0, y0, x1, y1)`` bounding box of the expanded tile ids.

    Empty (``x0 > x1``) when nothing was expanded. Tile ids are
    ``x * ny + y``, so the x range follows from the smallest and largest id.
    """
    if not expanded_tiles:
        return (0, 0, -1, -1)
    ys = list(map(ny.__rmod__, expanded_tiles))
    return (
        min(expanded_tiles) // ny,
        min(ys),
        max(expanded_tiles) // ny,
        max(ys),
    )


def route_net_on_tiles(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    cost_fn: EdgeCost = congestion_cost,
    radius_weight: float = 0.0,
    net_name: str = "",
    window_margin: int = 6,
    tracer=None,
    cost_array: Optional[Sequence[float]] = None,
    workspace: Optional[RoutingWorkspace] = None,
) -> RouteTree:
    """Route one net on the tile graph, congestion-aware.

    Args:
        graph: tile graph carrying current usage (this net must already be
            ripped up, i.e., its own usage removed).
        source: driver tile.
        sinks: sink tiles (duplicates and the source tile allowed).
        cost_fn: per-edge cost, ``congestion_cost`` (the strict Eq. (1)
            cost, default) or ``soft_congestion_cost``; both run on the
            flat kernel with cached cost lists.
        radius_weight: PD-style bias ``c``; attaching to a tree tile whose
            path cost from the source is ``P`` charges ``c * P`` up front.
        net_name: label for the returned tree.
        window_margin: initial search-window margin in tiles; doubled, then
            dropped (whole grid) if a sink is unreachable, before falling
            back to the soft cost.
        tracer: optional :class:`repro.obs.Tracer`; accumulates
            ``maze_nodes_expanded``, ``route.heap_pops`` and (when the
            cost cache serves the search) ``route.cache_hits``.
        cost_array: per-edge-id costs overriding ``cost_fn`` on the flat
            kernel (bulk callers, e.g. the MCF router). The soft-cost
            fallback still applies when it leaves a sink unreachable.
        workspace: preallocated buffers to use; defaults to the graph's
            shared sequential workspace. Parallel callers must pass a
            per-thread instance.

    Returns:
        A :class:`RouteTree` connecting the source to every sink. The
        tree carries a ``search_escalated`` attribute — ``False``
        guarantees every edge the search read lies inside the first
        ``window_margin`` window around the pins (the speculation
        contract of the parallel Stage-2 pool backend) — and a
        ``search_box``: the inclusive ``(x0, y0, x1, y1)`` bounding box
        of every tile any of its wavefronts expanded (empty, ``x0 > x1``,
        when no search ran). Every edge cost the search read has an
        endpoint in that box, so the search repeats bit for bit while
        no edge with an endpoint in the box changes (the incremental
        service's dirty test).

    Raises:
        ConfigurationError: ``cost_fn`` is neither built-in cost.
        RoutingError: only if even the soft cost cannot connect (grid
            disconnected), which cannot happen on a standard grid.
    """
    if cost_array is not None:
        cache = graph.cost_cache()
        return _route_net_flat(
            graph, source, sinks, cost_array, cache.soft_costs, False,
            radius_weight, net_name, window_margin, tracer, workspace,
            cache_backed=False,
        )
    if cost_fn is congestion_cost:
        cache = graph.cost_cache()
        return _route_net_flat(
            graph, source, sinks, cache.strict_costs(), cache.soft_costs,
            False, radius_weight, net_name, window_margin, tracer, workspace,
            cache_backed=True,
        )
    if cost_fn is soft_congestion_cost:
        cache = graph.cost_cache()
        return _route_net_flat(
            graph, source, sinks, cache.soft_costs(), cache.soft_costs,
            True, radius_weight, net_name, window_margin, tracer, workspace,
            cache_backed=True,
        )
    raise ConfigurationError(
        "cost_fn must be congestion_cost or soft_congestion_cost; "
        "pass cost_array for any other per-edge cost"
    )
