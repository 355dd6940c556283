"""Nair-style rip-up-and-reroute (Stage 2).

Every net is ripped up and rerouted in a fixed order (the paper sorts by
ascending delay), even nets that violate nothing — improving uncongested
nets frees capacity for later ones and avoids local minima. The loop runs
until either ``max_iterations`` full passes complete or no edge overflows.

With ``workers > 1`` the pass is executed in *bounding-box-disjoint
batches*: the net order is cut into maximal prefixes whose expanded route
boxes are pairwise disjoint, every net of a batch is ripped up, the batch
is rerouted concurrently against the frozen usage state, and the results
are committed serially in the original order.

Two parallel backends exist. The default ``"pool"`` backend ships each
batch to a persistent shared-memory worker-process pool
(:mod:`repro.parallel`): boxes use the router's *first* window margin and
workers report an escalation flag, so a speculative result is committed
exactly when its search provably read only state identical to the
sequential loop's — anything else is rerouted serially against the live
graph, recreating the sequential state exactly. The legacy ``"threads"``
backend routes batches on in-process threads with 4x-margin boxes and a
containment check; its output is independent of the thread count (and
matches sequential whenever no search escapes its box, which a window
that large makes rare). ``workers=1`` (the default) runs the original
loop unchanged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER
from repro.routing.maze import (
    RoutingWorkspace,
    congestion_cost,
    route_net_on_tiles,
)
from repro.routing.tree import RouteTree
from repro.tilegraph.congestion import wire_congestion_stats
from repro.tilegraph.graph import TileGraph

Box = Tuple[int, int, int, int]


@dataclass
class RipupOptions:
    """Options for :func:`ripup_and_reroute`.

    Attributes:
        max_iterations: full passes over the net list (paper: 3).
        radius_weight: PD trade-off used when rerouting (paper: 0.4).
        window_margin: maze-router search window margin in tiles.
        workers: reroute batches of box-disjoint nets with this many
            workers; 1 routes strictly sequentially (byte-identical
            results, the default).
        backend: parallel engine for ``workers > 1``: ``"pool"`` (the
            shared-memory worker-process pool, default) or ``"threads"``
            (the legacy in-process thread batches). Both are
            byte-identical to sequential at every worker count.
    """

    max_iterations: int = 3
    radius_weight: float = 0.4
    window_margin: int = 6
    workers: int = 1
    backend: str = "pool"

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ConfigurationError("max_iterations must be >= 0")
        if self.radius_weight < 0:
            raise ConfigurationError("radius_weight must be >= 0")
        if self.window_margin < 0:
            raise ConfigurationError("window_margin must be >= 0")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.backend not in ("pool", "threads"):
            raise ConfigurationError(
                f"unknown stage2 backend {self.backend!r}; "
                "expected 'pool' or 'threads'"
            )


def ripup_and_reroute(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    order: Sequence[str],
    options: "RipupOptions | None" = None,
    on_pass_end: "Callable[[int], None] | None" = None,
    tracer=None,
    pool=None,
) -> int:
    """Rip up and reroute every net per pass until congestion clears.

    Args:
        graph: tile graph carrying the current usage of all ``routes``.
        routes: net name -> current route; mutated in place with new routes.
        order: net processing order (paper: ascending delay).
        options: iteration/rerouting knobs (including ``workers``).
        on_pass_end: optional callback after each full pass (pass index).
        tracer: optional :class:`repro.obs.Tracer`; each pass becomes a
            ``stage2.pass`` span and each net emits ``ripped_up`` /
            ``rerouted`` events plus the ``nets_rerouted`` counter;
            parallel passes also count ``stage2.batches``.
        pool: optional :class:`repro.parallel.WorkerPool` to run the
            ``"pool"`` backend on (shared with Stage 3 / the planner);
            when omitted a private pool is created and closed here.

    Returns:
        Number of full passes executed.
    """
    options = options or RipupOptions()
    tracer = tracer if tracer is not None else NULL_TRACER
    executor = None
    tls = None
    session = None
    own_pool = None
    if options.workers > 1 and len(order) > 1:
        if options.backend == "pool":
            from repro.parallel import Stage2Session, WorkerPool

            if pool is None:
                pool = own_pool = WorkerPool(options.workers, tracer=tracer)
            session = Stage2Session(pool, graph, options)
        else:
            executor = ThreadPoolExecutor(
                max_workers=options.workers, thread_name_prefix="stage2"
            )
            tls = threading.local()
            graph.flat()  # build the shared CSR before any worker touches it
    passes = 0
    try:
        for iteration in range(options.max_iterations):
            with tracer.span("stage2.pass", **{"pass": iteration}):
                if session is not None:
                    _run_pass_pool(
                        graph, routes, order, options, session, tracer
                    )
                elif executor is not None:
                    _run_pass_parallel(
                        graph, routes, order, options, executor, tls, tracer
                    )
                else:
                    _run_pass_sequential(graph, routes, order, options, tracer)
                passes += 1
                if on_pass_end is not None:
                    on_pass_end(iteration)
            if wire_congestion_stats(graph).overflow == 0:
                break
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
        if session is not None:
            session.close()
        if own_pool is not None:
            own_pool.close()
    return passes


def _run_pass_sequential(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    order: Sequence[str],
    options: RipupOptions,
    tracer,
) -> None:
    for name in order:
        tree = routes[name]
        tree.remove_usage(graph)
        if tracer.enabled:
            tracer.event("ripped_up", name, stage="2", nodes=len(tree.nodes))
        new_tree = route_net_on_tiles(
            graph,
            tree.source,
            tree.sink_tiles,
            cost_fn=congestion_cost,
            radius_weight=options.radius_weight,
            net_name=name,
            window_margin=options.window_margin,
            tracer=tracer,
        )
        new_tree.add_usage(graph)
        routes[name] = new_tree
        if tracer.enabled:
            tracer.count("nets_rerouted")
            tracer.event("rerouted", name, stage="2", nodes=len(new_tree.nodes))


# --------------------------------------------------------------------- #
# Parallel pass                                                         #
# --------------------------------------------------------------------- #


def _net_box(graph: TileGraph, tree: RouteTree, margin: int) -> Box:
    """Expanded bounding box of everything a net's reroute may touch.

    Covers the current route *and* the pins it will be rerouted between,
    expanded by the largest windowed search margin (4x the base margin —
    the router's second escalation step). Only the final full-grid retry
    can read outside this box; :func:`_tree_within` catches that case.
    """
    xs = [t[0] for t in tree.nodes]
    ys = [t[1] for t in tree.nodes]
    return (
        max(0, min(xs) - margin),
        max(0, min(ys) - margin),
        min(graph.nx - 1, max(xs) + margin),
        min(graph.ny - 1, max(ys) + margin),
    )


def _boxes_overlap(a: Box, b: Box) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def _tree_within(tree: RouteTree, box: Box) -> bool:
    x0, y0, x1, y1 = box
    return all(
        x0 <= t[0] <= x1 and y0 <= t[1] <= y1 for t in tree.nodes
    )


def _route_worker(
    graph: TileGraph,
    tree: RouteTree,
    name: str,
    options: RipupOptions,
    tls,
) -> RouteTree:
    """Route one net in a worker thread (read-only graph access).

    Each thread keeps its own :class:`RoutingWorkspace`; the tracer is not
    thread-safe, so workers run untraced (the coordinating thread emits
    the per-net events at commit time).
    """
    ws = getattr(tls, "workspace", None)
    if ws is None or ws.num_tiles != graph.num_tiles:
        ws = RoutingWorkspace(graph.num_tiles)
        tls.workspace = ws
    return route_net_on_tiles(
        graph,
        tree.source,
        tree.sink_tiles,
        cost_fn=congestion_cost,
        radius_weight=options.radius_weight,
        net_name=name,
        window_margin=options.window_margin,
        workspace=ws,
    )


def _run_pass_parallel(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    order: Sequence[str],
    options: RipupOptions,
    executor: ThreadPoolExecutor,
    tls,
    tracer,
) -> None:
    """One full pass in box-disjoint batches; commits stay in net order."""
    cache = graph.cost_cache()
    margin = options.window_margin * 4
    n = len(order)
    idx = 0
    while idx < n:
        # Maximal prefix of the remaining order with pairwise-disjoint
        # boxes. Keeping it a *prefix* (stop at the first overlap rather
        # than skipping ahead) preserves the paper's net order exactly:
        # the concatenation of all batches is the original order.
        batch: List[str] = [order[idx]]
        boxes: List[Box] = [_net_box(graph, routes[order[idx]], margin)]
        j = idx + 1
        while j < n:
            box = _net_box(graph, routes[order[j]], margin)
            if any(_boxes_overlap(box, b) for b in boxes):
                break
            batch.append(order[j])
            boxes.append(box)
            j += 1
        idx = j
        if tracer.enabled:
            tracer.count("stage2.batches")
        if len(batch) == 1:
            _run_pass_sequential(graph, routes, batch, options, tracer)
            continue
        # Rip up the whole batch, then freeze the cost state: with every
        # batch member removed and both cost lists refreshed up front,
        # workers only ever *read* the graph and the cache.
        for name in batch:
            tree = routes[name]
            tree.remove_usage(graph)
            if tracer.enabled:
                tracer.event(
                    "ripped_up", name, stage="2", nodes=len(tree.nodes)
                )
        cache.strict_costs()
        cache.soft_costs()
        futures = [
            executor.submit(
                _route_worker, graph, routes[name], name, options, tls
            )
            for name in batch
        ]
        results = [f.result() for f in futures]  # barrier: wait for all
        for name, box, new_tree in zip(batch, boxes, results):
            if not _tree_within(new_tree, box):
                # The search escalated to the full grid and escaped its
                # box, so it may have read edges other batch members
                # already committed to — redo it against current state.
                new_tree = route_net_on_tiles(
                    graph,
                    new_tree.source,
                    new_tree.sink_tiles,
                    cost_fn=congestion_cost,
                    radius_weight=options.radius_weight,
                    net_name=name,
                    window_margin=options.window_margin,
                    tracer=tracer,
                )
            new_tree.add_usage(graph)
            routes[name] = new_tree
            if tracer.enabled:
                tracer.count("nets_rerouted")
                tracer.event(
                    "rerouted", name, stage="2", nodes=len(new_tree.nodes)
                )


# --------------------------------------------------------------------- #
# Shared-memory pool pass                                               #
# --------------------------------------------------------------------- #


def _box_contains_any(box: Box, tiles) -> bool:
    if not tiles:
        return False
    x0, y0, x1, y1 = box
    return any(x0 <= t[0] <= x1 and y0 <= t[1] <= y1 for t in tiles)


def _reroute_serial(
    graph: TileGraph,
    tree: RouteTree,
    name: str,
    options: RipupOptions,
    tracer,
) -> RouteTree:
    """Route one already-ripped net against the live graph (traced)."""
    return route_net_on_tiles(
        graph,
        tree.source,
        tree.sink_tiles,
        cost_fn=congestion_cost,
        radius_weight=options.radius_weight,
        net_name=name,
        window_margin=options.window_margin,
        tracer=tracer,
    )


def _run_pass_pool(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    order: Sequence[str],
    options: RipupOptions,
    session,
    tracer,
) -> None:
    """One full pass on the worker pool, in box-disjoint batches.

    Batches use the *first* search-window margin (not the 4x escalation
    margin of the thread path): workers report whether their search
    escalated past that window, so the boxes only need to cover
    non-escalated reads — which keeps batches long. Commit order is the
    net order; a worker result is taken only when its search stayed in
    its window AND no earlier serially-redone net dirtied its box, so
    every committed tree is exactly the sequential loop's tree.
    """
    from repro.parallel import PoolError
    from repro.parallel.stage2 import rebuild_tree

    margin = options.window_margin
    n = len(order)
    idx = 0
    while idx < n:
        batch: List[str] = [order[idx]]
        boxes: List[Box] = [_net_box(graph, routes[order[idx]], margin)]
        j = idx + 1
        while j < n:
            box = _net_box(graph, routes[order[j]], margin)
            if any(_boxes_overlap(box, b) for b in boxes):
                break
            batch.append(order[j])
            boxes.append(box)
            j += 1
        idx = j
        if tracer.enabled:
            tracer.count("stage2.batches")
        if len(batch) == 1:
            _run_pass_sequential(graph, routes, batch, options, tracer)
            continue
        old = {name: routes[name] for name in batch}
        for name in batch:
            tree = old[name]
            tree.remove_usage(graph)
            if tracer.enabled:
                tracer.event(
                    "ripped_up", name, stage="2", nodes=len(tree.nodes)
                )
        try:
            results = session.route_batch(batch, routes)
        except PoolError:
            # The pool could not deliver the batch even after respawns
            # and retries; fall back to serial rerouting below.
            if tracer.enabled:
                tracer.count("stage2.pool_fallbacks")
            results = None
        # Restore the pre-batch usage, then replay the commits in exact
        # net order, ripping each net again just before its turn: a
        # serial redo then sees precisely the graph state the sequential
        # loop would show it (later batch members still routed).
        for name in batch:
            old[name].add_usage(graph)
        dirty: set = set()
        for name, box in zip(batch, boxes):
            old[name].remove_usage(graph)
            if results is not None:
                pairs, escalated = results[name]
            else:
                pairs, escalated = None, True
            if not escalated and not _box_contains_any(box, dirty):
                new_tree = rebuild_tree(
                    old[name].source, pairs, old[name].sink_tiles, name
                )
            else:
                # Escalated past its window (or an earlier serial redo
                # touched this box): the speculative result may have read
                # stale edges — redo against the live graph.
                new_tree = _reroute_serial(
                    graph, old[name], name, options, tracer
                )
                dirty.update(new_tree.nodes)
                if results is not None and tracer.enabled:
                    tracer.count("stage2.speculation_misses")
            new_tree.add_usage(graph)
            routes[name] = new_tree
            if tracer.enabled:
                tracer.count("nets_rerouted")
                tracer.event(
                    "rerouted", name, stage="2", nodes=len(new_tree.nodes)
                )


def reroute_order_by_delay(
    delays: Dict[str, float], ascending: bool = True
) -> List[str]:
    """Net order sorted by delay (paper Stage 2: smallest first)."""
    return sorted(delays, key=lambda n: (delays[n], n), reverse=not ascending)
