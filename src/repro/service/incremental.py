"""Dirty-region incremental re-planning (the service tentpole).

The exact-replay strategy
-------------------------

The service pipeline is sequential and deterministic: nets are routed in
sorted name order against accumulating wire usage, then buffered in the
same order against accumulating ``b(v)`` and the shrinking ``p(v)``
field. Each net's result therefore depends on (a) its own pins/limit and
(b) the *prefix state* left by every net before it — plus, through
``p(v)``, the routes and limits of the nets after it.

Instead of patching the old plan in place, the incremental engine
*re-executes the walk* but replays cached results wherever the delta
provably cannot have changed them:

* **Route phase** — usage is reset and the walk re-books each net in
  order. A net is re-searched only if its pins changed or the *read
  box* of its cached search (``RouteTree.search_box``, the bounding box
  of every tile its maze wavefronts expanded, escalations and the soft
  rescan included) holds a *route-dirty* tile. That set starts as the
  endpoints of every edge whose ``W(e)`` changed and grows in walk
  order: a removed or pins-changed net's old tiles turn dirty at its
  place in the order (only the nets after it saw its usage), and a
  re-searched net whose edges changed adds its old and new tiles. Every
  other net re-books its cached tree, which reconstructs the exact
  usage prefix its original search saw.
* **Buffer phase** — ``p(v)`` is rebuilt from the new routes/limits, and
  the Stage-3 walk replays each cached :class:`NetOutcome` unless the
  net is *buffer-dirty*: its route or limit changed, its tiles touch a
  tile with changed ``B(v)`` or changed ``p(v)`` contributions (seeded
  up front, because ``p(v)`` flows from later nets to earlier solves),
  or an earlier re-solved net moved a buffer onto one of its tiles
  (propagated during the walk, because ``b(v)`` flows forward).

The read-box test is exact. A maze search reads the cost of an edge
only when it expands one of the edge's endpoints, and every edge whose
cost can differ from the cached search's view — changed capacity, or
usage by a net earlier in the order that changed or left — has both
endpoints in the route-dirty set by the time the walk reaches the net.
A net whose box misses that set would therefore repeat its search bit
for bit. A tree without a box (one restored from a checkpoint) counts
as having read the whole grid. By induction over the walk order the
composed plan is the one :func:`repro.service.engine.full_plan` would
produce; the scheduler's sampled verification against a scratch full
plan (:mod:`repro.service.verify`) guards only against bugs.

All site bookings happen inside one :class:`SiteLedger` transaction and
the mutated :class:`PlanState` is restored from a backup if anything
raises, so a failed partial re-plan leaves the baseline untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.benchmarks.buffering_kernel import buffering_signature
from repro.obs import NULL_TRACER
from repro.routing.tree import RouteTree
from repro.service.engine import (
    NetOutcome,
    PlanState,
    route_one,
    run_buffer_walk,
)
from repro.service.jobs import DeltaSpec, ScenarioSpec, apply_delta

Tile = Tuple[int, int]


@dataclass
class IncrementalStats:
    """What one incremental re-plan actually did.

    ``nets_searched`` counts the nets whose maze search ran;
    ``nets_rerouted`` counts those among them (or new nets) whose edges
    changed.
    """

    signature: str
    seconds: float
    nets_total: int
    nets_searched: int
    nets_rerouted: int
    nets_resolved: int
    nets_replayed: int
    dirty_tiles: int
    rerouted_nets: List[str] = field(default_factory=list)
    resolved_nets: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "signature": self.signature,
            "seconds": round(self.seconds, 6),
            "nets_total": self.nets_total,
            "nets_searched": self.nets_searched,
            "nets_rerouted": self.nets_rerouted,
            "nets_resolved": self.nets_resolved,
            "nets_replayed": self.nets_replayed,
            "dirty_tiles": self.dirty_tiles,
        }


def _normalize(pins) -> Tuple[Tile, Tuple[Tile, ...]]:
    source, sinks = pins
    return tuple(source), tuple(tuple(s) for s in sinks)


def _reads_dirty(tree: RouteTree, dirty: Set[Tile]) -> bool:
    """Whether ``tree``'s cached maze search may have read a dirty tile.

    A tree without a ``search_box`` (one restored from a checkpoint)
    counts as having read the whole grid.
    """
    box = getattr(tree, "search_box", None)
    if box is None:
        return True
    x0, y0, x1, y1 = box
    return any(x0 <= t[0] <= x1 and y0 <= t[1] <= y1 for t in dirty)


def incremental_replan(
    state: PlanState,
    delta: DeltaSpec,
    tracer=None,
) -> IncrementalStats:
    """Apply ``delta`` to a cached baseline plan, in place.

    On success ``state`` holds the new plan (scenario, routes, outcomes,
    graph usage, signature). On any exception the backup is restored and
    the exception propagates — the baseline is never left half-planned.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    new_scenario = apply_delta(state.scenario, delta)
    backup = state.backup()
    try:
        with tracer.span("service.incremental_replan"):
            stats = _replay(state, new_scenario, tracer)
    except Exception:
        state.restore(backup)
        raise
    if tracer.enabled:
        tracer.gauge("service.dirty_nets", stats.nets_resolved)
        tracer.observe("service.incremental_seconds", stats.seconds)
    return stats


def _replay(
    state: PlanState, new_scenario: ScenarioSpec, tracer
) -> IncrementalStats:
    start = time.perf_counter()
    graph = state.graph
    config = state.config
    old_scenario = state.scenario
    old_routes = state.routes
    old_outcomes = state.outcomes

    old_nets = {k: _normalize(v) for k, v in old_scenario.nets().items()}
    new_nets = {k: _normalize(v) for k, v in new_scenario.nets().items()}
    order = sorted(new_nets)

    pins_changed = {
        name
        for name in new_nets
        if old_nets.get(name) != new_nets[name]
    }
    removed = set(old_nets) - set(new_nets)
    old_limits = old_scenario.limits(old_nets)
    new_limits = new_scenario.limits(order)
    limit_changed = {
        name
        for name in order
        if name in old_nets and old_limits[name] != new_limits[name]
    }

    with tracer.span("service.replan.route"):
        # ---- install the new scenario's capacities and sites ----------- #
        old_capacity = graph.edge_capacity.copy()
        old_sites = graph.sites.copy()
        graph.reset_usage()
        graph.edge_capacity[:] = new_scenario.capacity
        for u, v, cap in new_scenario.capacity_overrides:
            graph.set_wire_capacity(tuple(u), tuple(v), cap)
        graph._notify_all_usage_changed()
        graph.sites[:] = new_scenario.effective_sites()
        graph._notify_all_sites_changed()

        capacity_dirty: Set[Tile] = set()
        for eid in np.nonzero(old_capacity != graph.edge_capacity)[0]:
            u, v = graph.edge_endpoints(int(eid))
            capacity_dirty.add(u)
            capacity_dirty.add(v)
        site_dirty: Set[Tile] = {
            (int(x), int(y))
            for x, y in zip(*np.nonzero(old_sites != graph.sites))
        }

        # ---- route phase ------------------------------------------------ #
        # A removed or pins-changed net's old usage was seen only by the
        # nets after it, so its old tiles turn dirty at its place in the
        # walk.
        stale = removed | (pins_changed & set(old_nets))
        route_dirty: Set[Tile] = set(capacity_dirty)
        routes: Dict[str, RouteTree] = {}
        rerouted: List[str] = []
        searched = 0
        for name in sorted(new_nets.keys() | removed):
            cached = old_routes.get(name)
            if name in stale:
                route_dirty.update(cached.nodes)
            if name in removed:
                continue
            if (
                name not in pins_changed
                and cached is not None
                and not (route_dirty and _reads_dirty(cached, route_dirty))
            ):
                cached.clear_buffers()  # rebooked bare; buffers re-booked below
                cached.add_usage(graph)
                routes[name] = cached
                continue
            source, sinks = new_nets[name]
            tree = route_one(
                graph, name, source, list(sinks), config, tracer=tracer
            )
            searched += 1
            tree.add_usage(graph)
            routes[name] = tree
            if cached is None or _edges_differ(tree, cached):
                rerouted.append(name)
                if cached is not None:
                    route_dirty.update(cached.nodes)
                route_dirty.update(tree.nodes)

    with tracer.span("service.replan.buffer"):
        # ---- buffer phase ----------------------------------------------- #
        # Seed everything that perturbs B(v) or a p(v) contribution; solves
        # earlier in the order read p(v) from *later* nets, so this must be
        # complete before the walk starts. b(v) differences are discovered
        # and propagated as the walk commits (`on_solved`).
        buffer_dirty: Set[Tile] = set(site_dirty)
        for name in removed:
            buffer_dirty.update(old_routes[name].nodes)
        for name in limit_changed | (pins_changed & set(routes)):
            buffer_dirty.update(routes[name].nodes)
        for name in rerouted:
            if name in old_routes:
                buffer_dirty.update(old_routes[name].nodes)
            buffer_dirty.update(routes[name].nodes)

        forced = set(rerouted) | limit_changed | (pins_changed & set(routes))
        resolved: List[str] = []

        def replay_cb(name: str):
            if name in forced or name not in old_outcomes:
                return None
            nodes = routes[name].nodes
            if buffer_dirty and any(t in buffer_dirty for t in nodes):
                return None
            return old_outcomes[name]

        def on_solved(name: str, outcome: NetOutcome) -> None:
            resolved.append(name)
            old = old_outcomes.get(name)
            new_counts = _spec_counts(outcome)
            old_counts = _spec_counts(old) if old is not None else {}
            if new_counts != old_counts:
                for tile in set(new_counts) ^ set(old_counts):
                    buffer_dirty.add(tile)
                for tile in set(new_counts) & set(old_counts):
                    if new_counts[tile] != old_counts[tile]:
                        buffer_dirty.add(tile)

        outcomes = run_buffer_walk(
            graph,
            routes,
            new_limits,
            order,
            config,
            tracer=tracer,
            replay=replay_cb,
            on_solved=on_solved,
        )

        failed = [n for n in order if not outcomes[n].meets]
        state.scenario = new_scenario
        state.routes = routes
        state.outcomes = outcomes
        state.signature = buffering_signature(routes, graph, failed)
    return IncrementalStats(
        signature=state.signature,
        seconds=time.perf_counter() - start,
        nets_total=len(order),
        nets_searched=searched,
        nets_rerouted=len(rerouted),
        nets_resolved=len(resolved),
        nets_replayed=len(order) - len(resolved),
        dirty_tiles=len(buffer_dirty | route_dirty),
        rerouted_nets=rerouted,
        resolved_nets=resolved,
    )


def _edges_differ(a: RouteTree, b: RouteTree) -> bool:
    canon_a = sorted((min(u, v), max(u, v)) for u, v in a.edges())
    canon_b = sorted((min(u, v), max(u, v)) for u, v in b.edges())
    return canon_a != canon_b


def _spec_counts(outcome: NetOutcome) -> Dict[Tile, int]:
    counts: Dict[Tile, int] = {}
    for spec in outcome.specs:
        counts[spec.tile] = counts.get(spec.tile, 0) + 1
    return counts
