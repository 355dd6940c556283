"""The planning engine behind the service: full plans and cached state.

The service pipeline is the buffering kernel's recipe made stateful:
route every net once (congestion-aware maze search, sorted name order),
then run the Stage-3 solve/commit walk net by net. Unlike the batch
``Rabid`` driver, the engine keeps *per-net* outcomes — the exact buffer
specs, length-rule verdict, DP feasibility, and Eq. (2) cost each net
committed — because the incremental engine (:mod:`repro.service.incremental`)
replays those cached outcomes verbatim for nets a delta cannot have
touched.

Determinism is the load-bearing property: a :class:`ScenarioSpec` fully
determines the plan, so ``full_plan(scenario)`` is the reference the
incremental path must (and is sample-verified to) reproduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.benchmarks.buffering_kernel import buffering_signature
from repro.core.assignment import _commit_outcome, _solve_net
from repro.core.candidates import INF
from repro.core.probability import UsageProbability
from repro.core.rabid import RabidConfig
from repro.core.solver import Stage3CostField, make_solver
from repro.geometry import Rect
from repro.obs import NULL_TRACER
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import BufferSpec, RouteTree
from repro.service.jobs import ScenarioSpec
from repro.tilegraph import CapacityModel, TileGraph

Tile = Tuple[int, int]


@dataclass(frozen=True)
class NetOutcome:
    """One net's committed Stage-3 result (replayable)."""

    specs: Tuple[BufferSpec, ...]
    meets: bool
    dp_ok: bool
    cost: float


@dataclass
class PlanBackup:
    """Everything needed to restore a :class:`PlanState` in place."""

    scenario: ScenarioSpec
    routes: Dict[str, RouteTree]
    outcomes: Dict[str, NetOutcome]
    signature: str
    usage: tuple
    sites: np.ndarray
    edge_capacity: np.ndarray


@dataclass
class PlanState:
    """A cached baseline plan the service can re-plan incrementally.

    The graph carries the plan's full usage state (wire usage, ``b(v)``
    bookings); ``routes`` and ``outcomes`` pin each net's tree and
    committed buffering. ``signature`` is the buffering-kernel SHA-256
    (specs + used-sites grid + failed nets) that identifies the plan.
    """

    scenario: ScenarioSpec
    config: RabidConfig
    graph: TileGraph
    routes: Dict[str, RouteTree]
    outcomes: Dict[str, NetOutcome]
    signature: str
    seconds_full: float = 0.0

    @property
    def order(self) -> List[str]:
        return sorted(self.routes)

    @property
    def failed_nets(self) -> List[str]:
        return sorted(n for n, o in self.outcomes.items() if not o.meets)

    def limits(self) -> Dict[str, int]:
        return self.scenario.limits(self.order)

    def summary(self) -> Dict[str, object]:
        return {
            "signature": self.signature,
            "nets": len(self.routes),
            "buffers": sum(len(o.specs) for o in self.outcomes.values()),
            "failed_nets": self.failed_nets,
            "seconds_full": round(self.seconds_full, 4),
        }

    # -- rollback -------------------------------------------------------- #

    def backup(self) -> PlanBackup:
        """Snapshot for rollback-safe incremental re-planning."""
        return PlanBackup(
            scenario=self.scenario,
            routes=dict(self.routes),
            outcomes=dict(self.outcomes),
            signature=self.signature,
            usage=self.graph.snapshot_usage(),
            sites=self.graph.sites.copy(),
            edge_capacity=self.graph.edge_capacity.copy(),
        )

    def restore(self, backup: PlanBackup) -> None:
        """Undo a failed partial re-plan: graph arrays, routes, outcomes.

        Buffer annotations live on the trees and may have been rewritten
        mid-replay, so each surviving tree gets its cached specs
        re-applied.
        """
        graph = self.graph
        graph.sites[:] = backup.sites
        graph._notify_all_sites_changed()
        graph.edge_capacity[:] = backup.edge_capacity
        graph.restore_usage(backup.usage)
        self.scenario = backup.scenario
        self.routes = backup.routes
        self.outcomes = backup.outcomes
        self.signature = backup.signature
        for name, tree in self.routes.items():
            tree.apply_buffers(list(self.outcomes[name].specs))


def build_graph(scenario: ScenarioSpec) -> TileGraph:
    """Materialize a scenario's tile graph: die, ``W(e)``, ``B(v)``."""
    grid = scenario.grid
    graph = TileGraph(
        Rect(0.0, 0.0, float(grid), float(grid)),
        grid,
        grid,
        CapacityModel.uniform(scenario.capacity),
    )
    for u, v, cap in scenario.capacity_overrides:
        graph.set_wire_capacity(tuple(u), tuple(v), cap)
    graph.sites[:] = scenario.effective_sites()
    graph._notify_all_sites_changed()
    return graph


def route_one(
    graph: TileGraph,
    name: str,
    source: Tile,
    sinks,
    config: RabidConfig,
    tracer=None,
) -> RouteTree:
    """Route one net with the service's fixed routing parameters.

    Both the full and the incremental path call exactly this, so a
    rerouted net inside a replay reproduces what the full plan would
    route given the same prefix usage state.
    """
    return route_net_on_tiles(
        graph,
        source,
        list(sinks),
        radius_weight=config.pd_tradeoff,
        net_name=name,
        window_margin=config.window_margin,
        tracer=tracer,
    )


def make_solver_lookup(config: RabidConfig) -> Callable[[str], object]:
    """Net-name -> solver, honoring per-net overrides, one per strategy."""
    solvers: Dict[str, object] = {}

    def solver_for(name: str):
        key = config.solver_name_for(name)
        solver = solvers.get(key)
        if solver is None:
            solver = solvers[key] = make_solver(
                key,
                technology=config.technology,
                buffer_library=config.buffer_library,
            )
        return solver

    return solver_for


def run_buffer_walk(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    limits: Dict[str, int],
    order,
    config: RabidConfig,
    tracer=None,
    replay: "Callable[[str], Optional[NetOutcome]] | None" = None,
    on_solved: "Callable[[str, NetOutcome], None] | None" = None,
    abort_check: "Callable[[], bool] | None" = None,
) -> Dict[str, NetOutcome]:
    """The sequential Stage-3 walk with an optional replay fast path.

    Mirrors :func:`repro.core.assignment.assign_buffers_stage3`'s
    sequential semantics exactly — ``p(v)`` seeded from every net in
    order, each net's contribution removed just before its turn, solve
    then ledger-transactional commit. When ``replay`` returns a cached
    :class:`NetOutcome` for a net, its specs are *booked* (use-site +
    annotations) without re-running the solver; because the walk
    reconstructs the same prefix ``b(v)``/``p(v)`` state the original
    run saw, replayed and re-solved nets compose into a plan identical
    to a from-scratch walk.

    The whole walk runs inside one :class:`SiteLedger` transaction, so
    an exception anywhere unwinds every site booking made so far.

    ``abort_check`` is the fleet's cooperative-preemption hook: polled
    between nets, a True return raises
    :class:`repro.errors.PreemptedError` (the ledger transaction unwinds
    every booking, so the graph is untouched).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    probability = None
    if config.use_probability:
        probability = UsageProbability(graph)
        for name in order:
            probability.add_net(routes[name], limits[name])
    cost_field = Stage3CostField(graph, probability)
    solver_for = make_solver_lookup(config)
    outcomes: Dict[str, NetOutcome] = {}
    ledger = graph.ledger()
    with ledger.transaction():
        for name in order:
            if abort_check is not None and abort_check():
                from repro.errors import PreemptedError

                raise PreemptedError(
                    f"buffer walk preempted before net {name!r}"
                )
            tree = routes[name]
            if probability is not None:
                probability.remove_net(tree)
            cached = replay(name) if replay is not None else None
            if cached is not None:
                for spec in cached.specs:
                    graph.use_site(spec.tile, 1, spec.kind)
                tree.apply_buffers(list(cached.specs))
                outcomes[name] = cached
                if tracer.enabled:
                    tracer.count("service.nets_replayed")
                continue
            outcome = _solve_net(
                graph,
                tree,
                limits[name],
                cost_field,
                solver_for(name),
                tracer=tracer,
            )
            meets, dp_ok, cost = _commit_outcome(
                graph, tree, limits[name], outcome, tracer=tracer
            )
            outcomes[name] = NetOutcome(
                specs=tuple(tree.buffer_specs()),
                meets=meets,
                dp_ok=dp_ok,
                cost=cost,
            )
            if on_solved is not None:
                on_solved(name, outcomes[name])
            if tracer.enabled:
                tracer.count("service.nets_solved")
                tracer.check_site_invariants(graph, f"service net {name}")
    return outcomes


def full_plan(
    scenario: ScenarioSpec,
    config: "RabidConfig | None" = None,
    tracer=None,
    abort_check: "Callable[[], bool] | None" = None,
) -> PlanState:
    """Plan a scenario from scratch; the incremental path's reference.

    ``abort_check`` (fleet preemption) is polled between routed nets and
    between buffered nets; a True return abandons the partial plan by
    raising :class:`repro.errors.PreemptedError`. The plan is built on a
    fresh graph, so preemption leaves no shared state to undo.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = config or RabidConfig()
    if scenario.buffer_library:
        # A scenario-pinned library turns on the multi-type sizing pass;
        # with buffer_library == "" the config is untouched, so legacy
        # scenarios plan byte-identically to before the field existed.
        from dataclasses import replace

        config = replace(
            config,
            buffer_library=scenario.buffer_library,
            stage3_solver="multi_type",
        )
    start = time.perf_counter()
    with tracer.span("service.full_plan", nets=scenario.num_nets):
        with tracer.span("service.full_plan.route"):
            graph = build_graph(scenario)
            nets = scenario.nets()
            order = sorted(nets)
            routes: Dict[str, RouteTree] = {}
            for name in order:
                if abort_check is not None and abort_check():
                    from repro.errors import PreemptedError

                    raise PreemptedError(
                        f"full plan preempted before routing net {name!r}"
                    )
                source, sinks = nets[name]
                tree = route_one(
                    graph, name, source, sinks, config, tracer=tracer
                )
                tree.add_usage(graph)
                routes[name] = tree
        with tracer.span("service.full_plan.buffer"):
            limits = scenario.limits(order)
            outcomes = run_buffer_walk(
                graph, routes, limits, order, config, tracer=tracer,
                abort_check=abort_check,
            )
    failed = [n for n in order if not outcomes[n].meets]
    state = PlanState(
        scenario=scenario,
        config=config,
        graph=graph,
        routes=routes,
        outcomes=outcomes,
        signature=buffering_signature(routes, graph, failed),
        seconds_full=time.perf_counter() - start,
    )
    if tracer.enabled:
        tracer.observe("service.full_plan_seconds", state.seconds_full)
    return state


def plan_cost(outcomes: Dict[str, NetOutcome]) -> float:
    """Total committed Eq. (2) cost (greedy-fallback nets excluded)."""
    return sum(o.cost for o in outcomes.values() if o.cost != INF)
