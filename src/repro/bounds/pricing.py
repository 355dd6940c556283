"""Column-generation pricing: cheapest *buffered* source-sink paths.

The lower-bound oracle (:mod:`repro.bounds.oracle`) prices candidate
buffered routes against the current Garg-Konemann dual lengths. The
pricing problem is a resource-constrained shortest path on the tile
graph: a path from the net's source to a sink, broken by repeaters so
that no gate (driver or buffer) drives more than ``L`` tiles of wire —
the per-path projection of the repo's length rule
(:func:`repro.core.length_rule.net_meets_length_rule` bounds each
gate's *total* driven length, so every source-sink path inside a
feasible tree is itself a feasible buffered path; pricing over paths
therefore under-approximates trees, exactly what a lower bound needs).

The search runs over labels ``(tile, d)`` where ``d`` is the tile
distance since the last gate:

* a wire step to a neighbor costs ``wire_cost + scale * l(e)`` and
  advances ``d`` by one (blocked when ``d + 1 > L``);
* inserting a buffer at the current tile costs
  ``buffer_cost + scale * s(v)`` and resets ``d`` to zero — allowed
  only on tiles with ``B(v) > 0`` sites;
* zero-capacity edges and zero-site tiles are never used.

It is the Stage-4 labeled wavefront
(:func:`repro.routing.maze._buffered_wavefront`) in its multi-goal mode:
one search per net prices every sink at once and stops as soon as each
sink tile has settled its first label. Every oracle phase has strictly
positive step costs, so that label is the sink's cheapest, with the
lowest ``d`` among equals. The search is windowed like
:mod:`repro.routing.maze` (bounding box of the pins plus a margin,
escalating to the whole grid before declaring a sink unreachable), so
an infinite price is a *structural* certificate: no buffered path obeys
the spacing rule given the site placement at any congestion level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER
from repro.routing.maze import (
    _buffered_wavefront,
    _label_chain,
    _label_workspace,
    _search_mask,
    _search_window,
)
from repro.tilegraph.graph import TileGraph

Tile = Tuple[int, int]

INF = float("inf")


@dataclass(frozen=True)
class PricedPath:
    """One sink's cheapest buffered path under the current lengths."""

    sink: Tile
    cost: float
    #: flat edge ids along the path (source -> sink order not guaranteed).
    edges: Tuple[int, ...]
    #: flat tile indices where the path inserts a buffer.
    buffers: Tuple[int, ...]


@dataclass
class NetPricing:
    """All sinks of one net, priced by a single labeled search."""

    source: Tile
    costs: Dict[Tile, float]
    paths: Dict[Tile, PricedPath]

    @property
    def reachable(self) -> bool:
        return all(c < INF for c in self.costs.values())

    def dual_value(self) -> float:
        """``u_i``: the max-over-sinks path bound (INF when unreachable).

        Any feasible buffered tree contains, per sink, a feasible
        buffered path of no greater cost, so the *maximum* over sinks of
        the per-sink minima lower-bounds every feasible tree's cost.
        """
        return max(self.costs.values()) if self.costs else 0.0


class PathPricer:
    """Prices nets on one graph with the shared labeled wavefront.

    With an enabled ``tracer`` every search counts ``bound.heap_pops``
    and ``bound.labels_settled``.
    """

    def __init__(
        self, graph: TileGraph, window_margin: int = 10, tracer=None
    ) -> None:
        if window_margin < 0:
            raise ConfigurationError("window_margin must be >= 0")
        self.graph = graph
        self.flat = graph.flat()
        self.window_margin = window_margin
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------ #

    def step_costs(
        self,
        edge_lengths: Sequence[float],
        site_lengths: Sequence[float],
        scale: float = 1.0,
    ) -> Tuple[Sequence[float], List[float]]:
        """Dual step costs ``scale * l(e)`` and ``scale * s(v)``.

        ``INF`` marks an unusable edge or a tile without buffer sites.
        With ``scale == 1.0`` the edge list is ``edge_lengths`` itself;
        the site list is always a fresh copy masked by ``B(v) > 0``.
        """
        if scale == 1.0:
            edges: Sequence[float] = edge_lengths
        else:
            edges = [scale * l if l < INF else INF for l in edge_lengths]
        sites = [
            scale * s if cap > 0 and s < INF else INF
            for s, cap in zip(site_lengths, self.graph.sites_flat.tolist())
        ]
        return edges, sites

    def price(
        self,
        source: Tile,
        sinks: Sequence[Tile],
        length_limit: int,
        edge_lengths: Sequence[float],
        site_lengths: Sequence[float],
        wire_cost: float = 1.0,
        buffer_cost: float = 1.0,
        scale: float = 1.0,
        collect_paths: bool = False,
    ) -> NetPricing:
        """Price every sink of one net under the given dual lengths.

        ``scale`` multiplies the dual terms only (the theta of the
        oracle's line search); base ``wire_cost``/``buffer_cost`` are
        charged per edge / per buffer regardless. Callers pricing many
        nets at one scale build :meth:`step_costs` once and call
        :meth:`price_steps` instead.
        """
        edge_costs, site_costs = self.step_costs(
            edge_lengths, site_lengths, scale
        )
        return self.price_steps(
            source, sinks, length_limit, edge_costs, site_costs,
            wire_cost, buffer_cost, collect_paths,
        )

    def price_steps(
        self,
        source: Tile,
        sinks: Sequence[Tile],
        length_limit: int,
        edge_costs: Sequence[float],
        site_costs: Sequence[float],
        wire_cost: float = 1.0,
        buffer_cost: float = 1.0,
        collect_paths: bool = False,
    ) -> NetPricing:
        """:meth:`price` on prebuilt :meth:`step_costs` lists.

        ``site_costs`` must be ``INF`` on every tile without sites.
        """
        if length_limit < 1:
            raise ConfigurationError("length_limit must be >= 1")
        flat = self.flat
        margins: List[int] = []
        whole = max(flat.nx, flat.ny)
        for margin in (self.window_margin, self.window_margin * 4, whole):
            if margin not in margins:
                margins.append(margin)
        result: Optional[NetPricing] = None
        for margin in margins:
            result = self._search(
                source, sinks, length_limit, edge_costs, site_costs,
                wire_cost, buffer_cost, margin, collect_paths,
            )
            if result.reachable:
                return result
        assert result is not None
        return result

    # ------------------------------------------------------------------ #

    def _search(
        self,
        source: Tile,
        sinks: Sequence[Tile],
        length_limit: int,
        edge_costs: Sequence[float],
        site_costs: Sequence[float],
        wire_cost: float,
        buffer_cost: float,
        margin: int,
        collect_paths: bool,
    ) -> NetPricing:
        graph = self.graph
        ny = graph.ny
        Lp = length_limit + 1
        window = _search_window(graph, [source, *sinks], margin)
        ws = _label_workspace(graph, graph.num_tiles * Lp)
        found, pops, settled = _buffered_wavefront(
            self.flat, ws, source[0] * ny + source[1],
            _search_mask(graph, sinks, (), window), site_costs,
            length_limit, edge_costs, len(set(sinks)), wire_cost, buffer_cost,
        )
        if self.tracer.enabled:
            self.tracer.count("bound.heap_pops", pops)
            self.tracer.count("bound.labels_settled", settled)

        dist = ws.dist
        label_of = {s // Lp: s for s in found}
        costs: Dict[Tile, float] = {}
        paths: Dict[Tile, PricedPath] = {}
        for sink in sinks:
            label = label_of.get(sink[0] * ny + sink[1])
            costs[sink] = INF if label is None else dist[label]
            if collect_paths and label is not None:
                paths[sink] = self._trace(sink, label, Lp, dist[label], ws)
        return NetPricing(source=source, costs=costs, paths=paths)

    def _trace(
        self, sink: Tile, label: int, Lp: int, cost: float, ws
    ) -> PricedPath:
        """The edges and buffers along the labels from the source."""
        adj = self.flat.adj
        edges: List[int] = []
        buffers: List[int] = []
        chain = _label_chain(ws, label)
        for prev, cur in zip(chain, chain[1:]):
            tile, prev_tile = cur // Lp, prev // Lp
            if tile == prev_tile:
                buffers.append(tile)
            else:
                edges.append(next(e for v, e in adj[prev_tile] if v == tile))
        return PricedPath(
            sink=sink, cost=cost, edges=tuple(edges), buffers=tuple(buffers)
        )
