"""The three workloads of the repository benchmark.

Each workload is seeded, runs in one process (``workers=1``, no pool, no
fleet) and measures the planner from outside, by timing calls into its
public functions:

* ``plan-ami49`` runs full RABID plans (``RabidPlanner.stage1()`` ..
  ``stage4()``, rescue included) on the ami49 stand-in. Stage 4 and rescue
  do about 90% of the work here.
* ``eco-ladder32`` plans the ladder-32 tier once with the service's
  ``full_plan``, then feeds a ``make_trace`` ECO stream through
  ``incremental_replan`` in a closed loop with one event in flight. It uses
  the maze router and the Stage-3 DP but runs no Stage-2 rip-up and no
  Stage 4.
* ``bound-smoke16`` computes the buffered-MCF lower bound on smoke-16 with
  ``bound_scenario`` and re-checks its certificate with
  ``verify_certificate``. It is the only workload in which
  ``bounds.pricing.PathPricer`` does the work.

A traced run repeats one operation under ``repro.obs.Tracer`` and reads the
spans and counters the program already emits; counter-registry snapshots
between calls give each stage its own deltas.

Every workload returns a :class:`Measurement`: named values with their
sample counts, plus the operations attempted and failed. Metric names, units
and directions are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.benchmarks import load_benchmark
from repro.benchmarks.buffering_kernel import buffering_signature
from repro.bounds import BoundOptions, bound_scenario, verify_certificate
from repro.core.length_rule import net_meets_length_rule
from repro.core.rabid import RabidConfig, RabidPlanner
from repro.obs import Counter, Tracer
from repro.service.engine import build_graph, full_plan
from repro.service.incremental import incremental_replan
from repro.service.jobs import apply_delta
from repro.workloads import EVENT_MIX, TraceOptions, get_workload, make_trace

#: ``setup_s`` is the median of SETUP_BATCHES batch means; each batch
#: generates instances for at least SETUP_BATCH_S seconds. The host's speed
#: switches between two levels every 0.25-2 s, so a single ~10 ms
#: generation lands in one level and a median of single generations jumps
#: between them; a batch averages over both.
SETUP_BATCHES = 5
SETUP_BATCH_S = 0.5

PLAN_CIRCUIT = "ami49"
#: Plans per run at least, so that the median has three samples.
PLAN_MIN_OPS = 3

ECO_TIER = "ladder-32"
#: Events per stream: at least 10 events lie beyond the 90th percentile.
ECO_EVENTS = 120
ECO_CHECKPOINT_EVERY = 30
ECO_KINDS = tuple(kind for kind, _ in EVENT_MIX)

BOUND_TIER = "smoke-16"
BOUND_MIN_OPS = 3

#: The traced stage spans must cover at least this share of the traced
#: plan's wall time; the rest is time no stage accounts for.
STAGE_COVERAGE_MIN = 0.98

#: Counters the program does not emit yet. The benchmark reports them as
#: missing and does not estimate them.
MISSING_COUNTERS = (
    "stage4 best_buffered_path heap pops (core/two_path.py emits none)",
    "PathPricer heap pops (bounds/pricing.py emits none)",
    "service full_plan route/buffer split (no child spans)",
)


@dataclass
class Measurement:
    """What one workload run measured."""

    workload: str
    #: metric name -> (value, sample count)
    values: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    events: int = 0

    def put(self, name: str, value: float, samples: int = 1) -> None:
        if name in self.values:
            raise ValueError(f"metric {name!r} measured twice")
        self.values[name] = (value, samples)

    def put_median(self, name: str, samples: List[float]) -> None:
        if samples:
            self.put(name, statistics.median(samples), len(samples))
        else:
            self.put(name, 0.0, 0)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _guarded(m: Measurement, what: str, call: Callable[[], object]):
    """Run one operation; a raise counts as a failed operation."""
    try:
        return call()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        m.fail(f"{what} raised {type(exc).__name__}: {exc}")
        return None


def _timed(call: Callable[[], object]) -> Tuple[object, float]:
    start = perf_counter()
    result = call()
    return result, perf_counter() - start


def _repeat(budget_s: float, min_ops: int, op: Callable[[], object]) -> None:
    """Run ``op`` until the next run is predicted to overrun ``budget_s``.

    Runs at least ``min_ops`` times and collects garbage before each run, so
    a collection triggered by the previous run is not timed in the next.
    """
    start = perf_counter()
    last = 0.0
    runs = 0
    while runs < min_ops or perf_counter() - start + last <= budget_s:
        gc.collect()
        _, last = _timed(op)
        runs += 1


def _setup_median(make: Callable[[], object]) -> Tuple[float, int]:
    """Median over batches of the mean instance-generation time."""
    means = []
    made = 0
    for _ in range(SETUP_BATCHES):
        gc.collect()
        start = perf_counter()
        count = 0
        while count == 0 or perf_counter() - start < SETUP_BATCH_S:
            make()
            count += 1
        means.append((perf_counter() - start) / count)
        made += count
    return statistics.median(means), made


def _counters(tracer: Tracer) -> Dict[str, float]:
    return {
        name: metric.value
        for name, metric in tracer.metrics.items()
        if isinstance(metric, Counter)
    }


def _delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_seconds(tracer: Tracer, name: str) -> Tuple[float, int]:
    spans = tracer.spans_named(name)
    return sum(s.duration_s for s in spans), len(spans)


# ---------------------------------------------------------------------- #
# plan-ami49                                                             #
# ---------------------------------------------------------------------- #


def _plan_instance(circuit: str, seed: int):
    bench = load_benchmark(circuit, seed=seed)
    # Configured as ``repro run <circuit>`` configures it.
    config = RabidConfig(length_limit=bench.spec.length_limit, window_margin=10)
    return bench, config


def _run_stages(planner: RabidPlanner, after_stage=None) -> List[float]:
    """Run Stages 1-4 one call at a time; returns each call's wall time."""
    times = []
    try:
        for stage in (planner.stage1, planner.stage2, planner.stage3, planner.stage4):
            times.append(_timed(stage)[1])
            if after_stage is not None:
                after_stage()
    finally:
        planner.close()
    return times


def _plan_error(bench, config, planner: RabidPlanner, signatures: List[str]) -> Optional[str]:
    """Legality of a finished plan, re-derived from the graph and routes.

    Every plan of a run must also end on the run's first buffering
    signature; a legal plan's signature is appended to ``signatures``.
    """
    used = bench.graph.used_sites
    if (used < 0).any() or (used > bench.graph.sites).any():
        return "b(v) outside [0, B(v)]"
    fails = sum(
        not net_meets_length_rule(tree, config.limit_for(name))
        for name, tree in planner.routes.items()
    )
    reported = planner.stage_metrics[-1].num_fails
    if fails != reported:
        return f"length-rule recount {fails} != reported plan_fails {reported}"
    signature = buffering_signature(planner.routes, bench.graph, planner.failed_nets)
    if signatures and signature != signatures[0]:
        return "buffering signature differs from the run's first plan"
    signatures.append(signature)
    return None


def run_plan(
    seed: int, seconds: float, trace: bool, circuit: str = PLAN_CIRCUIT
) -> Measurement:
    """The ``plan-ami49`` workload: full RABID plans, one after another."""
    m = Measurement("plan-ami49")
    m.put("setup_s", *_setup_median(lambda: _plan_instance(circuit, seed)))
    walls: List[float] = []
    stage_times: List[List[float]] = [[], [], [], []]
    signatures: List[str] = []
    finals = []

    def plan_once() -> None:
        bench, config = _plan_instance(circuit, seed)
        planner = RabidPlanner(bench.graph, bench.netlist, config)
        m.attempted += 1
        times = _guarded(m, "plan", lambda: _run_stages(planner))
        if times is None:
            return
        wall = sum(times)
        error = _plan_error(bench, config, planner, signatures)
        if error is not None:
            m.fail(f"plan: {error}")
            return
        walls.append(wall)
        for i, t in enumerate(times):
            stage_times[i].append(t)
        finals.append(planner.stage_metrics)

    _repeat(seconds / 2 if trace else seconds, 1 if trace else PLAN_MIN_OPS, plan_once)
    m.put_median("op_s", walls)
    m.put_median("plan_s", walls)
    for i in range(4):
        m.put_median(f"stage{i + 1}_s", stage_times[i])
    if finals:
        stages = finals[0]
        final = stages[-1]
        m.put("plan_fails", final.num_fails)
        m.put("plan_overflows", final.overflows)
        m.put("plan_buffers", final.num_buffers)
        m.put("plan_wirelength_mm", final.wirelength_mm)
        m.put("plan_max_delay_ps", final.max_delay_ps)
        for s in stages:
            m.put(f"stage{s.stage}.fails", s.num_fails)
            m.put(f"stage{s.stage}.overflows", s.overflows)
    if not trace:
        return m
    _traced_plan(m, circuit, seed, walls, signatures)
    return m


def _traced_plan(
    m: Measurement,
    circuit: str,
    seed: int,
    walls: List[float],
    signatures: List[str],
) -> None:
    bench, config = _plan_instance(circuit, seed)
    tracer = Tracer(debug_checks=False)
    planner = RabidPlanner(bench.graph, bench.netlist, config, tracer=tracer)
    snaps = [_counters(tracer)]
    m.attempted += 1
    gc.collect()
    timed = _guarded(
        m,
        "traced plan",
        lambda: _timed(lambda: _run_stages(planner, lambda: snaps.append(_counters(tracer)))),
    )
    if timed is None:
        return
    _, wall = timed
    error = _plan_error(bench, config, planner, signatures)
    if error is not None:
        m.fail(f"traced plan: {error}")
    covered = sum(_span_seconds(tracer, f"stage{i}")[0] for i in range(1, 5))
    if covered < STAGE_COVERAGE_MIN * wall:
        m.fail(
            f"traced plan: stage spans cover {covered:.3f} s of {wall:.3f} s"
        )
    if walls:
        m.put("trace_overhead_frac", wall / statistics.median(walls) - 1.0)
    _, s2, s3, s4 = ((snaps[i - 1], snaps[i]) for i in range(1, 5))
    m.put("stage2.heap_pops", _delta(s2[1], s2[0], "route.heap_pops"))
    m.put("stage2.maze_nodes_expanded", _delta(s2[1], s2[0], "maze_nodes_expanded"))
    m.put("stage2.route_cache_hits", _delta(s2[1], s2[0], "route.cache_hits"))
    m.put("stage3.dp_candidates", _delta(s3[1], s3[0], "dp_candidates"))
    m.put("stage3.dp_pruned", _delta(s3[1], s3[0], "dp.candidates_pruned"))
    m.put("stage4.dp_candidates", _delta(s4[1], s4[0], "dp_candidates"))
    rerouted = _delta(s4[1], s4[0], "nets_rerouted")
    changed = _delta(s4[1], s4[0], "two_paths_changed")
    m.put("stage4.nets_rerouted", rerouted)
    m.put("stage4.two_paths_changed", changed)
    m.put("stage4.change_ratio", _ratio(changed, rerouted))
    m.put("stage4.pass_s", *_span_seconds(tracer, "stage4.pass"))
    m.put("rescue_s", *_span_seconds(tracer, "rescue"))
    rescued = _delta(s4[1], s4[0], "nets_rescued")
    failing = sum(s.attrs.get("failing", 0) for s in tracer.spans_named("rescue"))
    m.put("rescue.nets_rescued", rescued)
    m.put("rescue.ratio", _ratio(rescued, failing))


# ---------------------------------------------------------------------- #
# eco-ladder32                                                           #
# ---------------------------------------------------------------------- #


def _eco_instance(seed: int, events: int):
    scenario = get_workload(ECO_TIER).scenario()
    stream = make_trace(
        scenario, TraceOptions(events=events, seed=seed, checkpoint_every=0)
    )
    return scenario, stream


def _mix_weighted(by_kind: Dict[str, List[float]]) -> float:
    """Expected event latency under ``EVENT_MIX``: per-kind means, weighted.

    Latency is bimodal by kind, so the plain median of one stream moves with
    the kinds a seed happens to draw; weighting each kind by its share of the
    declared mix removes that sampling noise. Means, not medians: most events
    are shorter than one phase of the host's speed, so a per-kind median
    jumps between the host's two speed levels.
    """
    weights = {kind: w for kind, w in EVENT_MIX if by_kind[kind]}
    total = sum(weights.values())
    return sum(w / total * statistics.fmean(by_kind[k]) for k, w in weights.items())


def run_eco(
    seed: int,
    seconds: float,
    trace: bool,
    events: int = ECO_EVENTS,
    checkpoint_every: int = ECO_CHECKPOINT_EVERY,
) -> Measurement:
    """The ``eco-ladder32`` workload: a baseline, then a streamed ECO trace."""
    m = Measurement("eco-ladder32")
    m.put("setup_s", *_setup_median(lambda: _eco_instance(seed, events)))
    scenario, stream = _eco_instance(seed, events)
    baselines: List[float] = []
    latencies: List[float] = []
    by_kind: Dict[str, List[float]] = {kind: [] for kind in ECO_KINDS}
    checkpoints: List[float] = []
    totals: Dict[str, int] = {}
    signatures: List[str] = []

    def replay(tracer=None, check: bool = True) -> Optional[List[Tuple[str, float]]]:
        """One baseline plus the whole stream; returns (kind, seconds) per event."""
        m.attempted += 1
        timed = _guarded(m, "baseline", lambda: _timed(lambda: full_plan(scenario, tracer=tracer)))
        if timed is None:
            return None
        state, seconds_full = timed
        baselines.append(seconds_full)
        before = _counters(tracer) if tracer is not None else {}
        folded = scenario
        replayed: List[Tuple[str, float]] = []
        sums = dict.fromkeys(
            ("nets_rerouted", "nets_resolved", "dirty_tiles", "nets_replayed", "nets_total"), 0
        )
        for index, event in enumerate(stream):
            m.attempted += 1
            timed = _guarded(
                m,
                f"event {index} ({event.kind})",
                lambda: _timed(lambda: incremental_replan(state, event.delta, tracer=tracer)),
            )
            if timed is None:
                return None  # later events assume this one was applied
            stats, seconds_event = timed
            replayed.append((event.kind, seconds_event))
            for key in sums:
                sums[key] += getattr(stats, key)
            folded = apply_delta(folded, event.delta)
            last = index + 1 == len(stream)
            if check and ((index + 1) % checkpoint_every == 0 or last):
                m.attempted += 1
                timed = _guarded(m, "checkpoint", lambda: _timed(lambda: full_plan(folded)))
                if timed is None:
                    continue
                reference, seconds_check = timed
                checkpoints.append(seconds_check)
                if reference.signature != state.signature:
                    m.fail(f"checkpoint after event {index}: incremental plan diverges from full_plan")
        if signatures and state.signature != signatures[0]:
            m.fail("stream ends on another signature than the run's first stream")
        signatures.append(state.signature)
        if tracer is not None:
            after = _counters(tracer)
            m.put("eco.route_heap_pops", _delta(after, before, "route.heap_pops"))
            m.put("eco.dp_candidates", _delta(after, before, "dp_candidates"))
        else:
            totals.update(sums)
            m.events += len(replayed)
        return replayed

    def round_once() -> None:
        for kind, seconds_event in replay() or ():
            latencies.append(seconds_event)
            by_kind[kind].append(seconds_event)

    _repeat(seconds / 2 if trace else seconds, 1, round_once)
    if latencies:
        m.put("op_s", _mix_weighted(by_kind), len(latencies))
    m.put_median("baseline_s", baselines)
    m.put_median("event_p50_s", latencies)
    if len(latencies) >= 2:
        m.put("event_p90_s", statistics.quantiles(latencies, n=10)[8], len(latencies))
    for kind in ECO_KINDS:
        m.put_median(f"eco.event_s.{kind}", by_kind[kind])
    m.put_median("eco.checkpoint_s", checkpoints)
    if totals:
        m.put("eco.nets_rerouted", totals["nets_rerouted"])
        m.put("eco.nets_resolved", totals["nets_resolved"])
        m.put("eco.dirty_tiles", totals["dirty_tiles"])
        m.put("eco.replay_ratio", _ratio(totals["nets_replayed"], totals["nets_total"]))
    if not trace:
        return m

    gc.collect()
    traced = replay(Tracer(debug_checks=False), check=False)
    if traced is not None and latencies:
        untraced = sum(latencies[: len(traced)])
        m.put("trace_overhead_frac", sum(t for _, t in traced) / untraced - 1.0)
    return m


# ---------------------------------------------------------------------- #
# bound-smoke16                                                          #
# ---------------------------------------------------------------------- #


def _bound_instance(seed: int):
    scenario = replace(get_workload(BOUND_TIER), seed=seed, site_seed=seed).scenario()
    graph = build_graph(scenario)
    nets = scenario.nets()
    return scenario, graph, nets, scenario.limits(sorted(nets))


def run_bound(seed: int, seconds: float, trace: bool) -> Measurement:
    """The ``bound-smoke16`` workload: certified lower bounds, each verified."""
    m = Measurement("bound-smoke16")
    m.put("setup_s", *_setup_median(lambda: _bound_instance(seed)))
    scenario, graph, nets, limits = _bound_instance(seed)
    bound_times: List[float] = []
    verify_times: List[float] = []
    bounds: List[float] = []

    def bound_once(tracer=None):
        """One bound and its certificate check; returns (result, seconds)."""
        m.attempted += 1
        timed = _guarded(
            m, "bound", lambda: _timed(lambda: bound_scenario(scenario, BoundOptions(), tracer=tracer))
        )
        if timed is None:
            return None
        result, seconds_bound = timed
        checked = _guarded(
            m,
            "verify",
            lambda: _timed(lambda: verify_certificate(result.certificate(), graph, nets, limits)),
        )
        if checked is None:
            return None
        report, seconds_verify = checked
        if not report["ok"]:
            m.fail(f"certificate rejected: {report}")
            return None
        if bounds and result.lower_bound != bounds[0]:
            m.fail(f"lower bound {result.lower_bound} != run's first {bounds[0]}")
            return None
        bounds.append(result.lower_bound)
        verify_times.append(seconds_verify)
        return result, seconds_bound

    def untraced_once() -> None:
        done = bound_once()
        if done is not None:
            bound_times.append(done[1])

    _repeat(seconds / 2 if trace else seconds, 1 if trace else BOUND_MIN_OPS, untraced_once)
    m.put_median("op_s", bound_times)
    m.put_median("bound_s", bound_times)
    if bounds:
        m.put("lower_bound", bounds[0])
    m.put_median("bound.verify_s", verify_times)
    if verify_times:
        m.put(
            "bound.price_ms_per_call",
            1000.0 * statistics.median(verify_times) / len(nets),
            len(verify_times),
        )
    if not trace:
        return m

    tracer = Tracer(debug_checks=False)
    gc.collect()
    traced = bound_once(tracer)
    if traced is not None and bound_times:
        result, seconds_bound = traced
        m.put("trace_overhead_frac", seconds_bound / statistics.median(bound_times) - 1.0)
        metrics = tracer.metrics
        m.put("bound.pricing_calls", metrics.value("bound.pricing_calls"))
        m.put("bound.iterations", metrics.value("bound.iterations"))
        m.put("bound.lambda_lb", metrics.value("bound.lambda_lb"))
        m.put("bound.theta", result.theta)
    return m


WORKLOADS: Dict[str, Callable[[int, float, bool], Measurement]] = {
    "plan-ami49": run_plan,
    "eco-ladder32": run_eco,
    "bound-smoke16": run_bound,
}

#: Name prefixes of the per-layer metrics each workload measures. A
#: workload reports another workload's layer metrics as 0 with 0 samples:
#: it never calls that layer. Metrics matching no prefix are common.
LAYER_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "plan-ami49": ("plan_", "stage", "rescue"),
    "eco-ladder32": ("baseline_s", "event_", "eco."),
    "bound-smoke16": ("bound", "lower_bound"),
}


def owner(metric: str) -> Optional[str]:
    """The workload whose layers ``metric`` measures; None when common."""
    for workload, prefixes in LAYER_PREFIXES.items():
        if metric.startswith(prefixes):
            return workload
    return None


def cores() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))
