"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 rabidbench/run.py --workload plan-ami49 --seed 0 --seconds 30 --trace 0

Workloads: ``plan-ami49``, ``eco-ladder32``, ``bound-smoke16`` (see
``rabidbench/README.md``). ``--trace 0`` measures with tracing off and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` adds a
traced run and reports the per-layer metrics. Human-readable lines (a stamp,
every metric with its unit and sample count, the counters the program does
not emit) come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 only when every correctness check passed. The program is
imported from ``src/`` of the same checkout; without it the run stops with
exit code 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import numbers
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"rabidbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        raise SystemExit(f"rabidbench: imported repro from {repro.__file__}, not {package}")


def _number(value) -> "int | float":
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def select_metrics(
    m, declared: List[dict], trace: bool, owner
) -> Tuple[Dict[str, Tuple["int | float", str, int]], List[str]]:
    """The declared metrics of this mode: name -> (value, unit, samples).

    A per-layer metric of a layer this workload never calls reads 0 with 0
    samples. Returns the problems found: a declared metric not measured, or
    a measured one not declared.
    """
    problems = []
    out = {}
    for decl in declared:
        name = decl["name"]
        if name in m.values:
            value, samples = m.values[name]
        elif trace and owner(name) not in (None, m.workload):
            value, samples = 0, 0
        else:
            problems.append(f"metric {name} was not measured")
            continue
        out[name] = (_number(value), decl["unit"], samples)
    return out, problems


def finish(m) -> None:
    """Add the metrics every workload reports about the run as a whole."""
    m.put("failed_frac", m.failed / max(m.attempted, 1), m.attempted)
    # ru_maxrss is in KiB on Linux.
    m.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def report(m, spec: dict, trace: bool, stamp: dict, owner) -> Tuple[List[str], dict]:
    """Human-readable lines and the result object for one measurement.

    The lines hold the stamp, every declared metric measured in this run
    with its unit and sample count, and the counters the program does not
    emit; the result object holds the declared metrics of this mode.
    """
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = select_metrics(m, declared, trace, owner)
    problems += [f"metric {name} is not declared" for name in m.values if name not in units]

    lines = ["# stamp " + json.dumps(stamp, sort_keys=True)]
    shown = dict(metrics)
    for name, (value, samples) in sorted(m.values.items()):
        if name in units and name not in shown:
            shown[name] = (_number(value), units[name], samples)
    for name, (value, unit, samples) in shown.items():
        lines.append(f"  {name:<28} {value!r:>24} {unit:<6} n={samples}")
    lines += [f"# error: {line}" for line in m.errors + problems]
    result = {
        "correct": m.correct and not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    return lines, result


def main(argv: Optional[List[str]] = None) -> int:
    _import_program()
    import suite

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    trace = bool(args.trace)
    m = suite.WORKLOADS[args.workload](args.seed, args.seconds, trace)
    finish(m)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cores": suite.cores(),
        "python": platform.python_version(),
        "events": m.events,
    }
    lines, result = report(m, spec, trace, stamp, suite.owner)
    print("\n".join(lines))
    print("# missing, not estimated: " + "; ".join(suite.MISSING_COUNTERS))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
