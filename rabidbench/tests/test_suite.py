"""Self-tests of the repository benchmark, on shortened settings.

Run from the repository root::

    python3 -m pytest rabidbench/tests -q

Plans run on apte instead of ami49, the ECO stream is 12 events long, and
every workload does one operation per mode, so the whole file takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_program()

import suite  # noqa: E402

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
QUALITY = (
    "plan_fails",
    "plan_overflows",
    "plan_buffers",
    "plan_wirelength_mm",
    "plan_max_delay_ps",
    *(f"stage{i}.fails" for i in range(1, 5)),
    *(f"stage{i}.overflows" for i in range(1, 5)),
)
#: One operation per mode: the shortest budget, one run at least.
SECONDS = 1e-3


def _one_op(monkeypatch) -> None:
    monkeypatch.setattr(suite, "PLAN_MIN_OPS", 1)
    monkeypatch.setattr(suite, "BOUND_MIN_OPS", 1)


@pytest.fixture(scope="module")
def runs():
    """Two traced and one untraced measurement of every workload."""
    out = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _one_op(monkeypatch)
        for trace in (True, True, False):
            out.setdefault(("plan-ami49", trace), []).append(
                suite.run_plan(0, SECONDS, trace, circuit="apte")
            )
            out.setdefault(("eco-ladder32", trace), []).append(
                suite.run_eco(0, SECONDS, trace, events=12, checkpoint_every=4)
            )
            out.setdefault(("bound-smoke16", trace), []).append(
                suite.run_bound(0, SECONDS, trace)
            )
    for measurements in out.values():
        for m in measurements:
            run.finish(m)
    return out


def test_every_run_is_correct(runs):
    for (workload, trace), measurements in runs.items():
        for m in measurements:
            assert m.correct, (workload, trace, m.errors)
            assert m.attempted >= 1


def test_plan_quality_repeats_exactly(runs):
    first, second = runs[("plan-ami49", True)]
    for name in QUALITY:
        assert first.values[name] == second.values[name], name


def test_lower_bound_repeats_exactly(runs):
    first, second = runs[("bound-smoke16", True)]
    assert first.values["lower_bound"] == second.values["lower_bound"]
    assert first.values["lower_bound"][0] > 0


def test_short_eco_stream_has_no_divergence(runs):
    m = runs[("eco-ladder32", False)][0]
    # One baseline, 12 events, and checkpoints after events 4, 8 and 12.
    assert (m.attempted, m.failed, m.events) == (1 + 12 + 3, 0, 12)


def test_printed_names_match_benchmark_json(runs):
    for (workload, trace), measurements in runs.items():
        m = measurements[0]
        lines, result = run.report(m, SPEC, trace, {}, suite.owner)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert result["correct"], (workload, trace, lines)
        assert list(result["metrics"]) == [d["name"] for d in declared]
        for decl in declared:
            assert result["metrics"][decl["name"]]["unit"] == decl["unit"]
        printed = {line.split()[0] for line in lines if line.startswith("  ")}
        every = {d["name"] for d in SPEC["end_to_end"] + SPEC["per_layer"]}
        assert set(result["metrics"]) <= printed <= every


def test_bypassed_layers_read_zero(runs):
    m = runs[("bound-smoke16", True)][0]
    _, result = run.report(m, SPEC, True, {}, suite.owner)
    assert result["metrics"]["stage4_s"]["value"] == 0
    assert result["metrics"]["eco.route_heap_pops"]["value"] == 0


def test_unmeasured_metric_is_a_problem(runs):
    m = runs[("bound-smoke16", False)][0]
    spec = dict(SPEC, end_to_end=SPEC["end_to_end"] + [{"name": "nope_s", "unit": "s"}])
    _, result = run.report(m, spec, False, {}, suite.owner)
    assert not result["correct"]


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "bound-smoke16"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
