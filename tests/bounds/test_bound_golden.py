"""Golden pin of the whole lower-bound oracle result.

``tests/golden/bound_smoke16_seed0.json`` holds the full
:class:`~repro.bounds.oracle.BoundResult` of ``bound_scenario`` on two
scenarios: the ``smoke-16`` workload tier (seed 0) and the
capacity-infeasible 16x16 / 120-net / capacity-2 scenario, whose best
certificate comes from a ``theta > 0``. Every float is compared by
``repr``, so a change to the pricing kernel that moves any bound, dual,
length or candidate column by one ulp fails here.

Regenerate (only for a change that means to move the bound) with::

    PYTHONPATH=src python tests/bounds/test_bound_golden.py
"""

import json
import os

import pytest

from repro.bounds import bound_scenario
from repro.service.jobs import ScenarioSpec
from repro.workloads import get_workload

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "golden", "bound_smoke16_seed0.json"
)


def _scenarios():
    return {
        "smoke-16": get_workload("smoke-16").scenario(),
        "grid16-nets120-cap2": ScenarioSpec(
            grid=16, num_nets=120, capacity=2, seed=0, length_limit=5,
            total_sites=600, site_seed=0,
        ),
    }


def _f(value):
    return None if value is None else repr(value)


def bound_digest(result):
    """Every certified quantity of a result, floats as ``repr`` strings."""
    return {
        "lower_bound": _f(result.lower_bound),
        "unconstrained_bound": _f(result.unconstrained_bound),
        "lambda_lb": _f(result.lambda_lb),
        "theta": _f(result.theta),
        "infeasible_reason": result.infeasible_reason,
        "net_duals": {k: _f(v) for k, v in sorted(result.net_duals.items())},
        "edge_lengths": [_f(v) for v in result.edge_lengths],
        "site_lengths": [_f(v) for v in result.site_lengths],
        "candidates": {
            name: [
                [list(c.edges), list(c.buffers), _f(c.cost), picks]
                for c, picks in columns
            ]
            for name, columns in sorted(result.candidates.items())
        },
        "pricing_calls": result.pricing_calls,
    }


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["smoke-16", "grid16-nets120-cap2"])
def test_bound_result_matches_golden(name):
    want = _load()[name]
    got = bound_digest(bound_scenario(_scenarios()[name]))
    for key in want:
        assert got[key] == want[key], f"{name}: {key} differs from golden"
    assert set(got) == set(want)


def test_infeasible_scenario_wins_at_positive_theta():
    golden = _load()["grid16-nets120-cap2"]
    assert float(golden["theta"]) > 0.0
    assert golden["infeasible_reason"] == "capacity"


if __name__ == "__main__":
    payload = {
        name: bound_digest(bound_scenario(scenario))
        for name, scenario in _scenarios().items()
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
