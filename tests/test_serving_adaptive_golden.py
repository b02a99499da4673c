"""Golden-regression fixture for serving under ledger-driven replanning.

``tests/goldens/serving_slo.json`` pins the static ``powerlens``
planner only.  This fixture pins the replanning path end to end: a
2-device (TX2 + AGX) Poisson scenario under
``powerlens-family-adaptive`` with sparse requests, sparsity buckets,
switch/telemetry faults and the ``energy`` policy.  The golden holds the
SLO report, the tally of ``replan_action`` verdicts and the
``plan_fingerprint`` of every dispatch, so a change to plan selection,
the replan loop or the per-slot write-back of corrections shows up as a
fixture diff.  Regenerate deliberately with::

    pytest tests/test_serving_adaptive_golden.py --update-goldens
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.export import canonical_json
from repro.hw import FaultProfile
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)

pytestmark = pytest.mark.serving

GOLDEN_PATH = Path(__file__).parent / "goldens" / "serving_adaptive.json"

_SEED = 7
_MODEL = "resnet18"
_SPARSITIES = (0.2, 0.4, 0.6)
_EDGES = (0.0, 0.3, 0.6)
_FAULTS = "switch_drop_rate=0.05,telemetry_drop_rate=0.02"


def _scenario():
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor="powerlens-family-adaptive",
                        fleet_seed=_SEED,
                        faults=FaultProfile.parse(_FAULTS),
                        sparsity_edges=_EDGES)
    trace = make_trace("poisson", rate_rps=2.0, duration_s=10.0,
                       models=[_MODEL], seed=_SEED, slo_latency_s=10.0,
                       sparsity_choices=_SPARSITIES)
    return FleetScheduler(fleet, SchedulerConfig(policy="energy")).run(trace)


def _golden_text(result) -> str:
    tally = Counter(d.replan_action for d in result.dispatches)
    pinned = {
        "report": json.loads(canonical_json(result.report)),
        "replan_actions": dict(sorted(tally.items())),
        "plan_fingerprints": [d.plan_fingerprint
                              for d in result.dispatches],
    }
    return json.dumps(pinned, indent=2, sort_keys=True) + "\n"


def test_serving_adaptive_golden(update_goldens):
    result = _scenario()
    text = _golden_text(result)
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(text)
        return
    assert GOLDEN_PATH.exists(), (
        f"golden fixture {GOLDEN_PATH} missing — generate it with "
        f"pytest tests/test_serving_adaptive_golden.py --update-goldens")
    assert text == GOLDEN_PATH.read_text(), (
        "adaptive serving drifted from its golden fixture; if the "
        "change is intended, rerun with --update-goldens and commit "
        "the diff")


def test_scenario_exercises_adopt_and_reject():
    """The fixture is only worth pinning while both replan verdicts
    actually occur in it."""
    tally = Counter(d.replan_action for d in _scenario().dispatches)
    assert tally["adopt"] > 0
    assert tally["reject"] > 0
