"""Boundary golden: the scheduler's degenerate inputs, pinned byte for byte.

Each case runs the fleet scheduler with a request tracer and a burn-rate
monitor attached and pins the sha256 of every serving output a user can
write to disk:

* the canonical event log (``--event-log``);
* the SLO report JSON (``serve-sim --json``);
* the request-trace export with its ``slo_burn`` spans
  (``--request-trace``);
* the Chrome ``trace_event`` timeline (``--timeline``);
* the merged metrics registry as Prometheus text.

The cases are the scheduler-facing degenerate inputs: ``max_batch=1``,
``queue_capacity=1``, traces whose every request misses its SLO (with
``drop_expired`` on and off), a fault storm that drains the whole fleet
(without recovery, and with a recovery budget that runs out, covering
cooldown → probe → readmit → redrain and ``fleet_drained`` drops), a
one-request trace and an empty trace.  The golden also records the
tally of event kinds, which the coverage test reads to check that each
case still exercises the boundary it is named after.  Regenerate
deliberately with::

    pytest tests/test_serving_boundaries.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from repro.hw.faults import FaultProfile
from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
from repro.obs.timeline import ServingTimeline
from repro.serving import (
    ArrivalTrace,
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    Request,
    RequestTracer,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

GOLDEN_PATH = Path(__file__).parent / "goldens" / "serving_boundaries.json"

MODEL = "small_cnn"
STORM = dict(telemetry_noise_std=0.8, switch_drop_rate=0.2)
MIXED = (("tx2-0", "tx2"), ("agx-1", "agx"))
TX2_PAIR = (("tx2-0", "tx2"), ("tx2-1", "tx2"))


def _trace(seed: int, rate: float, duration: float,
           slo: float = math.inf) -> ArrivalTrace:
    return make_trace("poisson", rate_rps=rate, duration_s=duration,
                      models=[MODEL], seed=seed, slo_latency_s=slo)


#: name -> (devices, storm seed or None, trace, scheduler config)
CASES = {
    "max_batch_1": (
        MIXED, None, _trace(3, 60.0, 0.5, slo=0.5),
        SchedulerConfig(policy="slo", max_batch=1)),
    "queue_capacity_1": (
        MIXED, None, _trace(4, 200.0, 0.3),
        SchedulerConfig(policy="fifo", queue_capacity=1)),
    "all_past_slo_drop_expired": (
        MIXED, None, _trace(5, 80.0, 0.4, slo=1e-4),
        SchedulerConfig(policy="slo", drop_expired=True)),
    "all_past_slo_keep_expired": (
        MIXED, None, _trace(5, 80.0, 0.4, slo=1e-4),
        SchedulerConfig(policy="energy", drop_expired=False)),
    "fleet_drained": (
        TX2_PAIR, 3, _trace(3, 30.0, 1.0),
        SchedulerConfig(policy="fifo", queue_capacity=256)),
    "fleet_drained_recovery": (
        TX2_PAIR, 7, _trace(7, 30.0, 1.5),
        SchedulerConfig(policy="fifo", queue_capacity=256,
                        recovery=RecoveryConfig(cooldown_s=0.05,
                                                max_cooldown_s=0.4,
                                                max_attempts=2))),
    "one_request": (
        MIXED, None,
        ArrivalTrace(kind="poisson", seed=0, duration_s=1.0,
                     requests=(Request(0, 0.25, MODEL, images=8,
                                       slo_latency_s=1.0),)),
        SchedulerConfig()),
    "empty_trace": (
        MIXED, None,
        ArrivalTrace(kind="poisson", seed=0, requests=(), duration_s=1.0),
        SchedulerConfig(recovery=RecoveryConfig())),
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _outputs(name: str, out_dir: Path) -> dict:
    devices, storm_seed, trace, config = CASES[name]
    faults = (None if storm_seed is None
              else FaultProfile(seed=storm_seed, **STORM))
    fleet = Fleet.build([DeviceConfig(n, p) for n, p in devices],
                        governor="powerlens", fleet_seed=trace.seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    tracer = RequestTracer()
    burn = BurnRateMonitor(BurnRateConfig(fast_window_s=0.1,
                                          slow_window_s=0.4,
                                          min_events=3))
    result = FleetScheduler(fleet, config, request_tracer=tracer,
                            burn_monitor=burn).run(trace)
    export = tracer.export_jsonl(out_dir / f"{name}.jsonl", burn=burn)
    timeline = ServingTimeline.from_events(result.events)
    timeline.add_burn_spans(burn.span_rows())
    chrome = timeline.to_chrome_trace(
        sampled_ids={t.request_id for t in tracer.traces()})
    return {
        "event_log": _sha(result.event_log()),
        "slo_report": _sha(json.dumps(result.report.to_dict(), indent=1,
                                      sort_keys=True)),
        "request_trace": hashlib.sha256(export.read_bytes()).hexdigest(),
        "timeline": _sha(json.dumps(chrome, sort_keys=True)),
        "metrics": _sha(result.metrics.to_prometheus_text()),
        "events": dict(sorted(Counter(
            e["event"] if e["event"] != "drop"
            else f"drop:{e['reason']}:{e.get('cause', '')}"
            for e in result.events).items())),
        "slo_violations": result.report.slo_violations,
        "stalled_requests": sum(1 for t in tracer.traces()
                                if t.recovery_stall_s > 0.0),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("boundaries")
    return {name: _outputs(name, out_dir) for name in CASES}


def test_serving_boundaries_golden(outputs, update_goldens):
    text = json.dumps(outputs, indent=2, sort_keys=True) + "\n"
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(text)
        return
    assert GOLDEN_PATH.exists(), (
        f"golden fixture {GOLDEN_PATH} missing — generate it with "
        f"pytest tests/test_serving_boundaries.py --update-goldens")
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in CASES:
        assert outputs[name] == golden[name], (
            f"serving boundary case {name!r} drifted from its golden; "
            f"if the change is intended, rerun with --update-goldens "
            f"and commit the diff")
    assert sorted(golden) == sorted(CASES)


def test_cases_exercise_their_boundary(outputs):
    """Each case is only worth pinning while it still reaches the
    boundary it is named after."""
    kinds = {name: out["events"] for name, out in outputs.items()}
    assert kinds["max_batch_1"]["dispatch"] \
        == kinds["max_batch_1"]["complete"]
    assert kinds["queue_capacity_1"]["drop:queue_full:"] > 0
    expired = kinds["all_past_slo_drop_expired"]
    assert expired["drop:expired:"] > 0
    assert (outputs["all_past_slo_drop_expired"]["slo_violations"]
            == expired["complete"])
    kept = kinds["all_past_slo_keep_expired"]
    assert not any(k.startswith("drop:") for k in kept)
    assert outputs["all_past_slo_keep_expired"]["slo_violations"] \
        == kept["complete"] == kept["admit"]
    drained = kinds["fleet_drained"]
    assert drained["drain"] == len(TX2_PAIR)
    assert drained["drop:unserviceable:fleet_drained"] > 0
    recovered = kinds["fleet_drained_recovery"]
    for kind in ("cooldown", "probe", "readmit", "redrain",
                 "recovery_exhausted", "drop:unserviceable:fleet_drained"):
        assert recovered[kind] > 0, kind
    assert outputs["fleet_drained_recovery"]["stalled_requests"] > 0
    assert kinds["one_request"] == {"admit": 1, "complete": 1,
                                    "dispatch": 1}
    assert kinds["empty_trace"] == {}
