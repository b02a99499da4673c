"""Request-lifecycle tracing: byte-identity, sampling, decomposition.

The tentpole invariant pinned here: a :class:`RequestTracer` (and a
:class:`BurnRateMonitor`) riding the scheduler is **strictly
observe-only** — the canonical event log, the SLO report and the
ledger totals are byte-identical with tracing on or off, across
governors × policies × fault profiles × recovery configs.  Also
pinned:

* **sampling determinism** — the head-sampled id set is a pure
  function of ``(seed, request_id)``, so replays sample identically;
* **tail retention** — expired / unserviceable / queue_full /
  SLO-violating / anomaly-flagged requests are kept at 100% even with
  ``head_rate=0``;
* **exact decomposition** — ``queue_s + batch_s + service_s`` equals
  the end-to-end latency within 1e-9 for every outcome;
* **replayable export** — ``export_jsonl`` files parse with
  :func:`repro.obs.replay.read_trace` with zero malformed lines;
* **one reconstruction** — the tracer's live rows and the rows
  :class:`~repro.obs.timeline.ServingTimeline` rebuilds from the event
  log agree on every field the log carries.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.faults import FaultProfile
from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
from repro.obs.replay import read_trace, span_tree
from repro.obs.timeline import ServingTimeline
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    RequestTracer,
    SamplingConfig,
    SchedulerConfig,
    head_sample_keep,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

MODEL = "small_cnn"
STORM = dict(telemetry_noise_std=0.8, switch_drop_rate=0.2)

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_POLICIES = st.sampled_from(["fifo", "slo", "energy"])
_GOVERNORS = st.sampled_from(
    ["powerlens", "powerlens-adaptive", "ondemand", "performance"])


def _run(seed: int, policy: str = "fifo", governor: str = "powerlens",
         rate: float = 30.0, duration: float = 0.5,
         slo: float = math.inf, faults: FaultProfile = None,
         recovery: RecoveryConfig = None, queue_capacity: int = 64,
         sampling: SamplingConfig = None, traced: bool = True,
         burn: BurnRateConfig = None, sparsities=None):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor=governor, fleet_seed=seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=slo,
                       sparsity_choices=sparsities)
    tracer = RequestTracer(sampling) if traced else None
    monitor = (BurnRateMonitor(burn or BurnRateConfig(
        fast_window_s=0.1, slow_window_s=0.4)) if traced else None)
    scheduler = FleetScheduler(
        fleet,
        SchedulerConfig(policy=policy, queue_capacity=queue_capacity,
                        recovery=recovery),
        request_tracer=tracer, burn_monitor=monitor)
    return scheduler.run(trace)


# ----------------------------------------------------------------------
# byte-identity: tracing never perturbs the run
# ----------------------------------------------------------------------
class TestByteIdentity:
    @settings(max_examples=10, deadline=None)
    @given(seed=_SEEDS, policy=_POLICIES, governor=_GOVERNORS)
    def test_tracing_invisible_across_governors_and_policies(
            self, seed, policy, governor):
        plain = _run(seed, policy=policy, governor=governor,
                     traced=False)
        traced = _run(seed, policy=policy, governor=governor)
        assert plain.event_log() == traced.event_log()
        assert plain.report.to_dict() == traced.report.to_dict()
        assert (plain.report.ledger_energy_j
                == traced.report.ledger_energy_j)

    @settings(max_examples=6, deadline=None)
    @given(seed=_SEEDS, recovery_on=st.booleans())
    def test_tracing_invisible_under_faults_and_recovery(
            self, seed, recovery_on):
        faults = FaultProfile(seed=seed, **STORM)
        recovery = (RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.4)
                    if recovery_on else None)
        kwargs = dict(policy="slo", slo=0.5, duration=1.0,
                      recovery=recovery)
        plain = _run(seed, faults=FaultProfile(seed=seed, **STORM),
                     traced=False, **kwargs)
        traced = _run(seed, faults=faults, **kwargs)
        assert plain.event_log() == traced.event_log()
        assert plain.report.to_dict() == traced.report.to_dict()
        assert (plain.report.ledger_energy_j
                == traced.report.ledger_energy_j)

    def test_sampling_rate_never_changes_outputs(self):
        full = _run(5, sampling=SamplingConfig(head_rate=1.0))
        none = _run(5, sampling=SamplingConfig(head_rate=0.0,
                                               keep_tail=False))
        assert full.event_log() == none.event_log()
        assert full.report.to_dict() == none.report.to_dict()


# ----------------------------------------------------------------------
# sampling: deterministic head, 100% anomalous tail
# ----------------------------------------------------------------------
class TestSampling:
    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, rate=st.floats(min_value=0.0, max_value=1.0))
    def test_head_sampling_is_a_pure_function(self, seed, rate):
        first = [head_sample_keep(seed, rid, rate)
                 for rid in range(200)]
        second = [head_sample_keep(seed, rid, rate)
                  for rid in range(200)]
        assert first == second

    def test_head_rate_roughly_honoured(self):
        kept = sum(head_sample_keep(7, rid, 0.25)
                   for rid in range(4000))
        assert 0.18 < kept / 4000 < 0.32

    def test_same_seed_same_sampled_set(self):
        cfg = SamplingConfig(head_rate=0.3, seed=42)
        a = _run(9, rate=80.0, sampling=cfg)
        b = _run(9, rate=80.0, sampling=cfg)
        ids_a = {t.request_id for t in a.request_tracer.traces()}
        ids_b = {t.request_id for t in b.request_tracer.traces()}
        assert ids_a == ids_b
        assert a.request_tracer.sampled_count < a.report.arrived

    def test_different_seed_different_sampled_set(self):
        a = _run(9, rate=80.0,
                 sampling=SamplingConfig(head_rate=0.3, seed=1))
        b = _run(9, rate=80.0,
                 sampling=SamplingConfig(head_rate=0.3, seed=2))
        ids_a = {t.request_id for t in a.request_tracer.traces()}
        ids_b = {t.request_id for t in b.request_tracer.traces()}
        assert ids_a != ids_b

    def test_tail_keeps_every_anomalous_request(self):
        # Tight SLO + tiny queue: expirations, violations and
        # queue_full rejections abound; head_rate=0 keeps only them.
        result = _run(3, rate=200.0, duration=0.5, slo=0.05,
                      queue_capacity=4,
                      sampling=SamplingConfig(head_rate=0.0))
        tracer = result.request_tracer
        report = result.report
        anomalous = (report.dropped_expired
                     + report.dropped_unserviceable
                     + report.dropped_queue_full
                     + report.slo_violations)
        assert anomalous > 0
        traces = tracer.traces()
        assert len(traces) == anomalous
        assert all(t.anomalous and not t.sampled_head for t in traces)
        assert tracer.sampled_tail_count == anomalous
        # Tail retention is 100%: every expired/violating id present.
        outcomes = {t.outcome for t in traces}
        assert "expired" in outcomes or "queue_full" in outcomes

    def test_keep_tail_false_drops_the_tail(self):
        result = _run(3, rate=200.0, duration=0.5, slo=0.05,
                      queue_capacity=4,
                      sampling=SamplingConfig(head_rate=0.0,
                                              keep_tail=False))
        assert result.request_tracer.sampled_count == 0

    def test_invalid_head_rate_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(head_rate=1.5)
        with pytest.raises(ValueError):
            SamplingConfig(head_rate=-0.1)

    def test_sampling_metrics_merged_into_fleet_registry(self):
        result = _run(5)
        seen = result.metrics.counter(
            "powerlens_request_trace_seen_total").value
        sampled = result.metrics.counter(
            "powerlens_request_trace_sampled_total").value
        assert seen == result.report.arrived
        assert sampled == result.request_tracer.sampled_count


# ----------------------------------------------------------------------
# decomposition: queue + batch + service == latency, exactly
# ----------------------------------------------------------------------
class TestDecomposition:
    @settings(max_examples=8, deadline=None)
    @given(seed=_SEEDS, policy=_POLICIES,
           slo=st.sampled_from([math.inf, 0.5, 0.05]))
    def test_components_sum_to_latency(self, seed, policy, slo):
        result = _run(seed, policy=policy, slo=slo, rate=60.0,
                      queue_capacity=8)
        traces = result.request_tracer.traces()
        assert traces
        for tr in traces:
            total = tr.queue_s + tr.batch_s + tr.service_s
            assert total == pytest.approx(tr.latency_s, abs=1e-9)
            assert tr.queue_s >= 0 and tr.batch_s >= 0
            assert tr.service_s >= 0

    def test_completed_trace_attributes(self):
        result = _run(5, policy="slo")
        completed = [t for t in result.request_tracer.traces()
                     if t.completed]
        assert completed
        by_id = {o.request_id: o for o in result.outcomes}
        for tr in completed:
            outcome = by_id[tr.request_id]
            assert tr.device == outcome.device
            assert tr.energy_j == outcome.energy_j
            assert tr.dispatch_seq >= 0
            assert tr.plan_fingerprint
            assert tr.recovery_state
            assert tr.request_id in tr.batch_request_ids
            assert tr.batch_n_requests == len(tr.batch_request_ids)
            assert tr.ledger_energy_j > 0.0

    def test_ledger_shares_sum_to_fleet_total(self):
        result = _run(5)
        traces = result.request_tracer.traces()
        assert len(traces) == result.report.arrived  # head_rate=1
        share_sum = math.fsum(t.ledger_energy_j for t in traces
                              if t.completed)
        assert share_sum == pytest.approx(
            result.report.ledger_energy_j, rel=1e-9)

    def test_drop_traces_are_queue_only(self):
        result = _run(3, rate=200.0, duration=0.5, slo=0.05,
                      queue_capacity=4)
        drops = [t for t in result.request_tracer.traces()
                 if not t.completed]
        assert drops
        for tr in drops:
            assert tr.batch_s == 0.0 and tr.service_s == 0.0
            assert not tr.slo_ok
            if tr.outcome == "queue_full":
                assert tr.latency_s == 0.0


# ----------------------------------------------------------------------
# export: powerlens-trace-compatible JSONL
# ----------------------------------------------------------------------
class TestExport:
    def test_export_readable_by_read_trace(self, tmp_path):
        result = _run(5, policy="slo")
        path = result.request_tracer.export_jsonl(
            tmp_path / "req.jsonl")
        trace = read_trace(path)
        assert trace.malformed_lines == 0
        assert len(trace.spans) > 0
        roots = [n for n in span_tree(trace.spans)
                 if n.name == "request"]
        completed_roots = [
            n for n in roots
            if n.record["attrs"].get("outcome") == "completed"]
        assert completed_roots
        for node in completed_roots:
            names = [c.name for c in node.children]
            assert names == ["queued", "batched", "dispatched"]

    def test_export_is_byte_stable(self, tmp_path):
        a = _run(5).request_tracer.export_jsonl(tmp_path / "a.jsonl")
        b = _run(5).request_tracer.export_jsonl(tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_export_appends_burn_spans(self, tmp_path):
        result = _run(3, rate=200.0, duration=0.5, slo=0.02,
                      burn=BurnRateConfig(objective=0.99,
                                          fast_window_s=0.05,
                                          slow_window_s=0.1,
                                          min_events=3))
        monitor = result.burn_monitor
        assert monitor.alert_count > 0
        path = result.request_tracer.export_jsonl(
            tmp_path / "req.jsonl", burn=monitor)
        trace = read_trace(path)
        burn_spans = [s for s in trace.spans
                      if s["name"] == "slo_burn"]
        assert len(burn_spans) == monitor.alert_count
        for span in burn_spans:
            assert span["attrs"]["peak_fast_burn"] >= 0


# ----------------------------------------------------------------------
# one reconstruction: live rows == rows rebuilt from the event log
# ----------------------------------------------------------------------
#: Row fields the event log carries, so both readers fill them.
_LOGGED_FIELDS = ("request_id", "model", "images", "t_arrival",
                  "t_batch_ready", "t_dispatch", "t_end", "outcome",
                  "device", "dispatch_seq", "batch_n_requests",
                  "batch_request_ids", "energy_j", "slo_ok", "cause")


class TestOneReconstruction:
    @settings(max_examples=10, deadline=None)
    @given(seed=_SEEDS, policy=_POLICIES, storm=st.booleans(),
           recovery_on=st.booleans(), sparse=st.booleans())
    def test_live_rows_match_rows_rebuilt_from_the_log(
            self, seed, policy, storm, recovery_on, sparse):
        result = _run(
            seed, policy=policy, rate=60.0, duration=1.0, slo=0.5,
            queue_capacity=8,
            faults=FaultProfile(seed=seed, **STORM) if storm else None,
            recovery=(RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.4)
                      if recovery_on else None),
            sparsities=(0.2, 0.5) if sparse else None)
        live = {t.request_id: t for t in result.request_tracer.traces()}
        rebuilt = ServingTimeline.from_events(result.events).requests
        assert sorted(live) == sorted(rebuilt)
        assert len(live) == result.report.arrived
        for rid, row in rebuilt.items():
            trace = live[rid]
            for name in _LOGGED_FIELDS:
                if name == "images" and row.outcome == "queue_full":
                    continue  # the drop record does not carry images
                assert getattr(trace, name) == getattr(row, name), name
            if row.completed:  # dispatch records carry the sparsity
                assert trace.sparsity == row.sparsity
