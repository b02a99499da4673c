"""Equivalence suite for the simulator's row-driven integration loop.

:class:`InferenceSimulator` times every operator from cached
ProfileTable-style rows (:func:`repro.hw.analytic.simulator_op_rows`)
and re-reads them whenever the GPU level changes.  The contract is
byte-identity with the per-segment reference loop kept in
``tests/simref.py``: traces, telemetry samples, reports, metrics,
anomaly records and the reconciled energy ledger must be
indistinguishable — for every governor kind and with duration noise,
thermal feedback or fault injection switched on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.governors import PresetGovernor, analytic_plan
from repro.governors.static import StaticGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import CapWindow, FaultProfile
from repro.hw.platform import jetson_agx_xavier
from repro.hw.thermal import ThermalConfig
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator
from repro.obs import Observability, MetricsRegistry, NULL_TRACER
from repro.obs.anomaly import AnomalyDetector
from repro.obs.ledger import EnergyLedger
from tests.simref import ReferenceSimulator

pytestmark = pytest.mark.faults


class RogueStatic(StaticGovernor):
    """A static governor whose hooks *do* switch: every returned level
    must be honoured at job start, at op start and at window close."""

    def on_job_start(self, job_idx, job):
        return 1 if job_idx % 2 == 0 else None

    def on_op_start(self, job_idx, op_idx, work):
        return 3 if op_idx == 2 else None

    def on_sample(self, sample):
        return 0 if sample.cpu_busy > 0.5 else None


#: Run ingredients that perturb segments between op boundaries.
DYNAMICS = {
    "none": {},
    "noise": dict(noise_std=0.05),
    # A tiny heat capacity and low trip point so throttling engages.
    "thermal": dict(thermal=ThermalConfig(c_th=0.2, t_throttle=27.0,
                                          t_release=26.0)),
    "faults": dict(faults=FaultProfile(
        seed=5, switch_drop_rate=0.3, switch_partial_rate=0.2,
        switch_delay_rate=0.3, telemetry_drop_rate=0.2,
        telemetry_stuck_rate=0.1, telemetry_noise_std=0.2,
        cap_windows=(CapWindow(0.0, 0.05, 2),))),
}


def _graph(seed):
    return RandomDNNGenerator(RandomDNNConfig(), seed=seed).generate()


def _governor(kind, platform, jobs, level=None, cpu_policy="ondemand"):
    if kind == "static":
        return StaticGovernor(level, cpu_policy=cpu_policy)
    if kind == "rogue":
        return RogueStatic(level, cpu_policy=cpu_policy)
    evaluator = AnalyticEvaluator(platform)
    plans = {j.graph.name: analytic_plan(evaluator, j.graph, j.batch_size,
                                         block_size=4) for j in jobs}
    return PresetGovernor(list(plans.values()), resilient=True)


def _assert_identical(a, b):
    assert a.trace.segments == b.trace.segments
    assert a.samples == b.samples
    assert a.report == b.report
    assert a.per_job == b.per_job
    assert a.switch_count == b.switch_count
    assert a.peak_temperature == b.peak_temperature
    assert a.throttle_time == b.throttle_time
    assert a.fault_stats == b.fault_stats
    la = EnergyLedger.from_result(a)
    lb = EnergyLedger.from_result(b)
    assert la.reconciliation.energy_rel_err <= 1e-9
    assert lb.reconciliation.energy_rel_err <= 1e-9
    assert la.to_dict() == lb.to_dict()


def _run_both(platform, jobs, governor_kind, level=None,
              cpu_policy="ondemand", **kw):
    fast, ref = (sim_cls(platform, **kw).run(
        jobs, _governor(governor_kind, platform, jobs, level, cpu_policy))
        for sim_cls in (InferenceSimulator, ReferenceSimulator))
    return fast, ref


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200),
       governor=st.sampled_from(("static", "preset", "rogue")),
       dynamics=st.sampled_from(sorted(DYNAMICS)),
       level=st.sampled_from((None, 0, 2, -1, -2)),
       cpu_policy=st.sampled_from(("ondemand", "efficient", "max")),
       sample_period=st.sampled_from((0.005, 0.02, 0.1)),
       batch=st.integers(min_value=1, max_value=32))
def test_static_fast_path_matches_generic_loop(seed, governor, dynamics,
                                               level, cpu_policy,
                                               sample_period, batch):
    """Governor kind x dynamics x level x host policy x platform x
    window length x batch: the row loop is the reference, byte for
    byte."""
    platform = jetson_tx2() if seed % 2 else jetson_agx_xavier()
    jobs = [InferenceJob(graph=_graph(seed % 8), batch_size=batch,
                         n_batches=2)]
    fast, ref = _run_both(platform, jobs, governor, level, cpu_policy,
                          sample_period=sample_period, seed=seed,
                          **DYNAMICS[dynamics])
    _assert_identical(fast, ref)


def test_multi_job_shared_cache_cold_and_warm():
    """Fleet-style reuse: a shared op-row cache across simulator
    instances must not change a single byte, cold or warm."""
    platform = jetson_tx2()
    jobs = [InferenceJob(graph=_graph(s), batch_size=16, n_batches=3)
            for s in range(4)]
    ref = ReferenceSimulator(platform, sample_period=0.02).run(
        jobs, StaticGovernor())
    cache: dict = {}
    cold = InferenceSimulator(platform, sample_period=0.02,
                              op_row_cache=cache).run(jobs,
                                                      StaticGovernor())
    assert len(cache) > 0
    warm = InferenceSimulator(platform, sample_period=0.02,
                              op_row_cache=cache).run(jobs,
                                                      StaticGovernor())
    _assert_identical(cold, ref)
    _assert_identical(warm, ref)


def test_rogue_marker_governor_switches_honoured():
    """Levels returned from any hook re-time the rows in-path, exactly
    like the per-segment loop."""
    platform = jetson_tx2()
    jobs = [InferenceJob(graph=_graph(s), batch_size=8, n_batches=2)
            for s in range(3)]
    fast, ref = _run_both(platform, jobs, "rogue", sample_period=0.01)
    assert fast.switch_count > 0  # the rogue hooks actually fired
    _assert_identical(fast, ref)


@pytest.mark.parametrize("governor", ["static", "preset", "rogue"])
@pytest.mark.parametrize("dynamics", [
    dict(noise_std=0.05),
    dict(thermal=ThermalConfig()),
    dict(faults=FaultProfile(seed=5, switch_drop_rate=0.3,
                             telemetry_noise_std=0.2)),
    dict(noise_std=0.05, thermal=ThermalConfig(),
         faults=FaultProfile(seed=5, switch_delay_rate=0.5)),
    DYNAMICS["thermal"],
    DYNAMICS["faults"],
])
def test_dynamic_runs_match_reference(dynamics, governor):
    """Noise, thermal feedback and fault injection ride the same loop:
    the run matches the reference byte for byte."""
    platform = jetson_tx2()
    jobs = [InferenceJob(graph=_graph(s), batch_size=8, n_batches=2)
            for s in range(2)]
    fast, ref = _run_both(platform, jobs, governor, sample_period=0.01,
                          seed=11, **dynamics)
    _assert_identical(fast, ref)


def test_dynamics_actually_engage():
    """The dynamic cases above exercise what they claim: throttling
    fires, faults land and noise moves durations."""
    platform = jetson_tx2()
    jobs = [InferenceJob(graph=_graph(1), batch_size=8, n_batches=2)]
    hot, _ = _run_both(platform, jobs, "preset", sample_period=0.01,
                       **DYNAMICS["thermal"])
    assert hot.throttle_time > 0
    faulty, _ = _run_both(platform, jobs, "preset", sample_period=0.01,
                          **DYNAMICS["faults"])
    stats = faulty.fault_stats
    assert stats.switches_dropped > 0 and stats.telemetry_dropped > 0
    noisy, _ = _run_both(platform, jobs, "static", sample_period=0.01,
                         **DYNAMICS["noise"])
    quiet, _ = _run_both(platform, jobs, "static", sample_period=0.01)
    assert noisy.report.total_time != quiet.report.total_time


def test_metrics_and_anomaly_observability_identical():
    """The shared window closer feeds metrics and the anomaly detector
    exactly as under the reference loop, faults included."""
    platform = jetson_tx2()
    jobs = [InferenceJob(graph=_graph(s), batch_size=8, n_batches=2)
            for s in range(2)]

    def run(sim_cls):
        obs = Observability(tracer=NULL_TRACER,
                            metrics=MetricsRegistry())
        detector = AnomalyDetector()
        result = sim_cls(platform, sample_period=0.01, obs=obs,
                         anomaly=detector, **DYNAMICS["faults"]).run(
            jobs, _governor("preset", platform, jobs))
        return result, obs.metrics.to_dict(), detector.anomalies

    fast, fast_metrics, fast_anoms = run(InferenceSimulator)
    ref, ref_metrics, ref_anoms = run(ReferenceSimulator)
    _assert_identical(fast, ref)
    assert fast_metrics == ref_metrics
    assert fast_anoms == ref_anoms


def test_cache_injection_inert_for_dynamic_governors():
    """Passing a shared op-row cache to a switching run changes
    nothing."""
    platform = jetson_tx2()
    job = InferenceJob(graph=_graph(2), batch_size=8, n_batches=2)
    cache: dict = {}
    with_cache = InferenceSimulator(platform, sample_period=0.01,
                                    op_row_cache=cache).run(
        [job], RogueStatic())
    without = InferenceSimulator(platform, sample_period=0.01).run(
        [job], RogueStatic())
    _assert_identical(with_cache, without)
