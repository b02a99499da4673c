"""Benchmark: fleet serving simulator throughput and efficiency.

One seeded Poisson scenario (TX2 + AGX, ``powerlens`` planner) is
served under each queueing policy; the run records

* scheduler throughput — wall-clock requests/s of the simulation loop
  itself (how much trace one host second buys),
* served efficiency — joules/request and latency percentiles inside
  the simulation (deterministic: these regress via ``bench-diff`` at
  tight tolerance),
* plan-cache effectiveness — hit rate across the fleet.

Everything lands in ``BENCH_serving.json`` at the repo root, compared
in CI by ``powerlens bench-diff`` with per-key tolerances (virtual
quantities tight, wall-clock quantities loose).

Scale knobs:

* ``POWERLENS_BENCH_SERVE_RATE``     — arrival rate in rps (default 60).
* ``POWERLENS_BENCH_SERVE_DURATION`` — trace horizon in s (default 2).
* ``POWERLENS_BENCH_SIM_RUNS``       — simulator-loop repetitions per
  timing in the fast-path benches (default 30).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.governors import PresetGovernor, analytic_plan
from repro.governors.static import StaticGovernor
from repro.hw import jetson_tx2
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.models.random_gen import RandomDNNGenerator
from repro.obs.ledger import EnergyLedger
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    PlanCache,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn
from tests.ledgerref import reference_ledger
from tests.simref import ReferenceSimulator

pytestmark = pytest.mark.perf

SERVE_RATE = float(os.environ.get("POWERLENS_BENCH_SERVE_RATE", "60"))
SERVE_DURATION = float(
    os.environ.get("POWERLENS_BENCH_SERVE_DURATION", "2"))
SIM_RUNS = int(os.environ.get("POWERLENS_BENCH_SIM_RUNS", "30"))

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

_SEED = 23
_MODEL = "small_cnn"
_POLICIES = ("fifo", "slo", "energy")
#: Alternating reference/fast timing repetitions per fast-path bench.
_TIMING_REPS = 5


def _record(section: str, payload: dict) -> None:
    """Read-modify-write one section of ``BENCH_serving.json``."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    payload = dict(payload)
    payload["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    payload["host_cpus"] = os.cpu_count()
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True)
                          + "\n")


def _serve(policy: str):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor="powerlens", fleet_seed=_SEED)
    fleet.add_graph(build_small_cnn(_MODEL))
    trace = make_trace("poisson", rate_rps=SERVE_RATE,
                       duration_s=SERVE_DURATION, models=[_MODEL],
                       seed=_SEED, slo_latency_s=1.0)
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy=policy))
    t0 = time.perf_counter()
    result = scheduler.run(trace)
    return result, time.perf_counter() - t0


@pytest.mark.benchmark(group="serving")
def test_serving_policy_sweep(benchmark):
    """All policies over one trace: correctness gates plus the recorded
    perf/efficiency trajectory."""
    results = {}

    def sweep():
        return {policy: _serve(policy) for policy in _POLICIES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    payload = {"rate_rps": SERVE_RATE, "duration_s": SERVE_DURATION,
               "seed": _SEED, "policies": {}}
    print()
    for policy, (result, wall_s) in results.items():
        report = result.report
        assert report.conserved
        assert report.energy_reconciled
        assert report.completed > 0
        hits = sum(d.plan_cache_hits for d in report.devices)
        misses = sum(d.plan_cache_misses for d in report.devices)
        payload["policies"][policy] = {
            # deterministic (tight bench-diff tolerance)
            "completed": report.completed,
            "dropped": report.dropped,
            "joules_per_request": round(report.joules_per_request, 6),
            "latency_p50_s": round(report.latency_p50_s, 6),
            "latency_p99_s": round(report.latency_p99_s, 6),
            "makespan_s": round(report.makespan_s, 6),
            "plan_cache_hit_rate": round(hits / (hits + misses), 4),
            # wall-clock (loose tolerance)
            "wall_time_s": round(wall_s, 3),
            "sim_requests_per_s": round(report.completed / wall_s, 1),
        }
        print(f"  {policy:>6s}: {report.completed} served in "
              f"{wall_s:.2f}s host time "
              f"({report.completed / wall_s:,.0f} req/s), "
              f"{report.joules_per_request:.3f} J/req, "
              f"p99 {report.latency_p99_s * 1000:.1f} ms")
    _record("policy_sweep", payload)

    # The energy policy's whole point: it never pays more J/request
    # than FIFO on the same trace (wider batches amortize overheads).
    fifo = results["fifo"][0].report
    energy = results["energy"][0].report
    assert energy.joules_per_request <= fifo.joules_per_request * 1.05


@pytest.mark.benchmark(group="serving")
def test_request_trace_overhead(benchmark):
    """Full-rate request tracing + burn monitoring on the scheduler
    loop: byte-identical output, recorded relative wall-clock cost."""
    from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
    from repro.serving import RequestTracer

    def run(traced: bool):
        fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                             DeviceConfig("agx-1", "agx")],
                            governor="powerlens", fleet_seed=_SEED)
        fleet.add_graph(build_small_cnn(_MODEL))
        trace = make_trace("poisson", rate_rps=SERVE_RATE,
                           duration_s=SERVE_DURATION, models=[_MODEL],
                           seed=_SEED, slo_latency_s=1.0)
        scheduler = FleetScheduler(
            fleet, SchedulerConfig(policy="slo"),
            request_tracer=RequestTracer() if traced else None,
            burn_monitor=(BurnRateMonitor(BurnRateConfig(
                fast_window_s=0.5, slow_window_s=2.0))
                if traced else None))
        t0 = time.perf_counter()
        result = scheduler.run(trace)
        return result, time.perf_counter() - t0

    plain, plain_s = run(False)
    traced, traced_s = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1)

    # The observe-only contract, re-checked at bench scale.
    assert plain.event_log() == traced.event_log()
    assert plain.report.to_dict() == traced.report.to_dict()
    assert traced.request_tracer.sampled_count == traced.report.arrived

    overhead = traced_s / plain_s if plain_s > 0 else 1.0
    print()
    print(f"  request tracing: plain {plain_s:.2f}s, "
          f"traced {traced_s:.2f}s ({overhead:.2f}x, "
          f"{traced.request_tracer.sampled_count} requests sampled)")
    _record("request_trace_overhead", {
        "rate_rps": SERVE_RATE,
        "duration_s": SERVE_DURATION,
        # deterministic (tight bench-diff tolerance)
        "requests_sampled": traced.request_tracer.sampled_count,
        "completed": traced.report.completed,
        # wall-clock (loose tolerance)
        "plain_wall_s": round(plain_s, 3),
        "traced_wall_s": round(traced_s, 3),
        "overhead_x": round(overhead, 2),
    })
    # Tracing every request should stay a modest fraction of the loop.
    assert overhead < 3.0, (
        f"request tracing overhead blew up: {overhead:.2f}x")


def _jobs():
    graphs = [RandomDNNGenerator(seed=s).generate() for s in range(4)]
    return [InferenceJob(graph=g, batch_size=16, n_batches=3)
            for g in graphs]


def _row_loop_vs_reference(platform, jobs, make_governor):
    """Check the simulator's row-driven loop against the per-segment
    reference (byte-identical traces/samples/reports/ledgers), then time
    ``SIM_RUNS`` fleet-style runs of each — fresh simulator per run,
    shared op-row cache on the fast side — as min-of-``_TIMING_REPS``
    wall seconds.  Reference and fast repetitions alternate, so a slow
    stretch of the host lands on both sides instead of on one."""
    def run_once(sim_cls, cache):
        sim = sim_cls(platform, sample_period=0.02, op_row_cache=cache)
        return sim.run(jobs, make_governor())

    ref = run_once(ReferenceSimulator, None)
    fast = run_once(InferenceSimulator, {})
    assert fast.trace.segments == ref.trace.segments
    assert fast.samples == ref.samples
    assert fast.report == ref.report
    assert fast.per_job == ref.per_job
    ref_ledger = EnergyLedger.from_result(ref)
    fast_ledger = EnergyLedger.from_result(fast)
    assert fast_ledger.reconciliation.energy_rel_err <= 1e-9
    assert fast_ledger.to_dict() == ref_ledger.to_dict()

    def time_runs(sim_cls, cache):
        t0 = time.perf_counter()
        for _ in range(SIM_RUNS):
            run_once(sim_cls, cache)
        return time.perf_counter() - t0

    shared_cache: dict = {}
    ref_s = fast_s = float("inf")
    for _ in range(_TIMING_REPS):
        ref_s = min(ref_s, time_runs(ReferenceSimulator, None))
        fast_s = min(fast_s, time_runs(InferenceSimulator, shared_cache))
    return fast, ref_s, fast_s


def _record_fastpath(section: str, label: str, n_jobs: int, ref_s: float,
                     fast_s: float, **extra) -> float:
    speedup = ref_s / fast_s
    print()
    print(f"  {label}, {n_jobs} jobs x {SIM_RUNS} runs: "
          f"reference {ref_s:.2f}s, fast {fast_s:.2f}s "
          f"({speedup:.2f}x)")
    _record(section, {
        "n_jobs": n_jobs,
        "sim_runs": SIM_RUNS,
        "reference_wall_s": round(ref_s, 3),
        "fast_wall_s": round(fast_s, 3),
        "speedup": round(speedup, 2),
        **extra,
    })
    return speedup


@pytest.mark.benchmark(group="serving")
def test_static_sim_fastpath(benchmark):
    """Static-governor runs: the row-driven loop vs the per-segment
    reference loop, byte-identical and >= 2x."""
    platform = jetson_tx2()
    jobs = _jobs()
    _, ref_s, fast_s = benchmark.pedantic(
        lambda: _row_loop_vs_reference(platform, jobs, StaticGovernor),
        rounds=1, iterations=1)
    speedup = _record_fastpath("static_sim_fastpath", "static sim",
                               len(jobs), ref_s, fast_s)
    assert speedup >= 2.0, (
        f"static sim fast path regressed: {speedup:.2f}x < 2x")


@pytest.mark.benchmark(group="serving")
def test_serving_dispatch_fastpath(benchmark):
    """Resilient ``PresetGovernor`` runs — the default ``powerlens``
    serving runtime, one analytic plan per graph — through the
    row-driven loop vs the per-segment reference: byte-identical
    traces/samples/ledgers, speedup recorded."""
    platform = jetson_tx2()
    jobs = _jobs()
    evaluator = AnalyticEvaluator(platform)
    plans = [analytic_plan(evaluator, j.graph, j.batch_size)
             for j in jobs]

    def governor():
        return PresetGovernor(plans, resilient=True)

    fast, ref_s, fast_s = benchmark.pedantic(
        lambda: _row_loop_vs_reference(platform, jobs, governor),
        rounds=1, iterations=1)
    assert fast.switch_count > 0  # the plans really switch levels
    _record_fastpath("serving_dispatch_fastpath", "preset dispatch",
                     len(jobs), ref_s, fast_s,
                     switch_count=fast.switch_count)


@pytest.mark.benchmark(group="serving")
def test_dispatch_invariants(benchmark):
    """Per-dispatch evaluator-backed ledger on a warm device
    (block-sweep memo) vs the reference path — a memo-free per-block
    sweep on a fresh evaluator — over more (graph, sparsity) tables
    than the profile-table LRU holds, as an adaptive family fleet sees:
    byte-identical ledgers and >= 2x."""
    platform = jetson_tx2()
    batch, slack = 8, 0.25
    graphs = [RandomDNNGenerator(seed=s).generate() for s in range(4)]
    sparsities = (0.0, 0.3, 0.6)
    evaluator = AnalyticEvaluator(platform)
    cache = PlanCache(evaluator)
    dispatches = []
    for graph in graphs:
        for sparsity in sparsities:
            plan = cache.get_or_build(graph, batch, sparsity)
            job = InferenceJob(graph=graph, batch_size=batch,
                               sparsity=sparsity)
            result = InferenceSimulator(platform, keep_samples=False).run(
                [job], PresetGovernor([plan]))
            dispatches.append((graph, sparsity, plan, result))

    def fast_pass():
        return [EnergyLedger.from_result(
                    result, plan=plan, graph=graph, evaluator=evaluator,
                    batch_size=batch, latency_slack=slack,
                    sparsity=sparsity).to_dict()
                for graph, sparsity, plan, result in dispatches]

    def reference_pass():
        fresh = AnalyticEvaluator(platform)
        return [reference_ledger(result, plan, graph, fresh, batch,
                                 slack, sparsity=sparsity).to_dict()
                for graph, sparsity, plan, result in dispatches]

    def compare():
        assert json.dumps(fast_pass()) == json.dumps(reference_pass())

        def best_of_3(one_pass):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(SIM_RUNS):
                    one_pass()
                best = min(best, time.perf_counter() - t0)
            return best

        return best_of_3(reference_pass), best_of_3(fast_pass)

    ref_s, fast_s = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = _record_fastpath("dispatch_invariants",
                               "dispatch invariants", len(dispatches),
                               ref_s, fast_s)
    assert speedup >= 2.0, (
        f"dispatch invariants regressed: {speedup:.2f}x < 2x")
