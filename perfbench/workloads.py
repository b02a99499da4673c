"""The four benchmark workloads: three serving mixes and the offline fit.

Every input is built here, from the ``--seed`` argument or fixed; the
program only ever receives the finished inputs (an arrival trace; a
network count, corpus seed and the graphs to analyze).  Each workload runs in
*repetitions*: one repetition sets up from scratch, runs the workload's
main loop once and checks its outputs.  An untraced repetition yields
the end-to-end numbers; a traced one wraps the layers' public
functions from outside (:mod:`layers`) and yields the per-layer numbers.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import PowerLens
from repro.core.datasets import DatasetGenerator
from repro.core.predictors import DecisionModel, HyperparamPredictor
from repro.hw import FaultProfile
from repro.hw.platform import jetson_tx2
from repro.hw.simulator import InferenceSimulator
from repro.models import build_model
from repro.models.random_gen import RandomDNNGenerator
from repro.models.zoo import PAPER_MODELS
from repro.obs.ledger import EnergyLedger
from repro.serving import (
    ArrivalTrace,
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    Request,
    SchedulerConfig,
)
from repro.serving.slo_report import SLOReport, nearest_rank

from layers import LayerClock

perf = time.perf_counter

#: Serving layers timed in a traced repetition, in report order; the
#: share table and the unattributed remainder are taken over these.
SERVING_LAYERS = ("scheduler", "queueing", "fleet.predict",
                  "fleet.plan_lookup", "fleet.execute", "fleet.prewarm",
                  "simulator", "ledger", "report")
FIT_LAYERS = ("datasets", "predictors.hyperparam", "predictors.decision")

#: Shared by every serving workload.
DEVICES = ("tx2", "agx", "tx2", "agx")
MAX_BATCH = 8
IMAGES_PER_REQUEST = 8
#: fit-plan set-up is ~25 ms, so each run times this many extra set-ups.
FIT_SETUPS = 7
#: Training-corpus seed, the same in every run: fit cost varies by ~25 %
#: between random corpora, which would bury any change to the pipeline;
#: ``--seed`` picks the held-out networks instead.
FIT_CORPUS_SEED = 0


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingWorkload:
    name: str
    governor: str
    policy: str
    arrivals: str                 # "poisson" or "bursty"
    rate_rps: float               # poisson rate / bursty calm-state rate
    n_requests: int
    slo_s: float
    queue_capacity: int = 64
    faults: str = "none"
    sparsities: Tuple[float, ...] = ()
    sparsity_edges: Tuple[float, ...] = (0.0,)
    #: Layer that must hold the largest share of the traced loop.
    lead_layer: Optional[str] = None
    kind: str = field(default="serving", init=False)


@dataclass(frozen=True)
class FitWorkload:
    name: str
    n_networks: int
    n_held_out: int
    kind: str = field(default="fit", init=False)
    lead_layer: Optional[str] = "datasets"


WORKLOADS = {
    w.name: w for w in (
        ServingWorkload(
            name="serve-steady", governor="powerlens", policy="fifo",
            arrivals="poisson", rate_rps=1.5, n_requests=240, slo_s=10.0,
            lead_layer="simulator"),
        ServingWorkload(
            name="serve-overload", governor="powerlens", policy="slo",
            arrivals="poisson", rate_rps=200.0, n_requests=8000,
            slo_s=20.0, queue_capacity=100000, lead_layer="scheduler"),
        ServingWorkload(
            name="serve-adaptive", governor="powerlens-family-adaptive",
            policy="energy", arrivals="bursty", rate_rps=0.42,
            n_requests=240, slo_s=10.0,
            faults="switch_drop_rate=0.05,telemetry_drop_rate=0.02",
            sparsities=(0.2, 0.4, 0.6), sparsity_edges=(0.0, 0.3, 0.6)),
        FitWorkload(name="fit-plan", n_networks=100, n_held_out=88),
    )
}

#: Bursty arrivals: a two-state Markov-modulated Poisson process whose
#: burst state arrives BURST_FACTOR times faster; with these holding
#: times the mean rate is 2.4x the calm rate.
BURST_FACTOR, MEAN_CALM_S, MEAN_BURST_S = 8.0, 1.0, 0.25


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _arrival_times(w: ServingWorkload, rng: random.Random) -> List[float]:
    times: List[float] = []
    t = 0.0
    if w.arrivals == "poisson":
        while len(times) < w.n_requests:
            t += rng.expovariate(w.rate_rps)
            times.append(t)
        return times
    bursting = False
    state_end = rng.expovariate(1.0 / MEAN_CALM_S)
    while len(times) < w.n_requests:
        rate = w.rate_rps * (BURST_FACTOR if bursting else 1.0)
        t_next = t + rng.expovariate(rate)
        if t_next >= state_end:
            t = state_end
            bursting = not bursting
            hold = MEAN_BURST_S if bursting else MEAN_CALM_S
            state_end = t + rng.expovariate(1.0 / hold)
            continue
        t = t_next
        times.append(t)
    return times


def build_trace(w: ServingWorkload, seed: int) -> ArrivalTrace:
    """Seeded trace of exactly ``n_requests`` requests.

    Models come in shuffled rounds of the 12 Table-1 networks, so each
    is drawn uniformly yet every run carries the same mix; a fixed
    request count keeps the work per run comparable across seeds."""
    times = _arrival_times(w, random.Random(f"perfbench/{seed}/arrivals"))
    rng_m = random.Random(f"perfbench/{seed}/models")
    models: List[str] = []
    while len(models) < w.n_requests:
        round_ = list(PAPER_MODELS)
        rng_m.shuffle(round_)
        models.extend(round_)
    rng_s = random.Random(f"perfbench/{seed}/sparsity")
    requests = tuple(
        Request(request_id=i, t_arrival=times[i], model=models[i],
                images=IMAGES_PER_REQUEST, slo_latency_s=w.slo_s,
                sparsity=rng_s.choice(w.sparsities) if w.sparsities
                else 0.0)
        for i in range(w.n_requests))
    return ArrivalTrace(kind=w.arrivals, seed=seed, requests=requests,
                        duration_s=times[-1])


# ----------------------------------------------------------------------
# repetition results
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """One repetition: timings, a determinism digest, check failures,
    and (traced repetitions only) per-layer numbers."""

    setup_s: float
    loop_s: float
    items: int
    digest: str
    errors: List[str]
    outcome: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)
    samples_ms: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def _serving_setup(w: ServingWorkload, seed: int
                   ) -> Tuple[Fleet, ArrivalTrace, float]:
    faults = None if w.faults == "none" else FaultProfile.parse(w.faults)
    configs = [DeviceConfig(name=f"{p}-{i}", platform=p)
               for i, p in enumerate(DEVICES)]
    fleet = Fleet.build(configs, governor=w.governor, fleet_seed=seed,
                        faults=faults, sparsity_edges=w.sparsity_edges)
    trace = build_trace(w, seed)
    t0 = perf()
    fleet.prewarm(trace.models, sorted({r.images for r in trace.requests}))
    return fleet, trace, perf() - t0


def _scheduler_config(w: ServingWorkload) -> SchedulerConfig:
    return SchedulerConfig(policy=w.policy, max_batch=MAX_BATCH,
                           queue_capacity=w.queue_capacity,
                           recovery=RecoveryConfig())


def _queue_shape(events: List[dict]) -> Tuple[float, int, float]:
    """(mean depth seen at dispatch, max depth, mean batch) replayed
    from the canonical event log."""
    depth = depth_max = 0
    at_dispatch: List[int] = []
    batches: List[int] = []
    for e in events:
        kind = e["event"]
        if kind == "admit":
            depth += 1
            depth_max = max(depth_max, depth)
        elif kind == "drop" and e["reason"] != "queue_full":
            depth -= 1
        elif kind == "dispatch":
            at_dispatch.append(depth)
            batches.append(e["n_requests"])
            depth -= e["n_requests"]
    return (statistics.fmean(at_dispatch) if at_dispatch else 0.0,
            depth_max,
            statistics.fmean(batches) if batches else 0.0)


def _install_serving_clock(clock: LayerClock, fleet: Fleet,
                           scheduler: FleetScheduler) -> None:
    clock.on_instance(scheduler, "run", "scheduler")
    clock.on_instance(scheduler.policy, "select_batch", "queueing")
    clock.on_instance(fleet, "prewarm", "fleet.prewarm")
    for device in fleet.devices:
        clock.on_instance(device, "predict", "fleet.predict")
        clock.on_instance(device.plan_cache, "get_or_build",
                          "fleet.plan_lookup")
        clock.on_instance(device, "execute", "fleet.execute")
    clock.on_class(InferenceSimulator, "run", "simulator")
    clock.on_class(EnergyLedger, "from_result", "ledger")
    clock.on_class(SLOReport, "from_run", "report")


def serving_rep(w: ServingWorkload, seed: int, traced: bool) -> Rep:
    gc.collect()
    t0 = perf()
    fleet, trace, prewarm_s = _serving_setup(w, seed)
    setup_s = perf() - t0
    scheduler = FleetScheduler(fleet, _scheduler_config(w))
    clock = LayerClock()
    cache_before = [(d.plan_cache.hits, d.plan_cache.misses)
                    for d in fleet.devices]
    with clock.installed():
        if traced:
            _install_serving_clock(clock, fleet, scheduler)
        t0 = perf()
        result = scheduler.run(trace)
        loop_s = perf() - t0
    t0 = perf()
    log = result.event_log()
    eventlog_s = perf() - t0

    report = result.report
    errors = []
    if not report.conserved:
        errors.append("request conservation violated")
    if not report.energy_reconciled:
        errors.append(f"ledger energy off by {report.energy_rel_err:.3g}")
    latencies = sorted(o.latency_s for o in result.outcomes)
    met = sum(1 for o in result.outcomes if o.slo_ok)
    outcome = {
        "joules_per_request": report.joules_per_request,
        "slo_attainment": met / report.arrived,
        "failed_share": report.dropped / report.arrived,
        "latency_mean_s": report.latency_mean_s,
        "latency_p50_s": nearest_rank(latencies, 0.50),
        "latency_p95_s": nearest_rank(latencies, 0.95),
        "completed": float(report.completed),
    }
    rep = Rep(setup_s=setup_s, loop_s=loop_s, items=len(trace),
              digest=hashlib.sha256(log.encode()).hexdigest(),
              errors=errors, outcome=outcome)
    if not traced:
        return rep

    s = clock.self_s
    n = clock.calls
    jobs = len(result.dispatches)
    hits = sum(d.plan_cache.hits for d in fleet.devices) \
        - sum(h for h, _ in cache_before)
    misses = sum(d.plan_cache.misses for d in fleet.devices) \
        - sum(m for _, m in cache_before)
    depth_mean, depth_max, batch_mean = _queue_shape(result.events)
    events = len(result.events)
    attributed = sum(s[layer] for layer in SERVING_LAYERS)
    rep.layers = {
        "scheduler.self_s": s["scheduler"],
        "scheduler.events": events,
        "scheduler.self_us_per_event": s["scheduler"] / events * 1e6,
        "queueing.select_s": s["queueing"],
        "queueing.calls": n["queueing"],
        "queueing.depth_mean": depth_mean,
        "queueing.depth_max": depth_max,
        "queueing.batch_mean": batch_mean,
        "fleet.predict_s": s["fleet.predict"],
        "fleet.predict_calls": n["fleet.predict"],
        "fleet.plan_lookup_s": s["fleet.plan_lookup"],
        "fleet.plan_lookups": n["fleet.plan_lookup"],
        "fleet.plan_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "fleet.execute_s": s["fleet.execute"],
        "fleet.jobs": jobs,
        "fleet.probes": n["fleet.execute"] - jobs,
        "fleet.prewarm_s": prewarm_s,
        "fleet.anomalies": sum(d.anomaly_count for d in fleet.devices),
        "fleet.drained_device_s": report.drained_device_seconds,
        "simulator.run_s": s["simulator"],
        "simulator.runs": n["simulator"],
        "simulator.ms_per_run": s["simulator"] / n["simulator"] * 1e3
        if n["simulator"] else 0.0,
        "ledger.s": s["ledger"],
        "ledger.calls": n["ledger"],
        "governor.switches_per_job": statistics.fmean(
            r.switch_count for r in result.dispatches) if jobs else 0.0,
        "governor.replans_adopted": sum(
            1 for r in result.dispatches if r.replan_action == "adopt"),
        "report.s": s["report"],
        "eventlog.s": eventlog_s,
        "unattributed_s": loop_s - attributed,
    }
    rep.shares = {layer: s[layer] / loop_s for layer in SERVING_LAYERS}
    rep.shares["unattributed"] = (loop_s - attributed) / loop_s
    return rep


# ----------------------------------------------------------------------
# offline fit + plan
# ----------------------------------------------------------------------
def _fit_setup() -> Tuple[PowerLens, list]:
    lens = PowerLens(jetson_tx2())
    return lens, [build_model(m) for m in PAPER_MODELS]


def held_out_graphs(w: FitWorkload, seed: int) -> list:
    """Random networks from a generator seed disjoint from the training
    corpus (which spawns its seeds from :data:`FIT_CORPUS_SEED`)."""
    return RandomDNNGenerator(seed=10**9 + seed).generate_many(w.n_held_out)


def _analyze(lens: PowerLens, graphs: list
             ) -> Tuple[List[str], List[float], list]:
    fingerprints, ms, plans = [], [], []
    for graph in graphs:
        t0 = perf()
        plan = lens.analyze(graph)
        ms.append((perf() - t0) * 1e3)
        fingerprints.append(plan.plan.fingerprint())
        plans.append(plan)
    return fingerprints, ms, plans


def _plan_energy(lens: PowerLens, graphs: list, plans: list
                 ) -> Tuple[float, float]:
    """(mean analytic joules per batch, mean EE gain over running the
    whole network at the top level) across the given plans."""
    batch = lens.config.batch_size
    top = lens.platform.n_levels - 1
    joules, gains = [], []
    for graph, plan in zip(graphs, plans):
        blocks = [list(b.op_indices) for b in plan.view.blocks]
        e_plan, _ = lens.evaluator.plan_energy_time(graph, blocks,
                                                    plan.levels, batch)
        every_op = [list(range(len(graph.compute_nodes())))]
        e_top, _ = lens.evaluator.plan_energy_time(graph, every_op, [top],
                                                   batch)
        joules.append(e_plan)
        gains.append(e_top / e_plan - 1.0)
    return statistics.fmean(joules), statistics.fmean(gains)


def fit_setup_s(w: FitWorkload) -> List[float]:
    """Time ``FIT_SETUPS`` independent set-ups (PowerLens construction
    plus the Table-1 graph builds)."""
    times = []
    for _ in range(FIT_SETUPS):
        gc.collect()
        t0 = perf()
        _fit_setup()
        times.append(perf() - t0)
    return times


def fit_rep(w: FitWorkload, traced: bool,
            held_out: Optional[list] = None) -> Rep:
    gc.collect()
    t0 = perf()
    lens, graphs = _fit_setup()
    setup_s = perf() - t0
    clock = LayerClock()
    with clock.installed():
        if traced:
            clock.on_class(DatasetGenerator, "generate", "datasets")
            clock.on_class(HyperparamPredictor, "fit",
                           "predictors.hyperparam")
            clock.on_class(DecisionModel, "fit", "predictors.decision")
        t0 = perf()
        summary = lens.fit(n_networks=w.n_networks, seed=FIT_CORPUS_SEED,
                           n_jobs=1, use_cache=False)
        loop_s = perf() - t0
    fingerprints, ms, plans = _analyze(lens, graphs)
    joules, gain = _plan_energy(lens, graphs, plans)
    if held_out:
        more, more_ms, _ = _analyze(lens, held_out)
        fingerprints += more
        ms += more_ms

    errors = []
    gen = summary.generation
    if gen.n_quarantined:
        errors.append(f"{gen.n_quarantined} training networks quarantined")
    if len(plans) != len(graphs) or any(not p.levels for p in plans):
        errors.append("a Table-1 network produced no plan")
    acc = summary.decision_report.test_accuracy
    outcome = {"decision_acc": acc, "plan_ee_gain": gain,
               "plan_joules": joules}
    digest = hashlib.sha256(
        "\n".join(fingerprints[:len(graphs)] + [repr(acc)]).encode()
    ).hexdigest()
    rep = Rep(setup_s=setup_s, loop_s=loop_s, items=w.n_networks,
              digest=digest, errors=errors, outcome=outcome,
              samples_ms=ms)
    if not traced:
        return rep

    s = clock.self_s
    stages = gen.stage_seconds
    overhead = dict(lens.overhead_report().workflow)
    attributed = sum(s[layer] for layer in FIT_LAYERS)
    rep.layers = {
        "datasets.generate_s": s["datasets"],
        "datasets.networks_per_s": gen.n_networks / s["datasets"],
        "datasets.blocks": gen.n_blocks,
        "labeling.distance_s": stages.get("distance", 0.0),
        "labeling.cluster_s": stages.get("cluster", 0.0),
        "labeling.evaluate_s": stages.get("evaluate", 0.0),
        "predictors.hyperparam_fit_s": s["predictors.hyperparam"],
        "predictors.decision_fit_s": s["predictors.decision"],
        "predictors.decision_epochs": summary.decision_report.epochs,
        "pipeline.features_ms": overhead.get("feature extraction", 0.0)
        * 1e3,
        "pipeline.hyperparam_ms":
            overhead.get("hyperparameter prediction", 0.0) * 1e3,
        "pipeline.cluster_ms": overhead.get("clustering", 0.0) * 1e3,
        "pipeline.decision_ms":
            overhead.get("decision of each block", 0.0) * 1e3,
        "unattributed_s": loop_s - attributed,
    }
    rep.shares = {layer: s[layer] / loop_s for layer in FIT_LAYERS}
    rep.shares["unattributed"] = (loop_s - attributed) / loop_s
    return rep
