"""Simulated device fleet: heterogeneous boards behind one scheduler.

Each :class:`SimulatedDevice` wraps one :class:`~repro.hw.platform.\
PlatformSpec` (TX2, AGX, ...) plus everything the serving layer needs
to treat it as an independent worker:

* a **plan cache** — per-device frequency plans built analytically
  (NeuralPower-style closed-form oracle, no fitted lens required) and
  keyed by slot: graph fingerprint, exact batch size and sparsity
  bucket.  The platform and planner parameters are fixed for a
  device's life, so the slot names the plan;
* a **dispatch-time cost model** — predicted wall time and joules of a
  job on this device from the same
  :class:`~repro.hw.analytic.ProfileTable`, which is what lets the
  scheduler route latency-critical work to the fast board and
  energy-sensitive work to the frugal one (SparseDVFS's batch-aware
  admission: predictions are per ``(graph, batch_size)``);
* a **health ledger** — an :class:`~repro.obs.anomaly.AnomalyDetector`
  rides along on every run; once a device has accumulated
  ``unhealthy_after`` anomalies it is *drained* and the scheduler stops
  routing to it.  With a :class:`RecoveryConfig` the drain is no longer
  terminal: the device walks a deterministic recovery state machine
  (drained → cooldown with exponential backoff → probe dispatch →
  probation → re-admitted, back to drained on probe failure or a
  probation anomaly) driven by the scheduler's event loop;
* per-device **observability** — an enabled
  :class:`~repro.obs.metrics.MetricsRegistry` the fleet later merges
  into the single scheduler-wide registry.

Everything is deterministic: per-job simulator and fault seeds are
derived with sha256 from ``(fleet seed, device name, dispatch seq)``,
never from wall clock or ``hash()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph import Graph
from repro.governors import (
    GOVERNOR_REGISTRY,
    FeatureBuckets,
    FrequencyPlan,
    PresetGovernor,
    ReplanPolicy,
    make_governor,
)
from repro.governors.family import analytic_plan
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import FaultProfile
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator, \
    op_works_key
from repro.obs import Observability, NULL_TRACER
from repro.obs.anomaly import AnomalyConfig, AnomalyDetector
from repro.obs.ledger import EnergyLedger
from repro.obs.metrics import MetricsRegistry

__all__ = ["analytic_plan",
           "PlanCache", "DeviceConfig", "DispatchRecord",
           "RecoveryConfig", "SimulatedDevice", "Fleet", "derive_seed",
           "SERVING_GOVERNORS", "FAMILY_GOVERNORS"]

#: Governor names the serving layer accepts: every registry governor
#: plus the preset PowerLens runtime fed by the analytic planner, its
#: self-healing variant (ledger-driven replanning between jobs), and
#: the input-aware family variants (per-device plan selection keyed by
#: batch and activation-sparsity bucket).
SERVING_GOVERNORS = tuple(sorted(GOVERNOR_REGISTRY)) \
    + ("powerlens", "powerlens-adaptive",
       "powerlens-family", "powerlens-family-adaptive")

#: Serving governors that bucket jobs by activation sparsity.
FAMILY_GOVERNORS = ("powerlens-family", "powerlens-family-adaptive")


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary identity parts (sha256, never
    ``hash()`` — the latter is salted per process)."""
    blob = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


# ``analytic_plan`` (the closed-form per-block planner) lives with the
# plan-family machinery in :mod:`repro.governors.family` — it is the
# family member builder — and is re-exported here (``__all__``) because
# the serving layer is its historical home.


class PlanCache:
    """Per-device plan store, keyed by slot ``(graph fingerprint,
    batch size, repr(sparsity))``.

    Plans are built by :func:`analytic_plan` at its default latency
    slack and block size, and the evaluator's platform is fixed for the
    cache's life, so a slot names exactly one plan.  The sparsity enters
    by ``repr``, so ``0.0`` and ``-0.0`` keep distinct slots.
    """

    def __init__(self, evaluator: AnalyticEvaluator) -> None:
        self.evaluator = evaluator
        self.hits = 0
        self.misses = 0
        self._plans: Dict[Tuple[str, int, str], FrequencyPlan] = {}

    def get_or_build(self, graph: Graph, batch_size: int,
                     sparsity: float = 0.0) -> FrequencyPlan:
        slot = (graph.fingerprint(), int(batch_size), repr(float(sparsity)))
        plan = self._plans.get(slot)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = self._plans[slot] = analytic_plan(
            self.evaluator, graph, batch_size, sparsity=sparsity)
        return plan

    def __len__(self) -> int:
        return len(self._plans)


@dataclass(frozen=True)
class DeviceConfig:
    """One fleet member: a platform preset plus simulator knobs."""

    name: str                     # unique fleet id, e.g. "tx2-0"
    platform: str = "tx2"         # preset key for hw.platform.get_platform
    sample_period: float = 0.02
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name required")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the drained-device recovery state machine.

    A drained device waits out a cooldown (``cooldown_s`` doubled —
    ``backoff_factor`` — per consecutive failed recovery, capped at
    ``max_cooldown_s``), then runs one canonical *probe* job.  A clean
    probe re-admits the device on **probation**: it serves real traffic
    again, but any anomaly within its next ``probation_jobs`` jobs
    re-drains it immediately (the regular ``unhealthy_after`` budget
    only applies after probation).  ``max_attempts`` failed probes /
    probation re-drains in a row make the drain permanent, which also
    bounds the event loop.
    """

    cooldown_s: float = 0.5
    backoff_factor: float = 2.0
    max_cooldown_s: float = 8.0
    probation_jobs: int = 2
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_cooldown_s < self.cooldown_s:
            raise ValueError("max_cooldown_s must be >= cooldown_s")
        if self.probation_jobs < 1:
            raise ValueError("probation_jobs must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def cooldown_after(self, attempts: int) -> float:
        """Backoff before probe attempt number ``attempts`` (0-based)."""
        return min(self.max_cooldown_s,
                   self.cooldown_s * self.backoff_factor ** attempts)


@dataclass
class DispatchRecord:
    """Outcome of one job executed on one device."""

    device: str
    job_name: str
    duration_s: float
    energy_j: float                # simulator trace total
    ledger_energy_j: float         # attributed (EnergyLedger) total
    ledger_ok: bool                # reconciliation within 1e-9
    switch_count: int
    new_anomalies: int
    replan_action: str = ""        # adaptive governor's observe verdict
    plan_fingerprint: str = ""     # executed plan-family member ("" =
                                   # registry governor, no preset plan)
    sparsity_bucket: float = 0.0   # bucket the plan was selected for


class SimulatedDevice:
    """One board of the fleet (see module docstring)."""

    def __init__(self, config: DeviceConfig, governor: str = "powerlens",
                 fleet_seed: int = 0,
                 faults: Optional[FaultProfile] = None,
                 anomaly_config: Optional[AnomalyConfig] = None,
                 unhealthy_after: int = 1,
                 sparsity_edges: Sequence[float] = (0.0,)) -> None:
        if governor not in SERVING_GOVERNORS:
            raise KeyError(
                f"unknown serving governor {governor!r}; choose from "
                f"{', '.join(SERVING_GOVERNORS)}")
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        self.config = config
        self.name = config.name
        self.platform = get_platform(config.platform)
        self.governor_name = governor
        self.fleet_seed = fleet_seed
        self.faults = faults if faults is not None and not faults.is_zero \
            else None
        self.unhealthy_after = unhealthy_after
        # Family mode: plans are additionally keyed by the activation
        # sparsity *bucket* of each job.  ``sparsity_edges`` are the
        # bucket lower edges (each edge doubling as the representative
        # sparsity its plans are built at; 0.0 is always one, so every
        # job lands in a bucket).  Plans are built per exact batch size,
        # so the batch axis is not bucketed.  Non-family governors keep
        # the single dense bucket so every key, plan and event they
        # produce stays byte-identical to the pre-family serving layer.
        edges = tuple(sorted({float(s) for s in sparsity_edges}))
        if edges and edges[0] > 0.0:
            edges = (0.0,) + edges
        self.buckets = FeatureBuckets((1,), edges)
        if governor not in FAMILY_GOVERNORS:
            self.buckets = FeatureBuckets((1,))
        self.evaluator = AnalyticEvaluator(self.platform)
        self.plan_cache = PlanCache(self.evaluator)
        # Per-device metrics, merged fleet-wide after the run; the
        # tracer stays off (span timing would not be deterministic).
        self.obs = Observability(tracer=NULL_TRACER,
                                 metrics=MetricsRegistry())
        self.anomaly = AnomalyDetector(config=anomaly_config,
                                       obs=self.obs)
        # Shared across dispatches: the simulator memoizes each op's
        # timing/power row per (fingerprint, batch) here, so a device
        # serving the same models repeatedly never re-derives them
        # (values are byte-identical either way; see
        # repro.hw.analytic.simulator_op_rows).
        self._op_row_cache: dict = {}
        # The PowerLens names run the preset runtime; each dispatch
        # hands it the plan of the job's slot (see execute).
        self._preset: Optional[PresetGovernor] = None
        if governor in GOVERNOR_REGISTRY:
            self._governor = make_governor(governor)
        else:
            replan = (ReplanPolicy(self.evaluator, obs=self.obs)
                      if governor.endswith("-adaptive") else None)
            self._governor = self._preset = PresetGovernor(
                name=governor, metrics=self.obs.metrics, replan=replan)
        # -- scheduler-visible state --------------------------------------
        self.busy = False
        self.drained = False
        self.jobs_done = 0
        self.requests_served = 0
        self.busy_time_s = 0.0
        self.energies_j: List[float] = []
        self.ledger_energies_j: List[float] = []
        self.anomaly_count = 0
        self.records: List[DispatchRecord] = []
        self._predictions: Dict[Tuple[str, int], Tuple[float, float]] = {}
        # -- recovery state machine (driven by the scheduler) --------------
        self.recovery_state = "active"
        self.drain_count = 0
        self.recovery_attempts = 0
        self.readmissions = 0
        self.probation_left = 0
        self.anomaly_floor = 0
        self.drained_since: Optional[float] = None
        self.drained_seconds = 0.0

    # ------------------------------------------------------------------
    # planning / prediction
    # ------------------------------------------------------------------
    def sparsity_bucket(self, sparsity: float) -> float:
        """Representative sparsity the plans for ``sparsity`` are built
        at: the largest configured edge not exceeding it (always 0.0
        for non-family governors)."""
        return self.buckets.sparsity_edges[
            self.buckets.sparsity_bucket(sparsity)]

    def prewarm(self, graphs: Sequence[Graph], batch_sizes:
                Sequence[int]) -> None:
        """Build every plan this device could need (pure, idempotent).

        Also seeds the simulator's op-walk memo with the walk planning
        just used, so the first dispatch of each model skips re-walking
        its graph (the walk is a pure function of graph and platform)."""
        for graph in graphs:
            for batch in batch_sizes:
                for edge in self.buckets.sparsity_edges:
                    self.plan_cache.get_or_build(graph, batch, edge)
                self.predict(graph, batch)
            self._op_row_cache[op_works_key(graph)] = \
                self.evaluator.latency.graph_work(graph)

    def predict(self, graph: Graph,
                batch_size: int) -> Tuple[float, float]:
        """(seconds, joules) for ONE batch of ``graph`` on this device,
        from the analytic plan — the scheduler's routing cost model.

        Deliberately dense (sparsity 0.0) even in family mode: routing
        compares devices against each other, and the dense table ranks
        them the same while keeping predictions — and therefore routing
        and the event log — independent of the configured bucket grid."""
        key = (graph.fingerprint(), int(batch_size))
        cached = self._predictions.get(key)
        if cached is not None:
            return cached
        plan = self.plan_cache.get_or_build(graph, batch_size)
        table = self.evaluator.profile_table(graph, batch_size)
        energy, time = table.plan_energy_time(
            plan.op_blocks(table.n_ops), [s.level for s in plan.steps])
        self._predictions[key] = (time, energy)
        return time, energy

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self.drained

    @property
    def idle(self) -> bool:
        return not self.busy

    @property
    def fresh_anomalies(self) -> int:
        """Anomalies accumulated since the last re-admission — the
        count the ``unhealthy_after`` drain budget applies to."""
        return self.anomaly_count - self.anomaly_floor

    # ------------------------------------------------------------------
    # recovery state machine (transitions invoked by the scheduler;
    # timing — cooldown scheduling, probe dispatch — lives in the
    # scheduler's event loop so virtual time stays in one place)
    # ------------------------------------------------------------------
    def begin_drain(self, t: float) -> None:
        """active/probation → drained at virtual time ``t``."""
        self.drained = True
        self.recovery_state = "drained"
        self.drain_count += 1
        if self.drained_since is None:
            self.drained_since = t

    def begin_cooldown(self) -> None:
        """drained → cooldown (a probe has been scheduled)."""
        self.recovery_state = "cooldown"

    def begin_probation(self, t: float, probation_jobs: int) -> None:
        """cooldown → probation: the probe ran clean, serve real
        traffic again under a zero-tolerance anomaly budget."""
        self.drained = False
        self.recovery_state = "probation"
        self.probation_left = probation_jobs
        self.readmissions += 1
        self.anomaly_floor = self.anomaly_count
        if self.drained_since is not None:
            self.drained_seconds += max(0.0, t - self.drained_since)
            self.drained_since = None

    def complete_probation(self) -> None:
        """probation → active: the device survived its probation jobs;
        the backoff ladder resets."""
        self.recovery_state = "active"
        self.probation_left = 0
        self.recovery_attempts = 0

    def finalize_drain_accounting(self, t_end: float) -> None:
        """Close the drained-seconds interval of a still-drained device
        at the end of the trace."""
        if self.drained_since is not None:
            self.drained_seconds += max(0.0, t_end - self.drained_since)
            self.drained_since = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, job: InferenceJob,
                dispatch_seq: int) -> DispatchRecord:
        """Run ``job`` through the full governor/simulator stack.

        Virtual-time execution: the simulation happens synchronously
        here and the *scheduler* advances its clock by the returned
        duration.  Seeds are derived per dispatch so repeated runs of
        the same trace replay the same noise and faults.
        """
        seed = derive_seed(self.fleet_seed, self.name, dispatch_seq)
        faults = None
        if self.faults is not None:
            faults = replace(self.faults, seed=derive_seed(
                self.fleet_seed, self.name, dispatch_seq, "faults"))
        plan = None
        sbucket = self.sparsity_bucket(job.sparsity)
        if self._preset is not None:
            # The job's slot is its graph at the grid point (batch,
            # sparsity bucket).  The plan cache serves only slots the
            # governor holds no written-back correction for.
            plan = self._preset.slot_plan(job.graph.name,
                                          job.batch_size, sbucket)
            if plan is None:
                plan = self.plan_cache.get_or_build(
                    job.graph, job.batch_size, sbucket)
            self._preset.add_plan(plan, job.batch_size, sbucket)
        sim = InferenceSimulator(
            self.platform,
            sample_period=self.config.sample_period,
            noise_std=self.config.noise_std,
            seed=seed,
            keep_trace=True,
            keep_samples=False,
            faults=faults,
            obs=self.obs,
            anomaly=self.anomaly,
            op_row_cache=self._op_row_cache,
        )
        anomalies_before = len(self.anomaly.anomalies)
        result = sim.run([job], self._governor)
        new_anomalies = len(self.anomaly.anomalies) - anomalies_before
        replan_action = ""
        if self._preset is not None and self._preset.replan is not None:
            # Replanning needs misprediction flags, so this ledger
            # carries the evaluator; the static path stays
            # byte-identical to its pre-adaptive form.
            ledger = EnergyLedger.from_result(
                result, plan=plan, graph=job.graph,
                evaluator=self.evaluator,
                batch_size=job.batch_size, sparsity=job.sparsity)
            replan_action = self._preset.observe_job(
                job.graph, job.batch_size, ledger,
                new_anomalies=new_anomalies,
                sparsity=job.sparsity)
        else:
            ledger = EnergyLedger.from_result(result, plan=plan,
                                              graph=job.graph)
        record = DispatchRecord(
            device=self.name,
            job_name=job.label(),
            duration_s=result.report.total_time,
            energy_j=result.trace.total_energy,
            ledger_energy_j=ledger.total_energy_j,
            ledger_ok=ledger.reconciliation.ok,
            switch_count=result.switch_count,
            new_anomalies=new_anomalies,
            replan_action=replan_action,
            plan_fingerprint=(plan.fingerprint() if plan is not None
                              else ""),
            sparsity_bucket=sbucket,
        )
        self.jobs_done += 1
        self.busy_time_s += record.duration_s
        self.energies_j.append(record.energy_j)
        self.ledger_energies_j.append(record.ledger_energy_j)
        self.anomaly_count += new_anomalies
        self.records.append(record)
        return record


class Fleet:
    """The device pool plus the shared model-graph store."""

    def __init__(self, devices: Sequence[SimulatedDevice]) -> None:
        if not devices:
            raise ValueError("a fleet needs at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self.devices = list(devices)
        self.graphs: Dict[str, Graph] = {}

    @classmethod
    def build(cls, configs: Sequence[DeviceConfig], governor: str,
              fleet_seed: int = 0,
              faults: Optional[FaultProfile] = None,
              anomaly_config: Optional[AnomalyConfig] = None,
              unhealthy_after: int = 1,
              sparsity_edges: Sequence[float] = (0.0,)) -> "Fleet":
        return cls([
            SimulatedDevice(cfg, governor, fleet_seed, faults,
                            anomaly_config, unhealthy_after,
                            sparsity_edges)
            for cfg in configs
        ])

    def __len__(self) -> int:
        return len(self.devices)

    def graph_for(self, model: str) -> Graph:
        graph = self.graphs.get(model)
        if graph is None:
            from repro.models import build_model

            graph = self.graphs[model] = build_model(model)
        return graph

    def add_graph(self, graph: Graph) -> None:
        """Register a pre-built graph (tests use tiny synthetic CNNs
        instead of the Table-1 zoo)."""
        self.graphs[graph.name] = graph

    def healthy_idle(self) -> List[SimulatedDevice]:
        """Dispatch candidates in fixed device order (deterministic)."""
        return [d for d in self.devices if d.healthy and d.idle]

    def prewarm(self, models: Sequence[str],
                batch_sizes: Sequence[int]) -> None:
        """Build all plan caches up front."""
        graphs = [self.graph_for(m) for m in models]
        for device in self.devices:
            device.prewarm(graphs, batch_sizes)

    def merged_metrics(self) -> MetricsRegistry:
        """Fold every device's registry into one fleet-wide registry."""
        merged = MetricsRegistry()
        for device in self.devices:
            merged.merge(device.obs.metrics)
        return merged
