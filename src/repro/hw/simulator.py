"""Discrete-event inference simulator with pluggable DVFS governors.

The simulator executes inference jobs the way the paper's testbed does:
each batch is a CPU preprocessing stage (image decode/resize) followed by
the GPU operator sequence of the network.  Execution is piecewise
constant in (frequency, power); reactive governors observe sampled
telemetry windows and may retarget the GPU level at window boundaries,
while PowerLens-style governors retarget at operator boundaries
(instrumentation points).  Energy is integrated exactly over segments.

DVFS actuation cost model (see :mod:`repro.hw.dvfs`): the GPU stalls for
``dvfs_stall_s`` and the host CPU stays busy for ``dvfs_latency_s`` after
each switch; during that window CPU power is charged at its busy level.

Fault injection (see :mod:`repro.hw.faults`): construct the simulator
with a ``faults`` profile and every actuation flows through
:meth:`~repro.hw.dvfs.DVFSController.actuate` under a per-run
:class:`~repro.hw.faults.FaultInjector` — switches can drop, land short
or stall longer; external cap windows clamp the achievable level; and
telemetry windows can be dropped, stuck or noisy before a governor sees
them.  Governors that implement ``on_switch_result`` (the resilient
preset runtime) are told each command's achieved level and may answer
with a bounded number of immediate retry targets.  With no profile (or
an all-zero one) the fault layer is bypassed entirely, keeping traces,
telemetry and energy byte-identical to the pre-fault simulator.

Integration: one loop per phase serves every run.  Per-operator cost is
a lookup — :func:`~repro.hw.analytic.simulator_op_rows` rows memoized
per ``(graph fingerprint, batch)``, one per op, recomputed when the op
runs at a level other than the stored one — re-read whenever the level
changes, including mid-op at a window boundary.  Duration noise scales
the looked-up duration, thermal leakage is added per segment, and
faults act at actuation and window close, so the same loop carries
static and dynamic runs alike.  The rows hold exactly what the scalar
models return, so the result is byte-identical to re-deriving timing
and power segment by segment (``tests/simref.py`` keeps that reference
loop; ``tests/test_simulator_fastpath.py`` pins the identity).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.graph import Graph
from repro.hw.analytic import fill_simulator_op_row, simulator_op_rows
from repro.hw.dvfs import DVFSController, SwitchResult
from repro.hw.faults import (
    OUTCOME_DROPPED,
    FaultInjector,
    FaultProfile,
    FaultStats,
)
from repro.hw.perf import LatencyModel, OpWork, sparse_works
from repro.hw.platform import PlatformSpec
from repro.hw.power import PowerModel
from repro.hw.thermal import ThermalConfig, ThermalState
from repro.hw.telemetry import (
    KIND_CPU,
    KIND_GPU_OP,
    KIND_SWITCH,
    METRIC_SAMPLES,
    EnergyReport,
    TelemetrySample,
    Trace,
    TraceSegment,
    record_sample_metrics,
    report_from_trace,
)
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import SWITCH_LATENCY_BUCKETS

#: Hard bound on actuation attempts per decision point — a backstop so a
#: governor retry loop can never hang the simulator even at 100 % fault
#: rates (governors bound their own retries well below this).
MAX_ACTUATIONS_PER_POINT = 8


def op_works_key(graph: Graph) -> tuple:
    """Key of ``graph``'s dense op walk (``LatencyModel.graph_work``) in
    a simulator ``op_row_cache``; a caller that already holds the walk
    may store it there under this key before the first run."""
    return ("works", graph.fingerprint())


@dataclass(frozen=True)
class InferenceJob:
    """One inference task: ``n_batches`` batches of ``batch_size`` images
    through ``graph``, each preceded by CPU preprocessing.

    ``sparsity`` is the job's activation-sparsity fraction; sparsity-
    sensitive operators shrink per :func:`repro.hw.perf.sparse_works`.
    The default ``0.0`` leaves every workload byte-identical to the
    pre-sparsity simulator.
    """

    graph: Graph
    batch_size: int = 16
    n_batches: int = 1
    cpu_work_per_image: float = 1.2e8
    name: str = ""
    sparsity: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        if not 0.0 <= self.cpu_work_per_image < math.inf:
            raise ValueError("cpu_work_per_image must be finite and >= 0")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")

    @property
    def images(self) -> int:
        return self.batch_size * self.n_batches

    def label(self) -> str:
        return self.name or self.graph.name


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    report: EnergyReport
    trace: Trace
    samples: List[TelemetrySample]
    switch_count: int
    reversal_count: int
    per_job: List[EnergyReport] = field(default_factory=list)
    peak_temperature: float = 0.0
    throttle_time: float = 0.0
    #: Fault-injection accounting for the run (None without a profile).
    fault_stats: Optional[FaultStats] = None

    @property
    def energy_efficiency(self) -> float:
        return self.report.energy_efficiency


class _SampleWindow:
    """Accumulates window statistics between sampling boundaries."""

    __slots__ = ("busy_gpu", "busy_cpu", "cu", "mu", "gpu_e", "cpu_e",
                 "total_e", "start")

    def __init__(self, start: float) -> None:
        self.reset(start)

    def reset(self, start: float) -> None:
        self.start = start
        self.busy_gpu = 0.0
        self.busy_cpu = 0.0
        self.cu = 0.0
        self.mu = 0.0
        self.gpu_e = 0.0
        self.cpu_e = 0.0
        self.total_e = 0.0


class InferenceSimulator:
    """Runs inference jobs on a platform under a governor.

    Parameters
    ----------
    platform:
        Hardware model to execute on.
    sample_period:
        Telemetry window length in seconds (what reactive governors see).
    noise_std:
        Multiplicative lognormal-ish noise on operator durations,
        modelling run-to-run variation of the testbed ("each energy
        efficiency test is run 50 times on randomized inputs").
    keep_trace / keep_samples:
        Retain full segment/sample lists (disable for long task flows).
    faults:
        Optional :class:`~repro.hw.faults.FaultProfile`; a fresh
        injector is built per :meth:`run`, so repeated runs see the same
        deterministic fault sequence.  ``None`` (or a zero profile)
        bypasses the fault layer completely.
    anomaly:
        Optional online detector (duck-typed to
        :class:`repro.obs.anomaly.AnomalyDetector`): sees every
        delivered telemetry window and every actuation result,
        strictly observe-only — nothing it computes flows back into the
        run (pinned by ``tests/test_obs_anomaly.py``).
    op_row_cache:
        Optional dict shared across simulator instances that memoizes
        :func:`repro.hw.analytic.simulator_op_rows` per
        ``(graph fingerprint, batch_size)`` and each dense graph's op
        walk per fingerprint; every run times its GPU phase from these
        rows.  Fleet devices pass a per-device dict so repeated
        dispatches of the same model skip the scalar timing/power calls
        entirely; ``None`` gives each simulator a private cache.  Cached
        and uncached runs are byte-identical.
    """

    def __init__(self, platform: PlatformSpec, sample_period: float = 0.02,
                 noise_std: float = 0.0, seed: int = 0,
                 keep_trace: bool = True, keep_samples: bool = True,
                 thermal: Optional[ThermalConfig] = None,
                 faults: Optional[FaultProfile] = None,
                 obs: Optional[Observability] = None,
                 anomaly: Optional[object] = None,
                 op_row_cache: Optional[Dict] = None) -> None:
        if not 0.0 < sample_period < math.inf:
            raise ValueError("sample_period must be finite and positive")
        if not 0.0 <= noise_std < math.inf:
            raise ValueError("noise_std must be finite and >= 0")
        self.platform = platform
        self.sample_period = sample_period
        self.noise_std = noise_std
        self.keep_trace = keep_trace
        self.keep_samples = keep_samples
        self.thermal_config = thermal
        self.faults = faults
        self.latency = LatencyModel(platform)
        self.power = PowerModel(platform)
        self._rng = random.Random(seed)
        self.anomaly = anomaly
        # Observe-only.  Metric handles are resolved once here (not per
        # actuation/window) so the enabled path stays cheap and the
        # disabled path is a shared no-op object.
        self.obs = obs if obs is not None else NULL_OBS
        self._m_switch_stall = self.obs.metrics.histogram(
            "powerlens_dvfs_switch_stall_seconds",
            help="GPU stall charged per successful DVFS actuation",
            buckets=SWITCH_LATENCY_BUCKETS)
        self._m_switches = self.obs.metrics.counter(
            "powerlens_dvfs_switches_total")
        self._m_dropped_cmds = self.obs.metrics.counter(
            "powerlens_dvfs_commands_dropped_total")
        # Registered up front so the sample counter is exported even by
        # a run that closes no window (windows count through
        # record_sample_metrics).
        self.obs.metrics.counter(METRIC_SAMPLES)
        # Memoized model rows (see _op_row): the values the scalar
        # model calls produce, so cached and uncached runs are
        # byte-identical.
        self._op_row_cache: Dict = (op_row_cache if op_row_cache is not None
                                    else {})
        self._power_row_cache: Dict = {}

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[InferenceJob], governor) -> SimulationResult:
        """Execute ``jobs`` sequentially under ``governor``."""
        platform = self.platform
        self._governor = governor
        governor.reset(platform)
        if self.anomaly is not None:
            self.anomaly.reset(platform)
        dvfs = DVFSController(platform,
                              level=governor.initial_gpu_level())
        cpu_policy = getattr(governor, "cpu_policy", "ondemand")
        cpu_level = self._initial_cpu_level(cpu_policy)

        state = _RunState(
            trace=Trace(keep_segments=self.keep_trace),
            dvfs=dvfs,
            cpu_level=cpu_level,
            cpu_policy=cpu_policy,
            window=_SampleWindow(0.0),
            next_sample=self.sample_period,
            thermal=(ThermalState.initial(self.thermal_config)
                     if self.thermal_config else None),
            injector=FaultInjector.maybe(self.faults),
        )
        samples: List[TelemetrySample] = []
        per_job: List[EnergyReport] = []

        for job_idx, job in enumerate(jobs):
            e0, t0 = state.trace.total_energy, state.trace.total_time
            level = governor.on_job_start(job_idx, job)
            if level is not None:
                self._apply_switch(state, level)
            # The op walk is pure in the graph, so the shared cache
            # carries it across simulator instances (the fleet builds a
            # fresh simulator per dispatch); sparse jobs rescale it.
            fp = job.graph.fingerprint()
            works_key = op_works_key(job.graph)
            works = self._op_row_cache.get(works_key)
            if works is None:
                works = self._op_row_cache[works_key] = \
                    self.latency.graph_work(job.graph)
            works = sparse_works(works, job.sparsity)
            # Op rows are keyed by graph fingerprint; a sparse job gets
            # its own identity (its rescaled works differ), and dense
            # keys keep their plain shape.
            if job.sparsity > 0.0:
                fp = f"{fp}/s={job.sparsity!r}"
            for _batch in range(job.n_batches):
                self._run_cpu_phase(state, governor, job, samples)
                self._run_gpu_phase(state, governor, job, job_idx, fp,
                                    works, samples)
            per_job.append(EnergyReport(
                images=job.images,
                total_time=state.trace.total_time - t0,
                total_energy=state.trace.total_energy - e0,
                gpu_energy=0.0, cpu_energy=0.0, board_energy=0.0,
                switch_count=0,
            ))

        images = sum(j.images for j in jobs)
        report = report_from_trace(state.trace, images)
        return SimulationResult(
            report=report,
            trace=state.trace,
            samples=samples,
            switch_count=dvfs.switch_count(),
            reversal_count=dvfs.reversal_count(),
            per_job=per_job,
            peak_temperature=(state.thermal.peak_temperature
                              if state.thermal else 0.0),
            throttle_time=(state.thermal.throttle_time
                           if state.thermal else 0.0),
            fault_stats=(state.injector.stats
                         if state.injector is not None else None),
        )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _run_cpu_phase(self, state: "_RunState", governor,
                       job: InferenceJob,
                       samples: List[TelemetrySample]) -> None:
        """CPU preprocessing for one batch; GPU idles."""
        remaining = job.cpu_work_per_image * job.batch_size
        label = f"{job.label()}:cpu"
        glevel = state.dvfs.level
        gpu_p = self._gpu_idle_power(glevel)
        rate, cpu_p = self._cpu_phase_row(state.cpu_level)
        while remaining > 1e-9:
            t_rem = remaining / rate
            dt = min(t_rem, state.next_sample - state.t)
            dt = max(dt, 1e-12)
            self._emit(state, dt, KIND_CPU, gpu_p, cpu_p, 0.0, 0.0,
                       label=label)
            remaining -= rate * dt
            if state.t >= state.next_sample - 1e-12:
                self._close_window(state, governor, samples)
                if state.dvfs.level != glevel:
                    glevel = state.dvfs.level
                    gpu_p = self._gpu_idle_power(glevel)
                rate, cpu_p = self._cpu_phase_row(state.cpu_level)

    def _run_gpu_phase(self, state: "_RunState", governor,
                       job: InferenceJob, job_idx: int, fp: str,
                       works: Sequence[OpWork],
                       samples: List[TelemetrySample]) -> None:
        """GPU operator sequence for one batch, timed from the cached op
        rows."""
        batch = job.batch_size
        rows = self._op_row_cache.get((fp, batch))
        if rows is None:
            rows = self._op_row_cache[(fp, batch)] = simulator_op_rows(
                len(works))
        cpu_busy_p, cpu_idle_p = self._cpu_during_gpu_powers(
            state.cpu_level)
        for op_idx, work in enumerate(works):
            level = governor.on_op_start(job_idx, op_idx, work)
            if level is not None:
                self._apply_switch(state, level)
            noise = self._noise_factor()
            glevel = state.dvfs.level
            duration, gpu_p, cu, mu = self._op_row(rows, op_idx, work,
                                                   glevel, batch)
            duration *= noise
            name = work.name
            remaining = 1.0  # fraction of the op still to execute
            while remaining > 1e-12:
                t = state.t
                dt = min(remaining * duration, state.next_sample - t)
                dt = max(dt, 1e-12)
                cpu_p = (cpu_busy_p if t < state.cpu_busy_until
                         else cpu_idle_p)
                self._emit(state, dt, KIND_GPU_OP, gpu_p, cpu_p, cu, mu,
                           label=name, op_index=op_idx)
                remaining -= dt / duration
                if state.t >= state.next_sample - 1e-12:
                    self._close_window(state, governor, samples)
                    if state.dvfs.level != glevel:
                        # Frequency changed mid-op: the remaining
                        # fraction re-times at the new level.
                        glevel = state.dvfs.level
                        duration, gpu_p, cu, mu = self._op_row(
                            rows, op_idx, work, glevel, batch)
                        duration *= noise
                    cpu_busy_p, cpu_idle_p = self._cpu_during_gpu_powers(
                        state.cpu_level)

    # ------------------------------------------------------------------
    # memoized model rows: every value comes from the same scalar model
    # call a per-segment loop would make, so lookups change no bytes.
    # ------------------------------------------------------------------
    def _op_row(self, rows, op_idx: int, work: OpWork, level: int,
                batch_size: int):
        """``(duration, busy power, compute util, memory util)`` of one
        op at ``level``, computed only if the row holds another level."""
        levels, durs, gpu_ps, cus, mus = rows
        if levels[op_idx] != level:
            return fill_simulator_op_row(rows, op_idx, level, self.latency,
                                         self.power, work, batch_size)
        return durs[op_idx], gpu_ps[op_idx], cus[op_idx], mus[op_idx]

    def _cpu_phase_row(self, cpu_level: int):
        key = ("cpu_phase", cpu_level)
        row = self._power_row_cache.get(key)
        if row is None:
            cpu_freq = self.platform.cpu.freq_levels[cpu_level]
            row = (self.platform.cpu.ops_per_cycle * cpu_freq,
                   self.power.cpu_busy(cpu_freq))
            self._power_row_cache[key] = row
        return row

    def _cpu_during_gpu_powers(self, cpu_level: int):
        key = ("cpu_during_gpu", cpu_level)
        row = self._power_row_cache.get(key)
        if row is None:
            cpu_freq = self.platform.cpu.freq_levels[cpu_level]
            row = (self.power.cpu_busy(cpu_freq),
                   self.power.cpu_idle(cpu_freq))
            self._power_row_cache[key] = row
        return row

    def _gpu_idle_power(self, level: int) -> float:
        key = ("gpu_idle", level)
        p = self._power_row_cache.get(key)
        if p is None:
            p = self.power.gpu_idle(self.platform.freq_of_level(level))
            self._power_row_cache[key] = p
        return p

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _emit(self, state: "_RunState", dt: float, kind: str,
              gpu_p: float, cpu_p: float, cu: float, mu: float,
              label: str = "", op_index: int = -1) -> None:
        """Integrate one constant-power segment into the trace and the
        open telemetry window (:meth:`Trace.append` and a window add,
        inlined in their accumulation order)."""
        board_p = self.platform.board_power
        if state.thermal is not None:
            # Temperature-dependent leakage rides on top of the nominal
            # static power; integrate the die forward over this segment.
            mult = state.thermal.leakage_multiplier()
            gpu_p += self.power.gpu_static(state.dvfs.freq) * (mult - 1.0)
            state.thermal.advance(gpu_p + cpu_p + board_p, dt)
        t = state.t
        t_end = t + dt
        # The segment's duration, not dt: they differ when t_end rounds.
        d = t_end - t
        trace = state.trace
        w = state.window
        trace.total_time = t_end
        trace.gpu_energy += gpu_p * d
        trace.cpu_energy += cpu_p * d
        trace.board_energy += board_p * d
        if kind == KIND_GPU_OP:
            trace.busy_gpu_time += d
            w.busy_gpu += d
        elif kind == KIND_CPU:
            w.busy_cpu += d
        elif kind == KIND_SWITCH:
            trace.switch_count += 1
        if trace.keep_segments:
            trace.segments.append(TraceSegment(
                t_start=t, t_end=t_end, kind=kind,
                gpu_level=state.dvfs.level, gpu_power=gpu_p,
                cpu_power=cpu_p, board_power=board_p, compute_util=cu,
                memory_util=mu, label=label, op_index=op_index))
        w.cu += cu * d
        w.mu += mu * d
        w.gpu_e += gpu_p * d
        w.cpu_e += cpu_p * d
        w.total_e += (gpu_p + cpu_p + board_p) * d
        state.t = t_end

    def _close_window(self, state: "_RunState", governor,
                      samples: List[TelemetrySample]) -> None:
        """Close the telemetry window that ends at ``state.t``: deliver
        the sample (through the fault injector, if any), update the host
        policy, let the governor react, and apply thermal throttling or
        an external cap."""
        w = state.window
        t = state.t
        period = t - w.start
        if period <= 0:
            period = self.sample_period
        sample = TelemetrySample(
            t=t,
            period=period,
            gpu_level=state.dvfs.level,
            gpu_busy=min(1.0, w.busy_gpu / period),
            compute_util=min(1.0, w.cu / period),
            memory_util=min(1.0, w.mu / period),
            gpu_power=w.gpu_e / period,
            cpu_power=w.cpu_e / period,
            total_power=w.total_e / period,
            cpu_busy=min(1.0, w.busy_cpu / period),
            cpu_level=state.cpu_level,
        )
        delivered: Optional[TelemetrySample] = sample
        if state.injector is not None:
            delivered = state.injector.deliver_sample(sample)
        record_sample_metrics(self.obs.metrics, delivered)
        if delivered is not None:
            if self.anomaly is not None:
                self.anomaly.on_sample(delivered)
            if self.keep_samples:
                samples.append(delivered)
            self._update_cpu_policy(state, delivered)
            level = governor.on_sample(delivered)
        else:
            # Dropped window: the governor never hears about it and
            # holds its last action; the host policy holds too.
            level = None
        w.reset(t)
        state.next_sample = t + self.sample_period
        if state.thermal is not None and state.thermal.update_throttle():
            # Thermal governor overrides everyone while engaged.
            cap = self.platform.clamp_level(
                state.thermal.config.throttle_level)
            target = min(level, cap) if level is not None else cap
            if target != state.dvfs.level or state.dvfs.level > cap:
                self._apply_switch(state, min(target, cap))
            return
        if state.injector is not None and level is None:
            # External cap enforcement: when a cap window is active and
            # the GPU sits above it, the outside agent forces the clock
            # down even though the governor stayed silent.  Requesting
            # the *current* level routes the clamp through ``actuate``
            # so it is counted (and observed) as a capped command.
            cap = state.injector.active_cap(t)
            if cap is not None and \
                    state.dvfs.level > self.platform.clamp_level(cap):
                level = state.dvfs.level
        if level is not None:
            self._apply_switch(state, level)

    def _apply_switch(self, state: "_RunState", level: int) -> None:
        """Actuate a GPU level change; let a verifying governor retry.

        The governor's ``on_switch_result`` (when defined) sees every
        outcome — including clean ones — and may answer a failed command
        with a new target, bounded by :data:`MAX_ACTUATIONS_PER_POINT`.
        """
        self._actuate_once(state, level)
        notify = getattr(self._governor, "on_switch_result", None)
        if notify is None:
            return
        attempts = 0
        while attempts < MAX_ACTUATIONS_PER_POINT:
            retry = notify(state.last_switch_result)
            if retry is None:
                break
            attempts += 1
            self._actuate_once(state, retry)

    def _actuate_once(self, state: "_RunState", level: int) -> None:
        """One actuation attempt, charging stall + CPU command cost."""
        result = state.dvfs.actuate(state.t, level,
                                    injector=state.injector)
        state.last_switch_result = result
        switch = result.switch
        if self.anomaly is not None:
            stall = 0.0 if switch is None else \
                self.platform.dvfs_stall_s + result.extra_stall_s
            self.anomaly.on_switch_result(result, stall)
        if switch is None:
            if result.outcome == OUTCOME_DROPPED:
                self._m_dropped_cmds.inc()
                # The lost command still occupied the host.
                state.cpu_busy_until = max(
                    state.cpu_busy_until,
                    state.t + self.platform.dvfs_cpu_busy_s,
                )
            return
        stall = self.platform.dvfs_stall_s + result.extra_stall_s
        self._m_switches.inc()
        self._m_switch_stall.observe(stall)
        if stall > 0:
            gpu_p = self.power.gpu_idle(state.dvfs.freq)
            cpu_p = self.power.cpu_busy(self._cpu_freq(state))
            self._emit(state, stall, KIND_SWITCH, gpu_p, cpu_p, 0.0, 0.0,
                       label=f"dvfs:{switch.from_level}->{switch.to_level}")
        # Host stays busy issuing the command for dvfs_cpu_busy_s.
        state.cpu_busy_until = max(
            state.cpu_busy_until,
            state.t + self.platform.dvfs_cpu_busy_s,
        )

    def _cpu_freq(self, state: "_RunState") -> float:
        return self.platform.cpu.freq_levels[state.cpu_level]

    def _initial_cpu_level(self, policy: str) -> int:
        ladder = self.platform.cpu.freq_levels
        if policy == "max":
            return len(ladder) - 1
        if policy == "efficient":
            return max(0, int(round(0.7 * (len(ladder) - 1))))
        if policy == "plan":
            return len(ladder) - 1  # replaced at the first sample
        return len(ladder) - 1  # ondemand starts high under load

    def _update_cpu_policy(self, state: "_RunState",
                           sample: TelemetrySample) -> None:
        """Host cluster governor: ondemand ramps with utilization; the
        'efficient' policy (FPG-C+G) pins a mid-ladder level."""
        n = len(self.platform.cpu.freq_levels)
        if state.cpu_policy == "plan":
            planned = getattr(self._governor, "planned_cpu_level", None)
            if planned is not None:
                state.cpu_level = max(0, min(n - 1, planned))
            return
        if state.cpu_policy == "ondemand":
            if sample.cpu_busy > 0.6:
                state.cpu_level = n - 1
            elif sample.cpu_busy < 0.1:
                state.cpu_level = max(0, state.cpu_level - 2)
        elif state.cpu_policy == "efficient":
            state.cpu_level = max(0, int(round(0.7 * (n - 1))))
        elif state.cpu_policy == "max":
            state.cpu_level = n - 1

    def _noise_factor(self) -> float:
        if self.noise_std <= 0:
            return 1.0
        return max(0.5, self._rng.gauss(1.0, self.noise_std))


@dataclass
class _RunState:
    trace: Trace
    dvfs: DVFSController
    cpu_level: int
    cpu_policy: str
    window: _SampleWindow
    next_sample: float
    t: float = 0.0
    cpu_busy_until: float = 0.0
    thermal: Optional[ThermalState] = None
    injector: Optional[FaultInjector] = None
    last_switch_result: Optional["SwitchResult"] = None
