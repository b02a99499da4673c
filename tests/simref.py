"""Per-segment reference integration for :class:`InferenceSimulator`.

:class:`ReferenceSimulator` re-derives every segment's timing and power
with the scalar ``LatencyModel.time_of`` / ``PowerModel`` calls and
records it through :meth:`Trace.append`, with no cached rows.  It
overrides only the two phase methods; job handling, actuation and
window closing are the production code.  The equivalence suite
(``tests/test_simulator_fastpath.py``) and the serving benchmarks
compare the production loop against it byte for byte.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hw.perf import OpWork
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.hw.telemetry import (
    KIND_CPU,
    KIND_GPU_OP,
    TelemetrySample,
    TraceSegment,
)


def _emit(sim: InferenceSimulator, state, dt: float, kind: str,
          gpu_p: float, cpu_p: float, cu: float, mu: float,
          label: str = "", op_index: int = -1) -> None:
    """Build one :class:`TraceSegment`, append it to the trace and add
    it to the open telemetry window."""
    if state.thermal is not None:
        mult = state.thermal.leakage_multiplier()
        extra = sim.power.gpu_static(state.dvfs.freq) * (mult - 1.0)
        gpu_p += extra
        state.thermal.advance(gpu_p + cpu_p + sim.platform.board_power, dt)
    seg = TraceSegment(
        t_start=state.t,
        t_end=state.t + dt,
        kind=kind,
        gpu_level=state.dvfs.level,
        gpu_power=gpu_p,
        cpu_power=cpu_p,
        board_power=sim.platform.board_power,
        compute_util=cu,
        memory_util=mu,
        label=label,
        op_index=op_index,
    )
    state.trace.append(seg)
    w = state.window
    d = seg.duration
    if seg.kind == KIND_GPU_OP:
        w.busy_gpu += d
    if seg.kind == KIND_CPU:
        w.busy_cpu += d
    w.cu += seg.compute_util * d
    w.mu += seg.memory_util * d
    w.gpu_e += seg.gpu_power * d
    w.cpu_e += seg.cpu_power * d
    w.total_e += seg.total_power * d
    state.t += dt


def _maybe_close(sim: InferenceSimulator, state, governor,
                 samples: List[TelemetrySample]) -> None:
    if state.t >= state.next_sample - 1e-12:
        sim._close_window(state, governor, samples)


class ReferenceSimulator(InferenceSimulator):
    """:class:`InferenceSimulator` with per-segment scalar phases."""

    def _run_cpu_phase(self, state, governor, job: InferenceJob,
                       samples: List[TelemetrySample]) -> None:
        remaining = job.cpu_work_per_image * job.batch_size
        while remaining > 1e-9:
            cpu_freq = self._cpu_freq(state)
            rate = self.platform.cpu.ops_per_cycle * cpu_freq
            t_rem = remaining / rate
            dt = min(t_rem, state.next_sample - state.t)
            dt = max(dt, 1e-12)
            gpu_p = self.power.gpu_idle(state.dvfs.freq)
            cpu_p = self.power.cpu_busy(cpu_freq)
            _emit(self, state, dt, KIND_CPU, gpu_p, cpu_p, 0.0, 0.0,
                  label=f"{job.label()}:cpu")
            remaining -= rate * dt
            _maybe_close(self, state, governor, samples)

    def _run_gpu_phase(self, state, governor, job: InferenceJob,
                       job_idx: int, fp: str, works: Sequence[OpWork],
                       samples: List[TelemetrySample]) -> None:
        for op_idx, work in enumerate(works):
            level = governor.on_op_start(job_idx, op_idx, work)
            if level is not None:
                self._apply_switch(state, level)
            noise = self._noise_factor()
            remaining = 1.0  # fraction of the op still to execute
            while remaining > 1e-12:
                freq = state.dvfs.freq
                timing = self.latency.time_of(work, freq, job.batch_size)
                duration = timing.duration * noise
                t_rem = remaining * duration
                dt = min(t_rem, state.next_sample - state.t)
                dt = max(dt, 1e-12)
                gpu_p = self.power.gpu_busy(freq, timing)
                cpu_freq = self._cpu_freq(state)
                cpu_p = (self.power.cpu_busy(cpu_freq)
                         if state.t < state.cpu_busy_until
                         else self.power.cpu_idle(cpu_freq))
                _emit(self, state, dt, KIND_GPU_OP, gpu_p, cpu_p,
                      timing.compute_utilization,
                      timing.memory_utilization,
                      label=work.name, op_index=op_idx)
                remaining -= dt / duration
                _maybe_close(self, state, governor, samples)
