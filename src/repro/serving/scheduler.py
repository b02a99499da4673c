"""The fleet scheduler: a deterministic discrete-event serving loop.

:class:`FleetScheduler` consumes a pre-materialized
:class:`~repro.serving.arrivals.ArrivalTrace` and drives a
:class:`~repro.serving.fleet.Fleet` through virtual time:

* **admission** — an arriving request joins the waiting queue or is
  dropped (``queue_full``) when the queue is at capacity;
* **dispatch** — whenever a healthy idle device exists, the queueing
  policy picks the next batch (same model, same image count), the
  scheduler routes it to the cheapest device under the policy's cost
  axis (predicted joules for ``energy``, predicted seconds otherwise)
  and executes the coalesced :class:`~repro.hw.simulator.InferenceJob`
  through the full governor/simulator stack;
* **completion** — the job's simulated duration advances the clock via
  a completion event; per-request latency and an even energy share are
  recorded, and the device's anomaly count is re-checked: crossing
  ``unhealthy_after`` drains the device;
* **recovery** — with :class:`~repro.serving.fleet.RecoveryConfig` a
  drain is not terminal: after an exponentially backed-off cooldown the
  scheduler dispatches a canonical *probe* job (sharing the dispatch
  sequence, so seeds stay deterministic); a clean probe re-admits the
  device on probation (any probation anomaly re-drains it), a failed
  probe re-enters cooldown with doubled backoff until ``max_attempts``
  makes the drain permanent;
* **expiry / drain** — requests whose SLO deadline passed before
  dispatch are dropped (``expired``); requests are dropped
  ``unserviceable`` the moment the fleet goes *dead* — every device
  drained and no probe pending (event ``cause="fleet_drained"``) —
  rather than sitting in the queue until trace end (``trace_end``).

One run is an explicit state object (``_Run``) with one handler per
heap-event kind — arrival, probe, probe_done, complete — each followed
by one dispatch attempt.  The heap orders ties by ``(t, priority,
seq)`` with completions (priority 0) ahead of arrivals (priority 1),
so equal-time ordering is explicit, never dict- or hash-dependent.

Every canonical record leaves through one ``publish`` step: it is
appended to the **event log** and handed, with the scheduler object it
came from, to each subscriber — the run's serving counters, then the
request tracer and the burn-rate monitor when given.  Subscribers are
observe-only.  The log's canonical JSONL serialization is
byte-identical across repeated runs of the same ``(trace, config)`` —
the determinism property the hypothesis suite pins.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.hw.simulator import InferenceJob
from repro.obs import Observability, observability
from repro.obs.burnrate import BurnRateMonitor
from repro.obs.metrics import Counter, DEFAULT_BUCKETS, MetricsRegistry
from repro.serving.arrivals import ArrivalTrace, Request
from repro.serving.fleet import (
    DispatchRecord,
    Fleet,
    RecoveryConfig,
    SimulatedDevice,
)
from repro.serving.queueing import QueuePolicy, make_policy
from repro.serving.request_trace import RequestTracer
from repro.serving.slo_report import (
    DeviceSummary,
    RequestOutcome,
    SLOReport,
)
from repro.workloads import make_request_job

__all__ = ["SchedulerConfig", "ServingResult", "FleetScheduler",
           "canonical_event_line", "DROP_QUEUE_FULL", "DROP_EXPIRED",
           "DROP_UNSERVICEABLE"]

#: Heap priorities: completions free devices before same-time arrivals;
#: recovery probes run after both so they never shadow real traffic.
_PRIO_COMPLETE = 0
_PRIO_ARRIVAL = 1
_PRIO_PROBE = 2

DROP_QUEUE_FULL = "queue_full"
DROP_EXPIRED = "expired"
DROP_UNSERVICEABLE = "unserviceable"


def canonical_event_line(record: Dict[str, object]) -> str:
    """One event as canonical JSON: sorted keys, no whitespace — the
    unit of the byte-identity contract."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs (the fleet itself is built separately)."""

    policy: str = "fifo"
    max_batch: int = 4
    queue_capacity: int = 64
    cpu_work_per_image: float = 1.2e8
    #: Drop queued requests whose deadline already passed at dispatch
    #: time (completions past deadline still count, as violations).
    drop_expired: bool = True
    #: Re-admit drained devices (None keeps drains permanent).
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.cpu_work_per_image < 0:
            raise ValueError("cpu_work_per_image must be >= 0")


@dataclass
class ServingResult:
    """Everything one :meth:`FleetScheduler.run` produced."""

    report: SLOReport
    events: List[Dict[str, object]]
    outcomes: List[RequestOutcome]
    metrics: MetricsRegistry
    dispatches: List[DispatchRecord] = field(default_factory=list)
    #: The run's observe-only subscribers, when given (their sampled
    #: traces / alert episodes are read off these objects).
    request_tracer: Optional[RequestTracer] = None
    burn_monitor: Optional[BurnRateMonitor] = None

    def event_log(self) -> str:
        """Canonical JSONL event log (byte-identical across runs)."""
        return "".join(canonical_event_line(r) + "\n"
                       for r in self.events)


class _Job(NamedTuple):
    """One dispatched job: the heap payload of its completion and the
    source published beside its ``dispatch`` record."""

    device: SimulatedDevice
    batch: List[Request]
    record: DispatchRecord
    t_dispatch: float


class _ServingCounters:
    """The run's serving counters and latency histogram, counted from
    the published records (arrived = admits + ``queue_full`` drops,
    drains = drain + redrain)."""

    def __init__(self) -> None:
        self.registry = registry = MetricsRegistry()
        self.arrived = registry.counter(
            "powerlens_serving_requests_total",
            help="Requests presented to the fleet")
        self.admitted = registry.counter(
            "powerlens_serving_admitted_total")
        self.completed = registry.counter(
            "powerlens_serving_completed_total")
        self.jobs = registry.counter("powerlens_serving_jobs_total")
        self.drains = registry.counter("powerlens_serving_drains_total")
        self.probes = registry.counter("powerlens_serving_probes_total")
        self.readmits = registry.counter(
            "powerlens_serving_readmissions_total")
        self.redrains = registry.counter(
            "powerlens_serving_redrains_total")
        self.dropped = {
            reason: registry.counter(
                f"powerlens_serving_dropped_{reason}_total")
            for reason in (DROP_QUEUE_FULL, DROP_EXPIRED,
                           DROP_UNSERVICEABLE)
        }
        self.latency = registry.histogram(
            "powerlens_serving_request_latency_seconds",
            help="Arrival-to-completion latency",
            buckets=DEFAULT_BUCKETS)

    def consume(self, record: Dict[str, object], source: object) -> None:
        kind = record["event"]
        if kind == "admit":
            self.arrived.inc()
            self.admitted.inc()
        elif kind == "complete":
            self.completed.inc()
            self.latency.observe(record["latency"])
        elif kind == "dispatch":
            self.jobs.inc()
        elif kind == "drop":
            reason = record["reason"]
            self.dropped[reason].inc()
            if reason == DROP_QUEUE_FULL:
                self.arrived.inc()
        elif kind == "probe":
            self.probes.inc()
        elif kind == "readmit":
            self.readmits.inc()
        elif kind in ("drain", "redrain"):
            self.drains.inc()
            if kind == "redrain":
                self.redrains.inc()


class _Run:
    """The state of one :meth:`FleetScheduler.run`: the waiting queue,
    the event heap and one handler per heap-event kind (arrival,
    probe, probe_done, complete).  Every canonical record leaves
    through :meth:`publish`."""

    def __init__(self, scheduler: "FleetScheduler",
                 trace: ArrivalTrace) -> None:
        self.scheduler = scheduler
        self.cfg = scheduler.config
        self.fleet = scheduler.fleet
        self.recovery = self.cfg.recovery
        self.events: List[Dict[str, object]] = []
        self.outcomes: List[RequestOutcome] = []
        self.dispatches: List[DispatchRecord] = []
        self.queue: List[Request] = []
        self.counters = _ServingCounters()
        self.subscribers = [self.counters.consume] + [
            observer.consume for observer in scheduler.observers]
        self.dispatch_seq = 0
        self.makespan = 0.0
        self.pending_probes = 0
        self.arrivals_pending = len(trace.requests)
        # Probe jobs exercise the lexicographically first model at
        # batch 1 — a fixed, deterministic choice.
        self.probe_graph = (self.fleet.graph_for(sorted(trace.models)[0])
                            if trace.requests else None)
        # (t, priority, tiebreak_seq, handler, payload)
        self.heap: List[Tuple[float, int, int, object, object]] = [
            (request.t_arrival, _PRIO_ARRIVAL, i, self.on_arrival, request)
            for i, request in enumerate(trace.requests)]
        heapq.heapify(self.heap)
        self.heap_seq = len(trace.requests)

    # -- plumbing -------------------------------------------------------
    def publish(self, t: float, kind: str, source: object = None,
                **fields: object) -> None:
        """Append one canonical record to the log and hand it, with
        the scheduler object it came from, to every subscriber."""
        record: Dict[str, object] = {"seq": len(self.events), "t": t,
                                     "event": kind}
        record.update(fields)
        self.events.append(record)
        for consume in self.subscribers:
            consume(record, source)

    def push(self, t: float, priority: int, handler: object,
             payload: object) -> None:
        heapq.heappush(self.heap, (t, priority, self.heap_seq, handler,
                                   payload))
        self.heap_seq += 1

    def loop(self) -> None:
        while self.heap:
            t, _prio, _seq, handler, payload = heapq.heappop(self.heap)
            handler(t, payload)
            self.try_dispatch(t)

    def drop(self, t: float, request: Request, reason: str,
             cause: Optional[str] = None) -> None:
        extra = {} if cause is None else {"cause": cause}
        self.publish(t, "drop", request, request_id=request.request_id,
                     model=request.model, reason=reason, **extra)

    # -- heap-event handlers --------------------------------------------
    def on_arrival(self, t: float, request: Request) -> None:
        self.arrivals_pending -= 1
        if len(self.queue) >= self.cfg.queue_capacity:
            self.drop(t, request, DROP_QUEUE_FULL)
            return
        self.queue.append(request)
        self.publish(t, "admit", request, request_id=request.request_id,
                     model=request.model, images=request.images)
        self.purge_if_dead(t)

    def on_probe(self, t: float, device: SimulatedDevice) -> None:
        self.pending_probes -= 1
        if not self.queue and self.arrivals_pending == 0:
            # Nothing left to serve: skip the probe so the event loop
            # can terminate.
            return
        device.recovery_state = "probing"
        device.busy = True
        self.pending_probes += 1
        probe_job = InferenceJob(
            graph=self.probe_graph, batch_size=1, n_batches=1,
            cpu_work_per_image=self.cfg.cpu_work_per_image,
            name=f"{self.probe_graph.name}_probe")
        record = device.execute(probe_job, self.dispatch_seq)
        self.dispatch_seq += 1
        self.publish(t, "probe", device=device.name,
                     attempt=device.recovery_attempts,
                     duration=record.duration_s,
                     anomalies=record.new_anomalies)
        self.push(t + record.duration_s, _PRIO_COMPLETE,
                  self.on_probe_done, (device, record))

    def on_probe_done(self, t: float,
                      payload: Tuple[SimulatedDevice, DispatchRecord]
                      ) -> None:
        device, record = payload
        device.busy = False
        self.pending_probes -= 1
        if record.new_anomalies > 0:
            device.recovery_attempts += 1
            device.recovery_state = "drained"
            self.publish(t, "probe_fail", device=device.name,
                         attempts=device.recovery_attempts,
                         anomalies=record.new_anomalies)
            self.schedule_probe(t, device)
            self.purge_if_dead(t)
        else:
            device.begin_probation(t, self.recovery.probation_jobs)
            self.publish(t, "readmit", device=device.name,
                         probation_jobs=self.recovery.probation_jobs)

    def on_complete(self, t: float, job: _Job) -> None:
        device, batch, record = job.device, job.batch, job.record
        device.busy = False
        self.makespan = max(self.makespan, t)
        share = record.energy_j / len(batch)
        for request in batch:
            outcome = RequestOutcome(
                request_id=request.request_id,
                model=request.model,
                images=request.images,
                device=device.name,
                t_arrival=request.t_arrival,
                t_dispatch=job.t_dispatch,
                t_complete=t,
                energy_j=share,
                slo_latency_s=request.slo_latency_s,
            )
            self.outcomes.append(outcome)
            self.publish(t, "complete",
                         request_id=request.request_id,
                         device=device.name,
                         latency=outcome.latency_s,
                         energy=share,
                         slo_ok=outcome.slo_ok)
        if self.recovery is not None \
                and device.recovery_state == "probation":
            if record.new_anomalies > 0:
                # Zero tolerance on probation: one anomaly sends the
                # device straight back to cooldown.
                device.recovery_attempts += 1
                device.begin_drain(t)
                self.publish(t, "redrain", device=device.name,
                             anomalies=device.anomaly_count)
                self.schedule_probe(t, device)
                self.purge_if_dead(t)
            else:
                device.probation_left -= 1
                if device.probation_left <= 0:
                    device.complete_probation()
                    self.publish(t, "recover", device=device.name)
        elif not device.drained and \
                device.fresh_anomalies >= device.unhealthy_after:
            device.begin_drain(t)
            self.publish(t, "drain", device=device.name,
                         anomalies=device.anomaly_count)
            self.schedule_probe(t, device)
            self.purge_if_dead(t)

    # -- recovery and expiry --------------------------------------------
    def schedule_probe(self, t: float, device: SimulatedDevice) -> None:
        recovery = self.recovery
        if recovery is None:
            return
        if device.recovery_attempts >= recovery.max_attempts:
            self.publish(t, "recovery_exhausted", device=device.name,
                         attempts=device.recovery_attempts)
            return
        delay = recovery.cooldown_after(device.recovery_attempts)
        device.begin_cooldown()
        self.pending_probes += 1
        self.push(t + delay, _PRIO_PROBE, self.on_probe, device)
        self.publish(t, "cooldown", device=device.name,
                     attempt=device.recovery_attempts, probe_at=t + delay)

    def purge_if_dead(self, t: float) -> None:
        # Every device drained and no probe can revive one: the queue
        # can never drain, so account the requests now with a distinct
        # cause instead of holding them to trace end.
        if not self.queue or self.pending_probes \
                or not all(d.drained for d in self.fleet.devices):
            return
        for request in self.queue:
            self.drop(t, request, DROP_UNSERVICEABLE, cause="fleet_drained")
        self.queue.clear()

    def purge_expired(self, t: float) -> None:
        if not self.cfg.drop_expired:
            return
        queue = self.queue
        expired = [r for r in queue if r.deadline < t]
        if not expired:
            return
        queue[:] = [r for r in queue if r.deadline >= t]
        for request in sorted(expired, key=lambda r: r.request_id):
            self.drop(t, request, DROP_EXPIRED)

    # -- dispatch -------------------------------------------------------
    def try_dispatch(self, t: float) -> None:
        queue = self.queue
        while True:
            self.purge_expired(t)
            if not queue:
                return
            candidates = self.fleet.healthy_idle()
            if not candidates:
                return
            indices = self.scheduler.policy.select_batch(
                queue, t, self.cfg.max_batch)
            if not indices:
                return
            batch = [queue[i] for i in indices]
            for i in sorted(indices, reverse=True):
                del queue[i]
            self.dispatch(t, batch, candidates)

    def dispatch(self, t: float, batch: List[Request],
                 candidates: List[SimulatedDevice]) -> None:
        """Route ``batch`` to the cheapest candidate under the policy's
        cost axis (first in fleet order on ties) and start its job."""
        head = batch[0]
        graph = self.fleet.graph_for(head.model)
        axis = 1 if self.scheduler.policy.name == "energy" else 0
        n_batches = len(batch)
        device = min(candidates, key=lambda d: d.predict(
            graph, head.images)[axis] * n_batches)
        job = make_request_job(
            graph, n_requests=n_batches,
            images_per_request=head.images,
            cpu_work_per_image=self.cfg.cpu_work_per_image,
            first_request_id=head.request_id,
            sparsity=head.sparsity,
        )
        record = device.execute(job, self.dispatch_seq)
        device.busy = True
        device.requests_served += n_batches
        self.dispatches.append(record)
        t_done = t + record.duration_s
        running = _Job(device, batch, record, t)
        # Dense traces omit the sparsity field entirely so their event
        # logs stay byte-identical to pre-sparsity runs.
        sparse_fields = ({"sparsity": head.sparsity}
                         if head.sparsity > 0.0 else {})
        self.publish(t, "dispatch", running, device=device.name,
                     model=head.model, images=head.images,
                     n_requests=n_batches,
                     request_ids=[r.request_id for r in batch],
                     predicted_done=t_done, **sparse_fields)
        self.push(t_done, _PRIO_COMPLETE, self.on_complete, running)
        self.dispatch_seq += 1

    # -- end of trace ---------------------------------------------------
    def finish(self, trace: ArrivalTrace) -> float:
        """Account every request still waiting; returns the run's end
        in virtual time."""
        t_end = max(self.makespan, trace.requests[-1].t_arrival
                    if trace.requests else 0.0)
        self.purge_expired(t_end)
        for request in self.queue:
            self.drop(t_end, request, DROP_UNSERVICEABLE, cause="trace_end")
        self.queue.clear()
        for device in self.fleet.devices:
            device.finalize_drain_accounting(t_end)
        return t_end


class FleetScheduler:
    """Admission + routing over one fleet (see module docstring)."""

    def __init__(self, fleet: Fleet,
                 config: Optional[SchedulerConfig] = None,
                 obs: Optional[Observability] = None,
                 request_tracer: Optional[RequestTracer] = None,
                 burn_monitor: Optional[BurnRateMonitor] = None) -> None:
        self.fleet = fleet
        self.config = config or SchedulerConfig()
        self.policy: QueuePolicy = make_policy(self.config.policy)
        self.obs = observability(obs)
        self.request_tracer = request_tracer
        self.burn_monitor = burn_monitor
        # Observe-only subscribers (those given): each implements
        # begin_run / consume / finalize / metrics, reads only published
        # records and the objects beside them and owns no RNG, so every
        # output byte is the same with or without them.
        self.observers = list(filter(None, (request_tracer, burn_monitor)))

    # ------------------------------------------------------------------
    def run(self, trace: ArrivalTrace) -> ServingResult:
        """Serve ``trace`` to completion; returns the full outcome."""
        fleet = self.fleet
        for device in fleet.devices:
            device.busy = False
        if trace.requests:
            fleet.prewarm(trace.models,
                          sorted({r.images for r in trace.requests}))
        n_healthy = sum(1 for d in fleet.devices if not d.drained)
        for observer in self.observers:
            observer.begin_run(self.policy.name, n_healthy)
        run = _Run(self, trace)
        run.loop()
        t_end = run.finish(trace)
        for observer in self.observers:
            observer.finalize(t_end)

        report = self._build_report(trace, run.outcomes,
                                    run.counters.dropped, run.makespan)
        fleet_metrics = fleet.merged_metrics()
        fleet_metrics.merge(run.counters.registry)
        self._record_summary_metrics(fleet_metrics, report)
        for observer in self.observers:
            fleet_metrics.merge(observer.metrics())
        if self.obs.metrics.enabled:
            self.obs.metrics.merge(fleet_metrics)
        return ServingResult(report=report, events=run.events,
                             outcomes=run.outcomes, metrics=fleet_metrics,
                             dispatches=run.dispatches,
                             request_tracer=self.request_tracer,
                             burn_monitor=self.burn_monitor)

    # ------------------------------------------------------------------
    def _build_report(self, trace: ArrivalTrace,
                      outcomes: Sequence[RequestOutcome],
                      drops: Dict[str, Counter],
                      makespan: float) -> SLOReport:
        devices = [
            DeviceSummary(
                name=d.name,
                platform=d.platform.name,
                jobs=d.jobs_done,
                requests=d.requests_served,
                busy_time_s=d.busy_time_s,
                energy_j=math.fsum(d.energies_j),
                ledger_energy_j=math.fsum(d.ledger_energies_j),
                anomalies=d.anomaly_count,
                drained=d.drained,
                plan_cache_hits=d.plan_cache.hits,
                plan_cache_misses=d.plan_cache.misses,
                drained_seconds=d.drained_seconds,
                readmissions=d.readmissions,
                recovery_state=d.recovery_state,
            )
            for d in self.fleet.devices
        ]
        governors = {d.governor_name for d in self.fleet.devices}
        return SLOReport.from_run(
            policy=self.policy.name,
            governor=(governors.pop() if len(governors) == 1
                      else "mixed"),
            arrival_kind=trace.kind,
            seed=trace.seed,
            duration_s=trace.duration_s,
            arrived=len(trace),
            dropped_queue_full=drops[DROP_QUEUE_FULL].value,
            dropped_expired=drops[DROP_EXPIRED].value,
            dropped_unserviceable=drops[DROP_UNSERVICEABLE].value,
            outcomes=outcomes,
            devices=devices,
            makespan_s=makespan,
        )

    @staticmethod
    def _record_summary_metrics(metrics: MetricsRegistry,
                                report: SLOReport) -> None:
        metrics.gauge("powerlens_serving_fleet_energy_joules",
                      help="Total fleet energy of the run").set(
            report.fleet_energy_j)
        metrics.gauge("powerlens_serving_joules_per_request").set(
            report.joules_per_request)
        metrics.gauge("powerlens_serving_makespan_seconds").set(
            report.makespan_s)
        metrics.gauge("powerlens_serving_latency_p99_seconds").set(
            report.latency_p99_s)
        metrics.gauge(
            "powerlens_serving_drained_device_seconds",
            help="Total device-seconds spent drained").set(
            report.drained_device_seconds)
