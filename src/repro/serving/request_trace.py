"""Request-lifecycle tracing for the fleet serving simulator.

The serving event log says *what* happened; this module says *where
each request's latency went*.  A :class:`RequestTracer` subscribes to
the scheduler's canonical record stream as a strictly observe-only
reader, all in **virtual time**, and feeds every record to the one
lifecycle builder, :class:`~repro.obs.timeline.RequestLifecycles` —
the same code ``powerlens timeline`` rebuilds a log with.  Each
finished request becomes one span tree::

    request                          (admit .. terminal)
      queued                         (admit .. last co-batched arrival)
      batched                        (batch formed .. dispatch)
      dispatched                     (dispatch .. completion)

The tracer adds what the log does not carry, read from the objects the
scheduler publishes beside each record: the executed plan's
fingerprint, the sparsity bucket, the request's even share of the
dispatch :class:`~repro.obs.ledger.EnergyLedger` joules, the job's new
anomalies, the device's recovery state at dispatch, and a dropped
request's images, sparsity and SLO.  Dropped requests carry a single
``queued`` child ending at the drop, and ``queue_full`` rejections are
zero-length roots.

Because every timestamp is the scheduler's virtual clock and every
attribute is a value the scheduler already computed, tracing cannot
perturb the run: the canonical event log, the SLO report and the
ledger totals are byte-identical with tracing on or off
(``tests/test_serving_request_trace.py`` pins this across governors,
policies, fault profiles and recovery configs).

**Sampling** keeps million-request runs bounded.  Head sampling is a
pure function of ``(seed, request_id)`` (sha256, no shared RNG
streams), so the sampled set is identical on every replay; tail
sampling *always* keeps the interesting requests — SLO violations,
expirations, unserviceable/queue-full drops and requests whose job
raised anomalies — regardless of the head rate.  The components
``queue_s + batch_s + service_s`` sum to the end-to-end latency
exactly (each is a difference of the same three timestamps).

Export is the same JSONL span schema as :mod:`repro.obs.tracing`, so
``powerlens trace`` replays a request-trace file unchanged; span ids
are assigned densely in request-id order at export time, keeping the
file byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import (OUTCOME_COMPLETED, RequestLifecycles,
                                RequestTrace)

__all__ = ["SamplingConfig", "RequestTrace", "RequestTracer",
           "head_sample_keep", "OUTCOME_COMPLETED"]

#: Healthy-device count change carried by each fleet-health record.
_HEALTH_STEP = {"drain": -1, "redrain": -1, "readmit": 1}


def head_sample_keep(seed: int, request_id: int, rate: float) -> bool:
    """Deterministic head-sampling decision for one request.

    A pure function of ``(seed, request_id)`` — sha256 bits mapped to
    [0, 1) and compared against ``rate`` — so the sampled set never
    depends on arrival order, scheduling, or any shared RNG stream.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    blob = f"{seed}/head-sample/{request_id}".encode()
    bits = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 11
    return bits / float(1 << 53) < rate


@dataclass(frozen=True)
class SamplingConfig:
    """Deterministic sampling knobs for :class:`RequestTracer`.

    ``head_rate`` is the fraction of requests kept unconditionally
    (seeded, per-request-id); ``keep_tail`` retains 100% of the
    anomalous tail (drops, SLO violations, anomaly-flagged jobs) on
    top of the head sample.
    """

    head_rate: float = 1.0
    seed: int = 0
    keep_tail: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.head_rate <= 1.0:
            raise ValueError("head_rate must be in [0, 1]")


def request_record(trace: RequestTrace) -> Dict[str, Any]:
    """Flat completion/drop record (the ``/requests`` SSE feed)."""
    record: Dict[str, Any] = {
        "type": "request",
        "request_id": trace.request_id,
        "model": trace.model,
        "images": trace.images,
        "outcome": trace.outcome,
        "t_arrival": trace.t_arrival,
        "t_end": trace.t_end,
        "latency_s": trace.latency_s,
        "queue_s": trace.queue_s,
        "batch_s": trace.batch_s,
        "service_s": trace.service_s,
        "slo_ok": trace.slo_ok,
    }
    if trace.device:
        record["device"] = trace.device
        record["energy_j"] = trace.energy_j
        record["ledger_energy_j"] = trace.ledger_energy_j
    if trace.cause:
        record["cause"] = trace.cause
    if trace.sparsity > 0.0:
        record["sparsity"] = trace.sparsity
    if trace.recovery_stall_s > 0.0:
        record["recovery_stall_s"] = trace.recovery_stall_s
    return record


def span_records(trace: RequestTrace, next_id: int) -> List[Dict[str, Any]]:
    """``trace``'s span tree as JSONL records (ids from ``next_id``
    up), compatible with :func:`repro.obs.replay.read_trace`."""
    root_attrs: Dict[str, Any] = {
        "request_id": trace.request_id,
        "model": trace.model,
        "images": trace.images,
        "outcome": trace.outcome,
        "policy": trace.policy,
        "slo_ok": trace.slo_ok,
    }
    if math.isfinite(trace.slo_latency_s):
        root_attrs["slo_latency_s"] = trace.slo_latency_s
    if trace.sparsity > 0.0:
        root_attrs["sparsity"] = trace.sparsity
    if trace.cause:
        root_attrs["cause"] = trace.cause
    if not trace.sampled_head:
        root_attrs["tail_sampled"] = True
    records = [_span(next_id, None, "request", trace.t_arrival,
                     trace.t_end, root_attrs)]
    root_id = next_id
    next_id += 1
    if trace.outcome == "queue_full":
        return records
    queued_attrs: Dict[str, Any] = {"queue_s": trace.queue_s}
    if trace.recovery_stall_s > 0.0:
        queued_attrs["recovery_stall_s"] = trace.recovery_stall_s
    records.append(_span(next_id, root_id, "queued", trace.t_arrival,
                         trace.t_batch_ready, queued_attrs))
    next_id += 1
    if not trace.completed:
        return records
    records.append(_span(
        next_id, root_id, "batched", trace.t_batch_ready,
        trace.t_dispatch,
        {"batch_s": trace.batch_s,
         "n_requests": trace.batch_n_requests,
         "request_ids": list(trace.batch_request_ids)}))
    next_id += 1
    dispatched_attrs: Dict[str, Any] = {
        "service_s": trace.service_s,
        "device": trace.device,
        "dispatch_seq": trace.dispatch_seq,
        "energy_j": trace.energy_j,
        "ledger_energy_j": trace.ledger_energy_j,
        "recovery_state": trace.recovery_state,
    }
    if trace.plan_fingerprint:
        dispatched_attrs["plan"] = trace.plan_fingerprint
    if trace.sparsity_bucket > 0.0:
        dispatched_attrs["sparsity_bucket"] = trace.sparsity_bucket
    if trace.new_anomalies:
        dispatched_attrs["new_anomalies"] = trace.new_anomalies
    records.append(_span(next_id, root_id, "dispatched",
                         trace.t_dispatch, trace.t_end, dispatched_attrs))
    return records


def _span(span_id: int, parent_id: Optional[int], name: str,
          t_start: float, t_end: float,
          attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "span", "span_id": span_id, "parent_id": parent_id,
            "name": name, "t_start": t_start, "t_end": t_end,
            "attrs": attrs}


class RequestTracer:
    """Observe-only request-lifecycle recorder (see module docstring).

    A subscriber of :meth:`~repro.serving.scheduler.FleetScheduler.run`:
    :meth:`consume` receives every canonical record with the scheduler
    object it came from.  Only requests that survive sampling are
    materialized as :class:`RequestTrace` rows (in-flight state is
    O(queue depth), not O(trace length)).  ``completion_records`` is
    the append-only list the ``/requests`` SSE endpoint tails.
    """

    def __init__(self, sampling: Optional[SamplingConfig] = None) -> None:
        self.sampling = sampling or SamplingConfig()
        self.policy = ""
        self.requests_seen = 0
        self.sampled_head_count = 0
        self.sampled_tail_count = 0
        self.completion_records: List[Dict[str, Any]] = []
        self._lifecycles = RequestLifecycles()
        self._traces: List[RequestTrace] = []
        self._n_healthy = 0
        self._dead_intervals: List[Tuple[float, float]] = []
        self._dead_since: Optional[float] = None
        self._finalized = False

    # ------------------------------------------------------------------
    # subscriber protocol (virtual time; strictly observe-only)
    # ------------------------------------------------------------------
    def begin_run(self, policy: str, n_healthy: int) -> None:
        self.policy = policy
        self._n_healthy = n_healthy
        self._dead_since = 0.0 if n_healthy == 0 else None

    def consume(self, record: Dict[str, Any], source: Any) -> None:
        """Feed one canonical record to the lifecycle builder, adding
        what the log does not carry from ``source``: the
        :class:`~repro.serving.arrivals.Request` of an admit or drop,
        the dispatched job (batch, :class:`~repro.serving.fleet.\
DispatchRecord`, device) of a dispatch."""
        kind = record["event"]
        extra: Dict[str, Any] = {}
        if kind == "admit" or (kind == "drop"
                               and record["reason"] == "queue_full"):
            self.requests_seen += 1
            extra = {"sparsity": source.sparsity,
                     "slo_latency_s": source.slo_latency_s}
            if kind == "drop":
                extra["images"] = source.images
        elif kind == "dispatch":
            job = source.record
            extra = {"ledger_energy_j": (job.ledger_energy_j
                                         / len(source.batch)),
                     "sparsity_bucket": job.sparsity_bucket,
                     "plan_fingerprint": job.plan_fingerprint,
                     "recovery_state": source.device.recovery_state,
                     "new_anomalies": job.new_anomalies}
        elif kind in _HEALTH_STEP:
            self._note_fleet_health(record["t"], _HEALTH_STEP[kind])
        row = self._lifecycles.feed(record, **extra)
        if row is not None:
            self._finalize_request(row)

    def finalize(self, t_end: float) -> None:
        """Close the run at virtual ``t_end`` (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if self._dead_since is not None:
            self._dead_intervals.append((self._dead_since, t_end))
            self._dead_since = None

    def _note_fleet_health(self, t: float, step: int) -> None:
        """Track intervals with zero healthy devices — the recovery
        stall attributed to requests queued across them."""
        self._n_healthy += step
        if self._n_healthy == 0:
            if self._dead_since is None:
                self._dead_since = t
        elif self._dead_since is not None:
            self._dead_intervals.append((self._dead_since, t))
            self._dead_since = None

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _finalize_request(self, row: Dict[str, Any]) -> None:
        cfg = self.sampling
        head = head_sample_keep(cfg.seed, row["request_id"],
                                cfg.head_rate)
        trace = RequestTrace(
            policy=self.policy, sampled_head=head,
            recovery_stall_s=self._stall(row["t_arrival"],
                                         row["t_dispatch"]),
            **row)
        if not head and not (cfg.keep_tail and trace.anomalous):
            return
        if head:
            self.sampled_head_count += 1
        else:
            self.sampled_tail_count += 1
        self._traces.append(trace)
        self.completion_records.append(request_record(trace))

    def _stall(self, t_from: float, t_to: float) -> float:
        """Overlap of ``[t_from, t_to]`` with zero-healthy intervals."""
        total = 0.0
        intervals = list(self._dead_intervals)
        if self._dead_since is not None:
            intervals.append((self._dead_since, t_to))
        for start, end in intervals:
            total += max(0.0, min(end, t_to) - max(start, t_from))
        return total

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def traces(self) -> List[RequestTrace]:
        """Sampled request traces in terminal-event order."""
        return list(self._traces)

    @property
    def sampled_count(self) -> int:
        return len(self._traces)

    def metrics(self) -> MetricsRegistry:
        """Sampling accounting as a mergeable registry."""
        registry = MetricsRegistry()
        registry.counter(
            "powerlens_request_trace_seen_total",
            help="Requests observed by the request tracer").inc(
            self.requests_seen)
        registry.counter(
            "powerlens_request_trace_sampled_total",
            help="Requests kept by head or tail sampling").inc(
            self.sampled_count)
        registry.counter(
            "powerlens_request_trace_tail_kept_total",
            help="Anomalous-tail requests kept beyond the head rate"
        ).inc(self.sampled_tail_count)
        return registry

    def span_records(self) -> List[Dict[str, Any]]:
        """Every sampled request's span tree, ids dense in request-id
        order (byte-stable across replays)."""
        records: List[Dict[str, Any]] = []
        next_id = 1
        for trace in sorted(self._traces,
                            key=lambda tr: tr.request_id):
            spans = span_records(trace, next_id)
            next_id += len(spans)
            records.extend(spans)
        return records

    def export_jsonl(self, path: Union[str, Path],
                     burn: Optional[Any] = None) -> Path:
        """Write the sampled span trees as a JSONL trace file
        (readable by ``powerlens trace``); a
        :class:`~repro.obs.burnrate.BurnRateMonitor` appends its
        ``slo_burn`` spans after the request spans."""
        path = Path(path)
        records = self.span_records()
        next_id = len(records) + 1
        burn_records: List[Dict[str, Any]] = []
        if burn is not None:
            for name, t_start, t_end, attrs in burn.span_rows():
                burn_records.append(
                    _span(next_id, None, name, t_start, t_end, attrs))
                next_id += 1
        meta = {"type": "meta", "format": "powerlens-request-trace",
                "version": 1,
                "requests_seen": self.requests_seen,
                "sampled": self.sampled_count,
                "tail_kept": self.sampled_tail_count,
                "head_rate": self.sampling.head_rate,
                "sampling_seed": self.sampling.seed,
                "policy": self.policy,
                "spans": len(records) + len(burn_records),
                "dropped": 0}
        lines = [json.dumps(meta, sort_keys=True)]
        lines += [json.dumps(rec, sort_keys=True)
                  for rec in records + burn_records]
        path.write_text("\n".join(lines) + "\n")
        return path
