"""Timeline reconstruction and Chrome ``trace_event`` export for
serving event logs.

The canonical serving event log (``serve-sim --event-log``) is a
complete record of the run: every admit/dispatch/complete/drop plus
the recovery state machine's transitions, all in virtual time.  This
module turns that log back into structure:

* :class:`RequestLifecycles` — the one request-lifecycle
  reconstruction (arrival → batch ready → dispatch → terminal), fed
  one canonical record at a time.  :class:`ServingTimeline` replays a
  finished log through it, and the serving request tracer feeds it
  live, so both produce the same :class:`RequestTrace` rows;
* :class:`ServingTimeline` — those rows plus per-device busy/probe
  intervals, the queue-depth step function, and recovery transitions,
  reconstructed purely from the log (no simulator state needed);
* a **critical-path breakdown**: each completed request's latency is
  decomposed into ``queue`` (waiting while its batch accumulated),
  ``batch`` (formed batch waiting for a device) and ``service``
  (on-device execution); the three components are differences of the
  same timestamps, so they sum to the end-to-end latency exactly —
  the CLI table's invariant (≤1e-9, pinned in tests);
* a **Chrome/Perfetto ``trace_event`` JSON** export
  (:meth:`ServingTimeline.to_chrome_trace`): one process per device
  (complete ``X`` slices for jobs and probes, instant markers for
  drain/readmit/…), a scheduler process with the queue-depth counter
  and ``slo_burn`` alert slices, and one thread per sampled request
  showing its queued/batched/dispatched phases.  Load the file at
  ``chrome://tracing`` or https://ui.perfetto.dev.

Virtual seconds are scaled to microseconds (the ``ts`` unit Chrome
expects); everything is deterministic — same log in, same JSON out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.obs.metrics import nearest_rank_index

__all__ = ["RequestTrace", "RequestLifecycles", "OUTCOME_COMPLETED",
           "DeviceTrack", "ServingTimeline",
           "read_event_log", "looks_like_event_log",
           "summarize_serving_events", "validate_chrome_trace"]

#: Virtual seconds → Chrome ``ts`` microseconds.
_US = 1e6

#: Event kinds rendered as instant markers on their device's track.
_DEVICE_MARKERS = ("drain", "redrain", "cooldown", "probe_fail",
                   "readmit", "recover", "recovery_exhausted")


def read_event_log(path: Union[str, Path]
                   ) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a serving event log (tolerant JSONL).

    Returns ``(events, malformed_lines)``; a line counts as malformed
    when it is not a JSON object carrying both ``event`` and ``t``.
    """
    events: List[Dict[str, Any]] = []
    malformed = 0
    with open(path, "r") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if (isinstance(record, dict) and "event" in record
                    and "t" in record):
                events.append(record)
            else:
                malformed += 1
    return events, malformed


def looks_like_event_log(records: Iterable[Any]) -> bool:
    """True when ``records`` look like serving event-log lines
    (objects with ``seq``/``t``/``event`` keys) — the shape sniff
    ``powerlens trace`` uses to redirect to ``powerlens timeline``."""
    seen = False
    for record in records:
        if not (isinstance(record, dict) and "event" in record
                and "t" in record and "seq" in record):
            return False
        seen = True
    return seen


def summarize_serving_events(events: Sequence[Dict[str, Any]]) -> str:
    """One-paragraph digest of a serving event log (request outcomes
    and fleet health events), for ``powerlens trace``'s redirect."""
    counts: Dict[str, int] = {}
    drop_reasons: Dict[str, int] = {}
    t_max = 0.0
    for event in events:
        kind = str(event.get("event"))
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "drop":
            reason = str(event.get("reason", "unknown"))
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
        t_max = max(t_max, float(event.get("t", 0.0)))
    lines = [f"serving event log: {len(events)} events, "
             f"makespan {t_max:.3f} s"]
    lines.append(
        "requests: "
        f"{counts.get('admit', 0)} admitted, "
        f"{counts.get('complete', 0)} completed, "
        f"{counts.get('drop', 0)} dropped"
        + (" (" + ", ".join(f"{reason}={n}" for reason, n
                            in sorted(drop_reasons.items())) + ")"
           if drop_reasons else ""))
    fleet_bits = [f"{kind}={counts[kind]}"
                  for kind in ("dispatch", "probe") + _DEVICE_MARKERS
                  if counts.get(kind)]
    if fleet_bits:
        lines.append("fleet: " + ", ".join(fleet_bits))
    return "\n".join(lines)


OUTCOME_COMPLETED = "completed"


@dataclass(frozen=True)
class RequestTrace:
    """One request's lifecycle (virtual timestamps) — the one row type
    of both the timeline and the serving request tracer.

    The three latency components partition ``[t_arrival, t_end]``:

    * ``queue_s`` — admit until the last co-batched request arrived
      (the request is queued while its batch accumulates);
    * ``batch_s`` — formed batch waiting for a healthy idle device and
      the policy's nod;
    * ``service_s`` — dispatch to completion on the device.

    For dropped requests the whole wait is ``queue_s`` and the other
    components are zero, so ``queue_s + batch_s + service_s ==
    latency_s`` holds for every outcome.  Rows rebuilt from a log leave
    the fields the log does not carry (``slo_latency_s``, the ledger
    share, plan and recovery attributes, a dropped request's sparsity
    and a ``queue_full`` drop's images) at their defaults.
    """

    request_id: int
    model: str
    images: int
    t_arrival: float
    t_batch_ready: float
    t_dispatch: float
    t_end: float
    outcome: str
    sparsity: float = 0.0
    slo_latency_s: float = math.inf
    device: str = ""
    policy: str = ""
    dispatch_seq: int = -1
    batch_n_requests: int = 0
    batch_request_ids: Tuple[int, ...] = ()
    energy_j: float = 0.0
    ledger_energy_j: float = 0.0
    sparsity_bucket: float = 0.0
    plan_fingerprint: str = ""
    recovery_state: str = ""
    new_anomalies: int = 0
    slo_ok: bool = True
    cause: str = ""
    recovery_stall_s: float = 0.0
    sampled_head: bool = True

    @property
    def latency_s(self) -> float:
        return self.t_end - self.t_arrival

    @property
    def queue_s(self) -> float:
        return self.t_batch_ready - self.t_arrival

    @property
    def batch_s(self) -> float:
        return self.t_dispatch - self.t_batch_ready

    @property
    def service_s(self) -> float:
        return self.t_end - self.t_dispatch

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED

    @property
    def anomalous(self) -> bool:
        """True for every tail-sampled condition: a drop, an SLO
        violation or a job that raised anomalies."""
        return (self.outcome != OUTCOME_COMPLETED or not self.slo_ok
                or self.new_anomalies > 0)


class RequestLifecycles:
    """The one request-lifecycle reconstruction, fed one canonical
    record at a time.

    :meth:`feed` applies a record and, when the record ends a request
    (``complete`` or ``drop``), returns that request's finished
    :class:`RequestTrace` fields.  ``admit`` opens a row, ``dispatch``
    stamps the batch onto its rows (batch ready = the last co-batched
    arrival), and ``dispatch``/``probe`` records count off the
    scheduler's dispatch sequence.  ``extra`` fields are merged into
    the rows the record touches: the serving request tracer passes the
    values the log does not carry there.
    """

    def __init__(self) -> None:
        #: Fields of admitted requests not yet at a terminal event.
        self.open: Dict[int, Dict[str, Any]] = {}
        self._jobs = 0

    def feed(self, record: Dict[str, Any], **extra: Any
             ) -> Optional[Dict[str, Any]]:
        kind = record["event"]
        t = float(record["t"])
        if kind == "admit":
            rid = int(record["request_id"])
            self.open[rid] = {
                "request_id": rid, "model": str(record.get("model", "")),
                "images": int(record.get("images", 0)), "t_arrival": t,
                **extra}
        elif kind == "dispatch":
            ids = [int(i) for i in record.get("request_ids", [])]
            rows = [self.open[rid] for rid in ids if rid in self.open]
            batch = {"t_batch_ready": max((r["t_arrival"] for r in rows),
                                          default=t),
                     "t_dispatch": t, "device": str(record["device"]),
                     "dispatch_seq": self._jobs,
                     "batch_n_requests": int(record.get("n_requests",
                                                        len(ids))),
                     "batch_request_ids": tuple(ids), **extra}
            if "sparsity" in record:
                batch["sparsity"] = record["sparsity"]
            for row in rows:
                row.update(batch)
            self._jobs += 1
        elif kind == "probe":
            self._jobs += 1
        elif kind == "complete":
            row = self._close(record, t)
            row.setdefault("t_batch_ready", row["t_arrival"])
            row.setdefault("t_dispatch", t)
            row.setdefault("device", str(record.get("device", "")))
            row.update(t_end=t, outcome=OUTCOME_COMPLETED,
                       energy_j=float(record.get("energy", 0.0)),
                       slo_ok=bool(record.get("slo_ok", True)), **extra)
            return row
        elif kind == "drop":
            row = self._close(record, t)
            row.update(t_batch_ready=t, t_dispatch=t, t_end=t,
                       outcome=str(record.get("reason", "unknown")),
                       slo_ok=False, cause=str(record.get("cause", "")),
                       **extra)
            return row
        return None

    def _close(self, record: Dict[str, Any], t: float) -> Dict[str, Any]:
        """Pop the record's open row; a request the log never admitted
        (a ``queue_full`` drop) starts and ends at ``t``."""
        rid = int(record["request_id"])
        row = self.open.pop(rid, None)
        if row is None:
            row = {"request_id": rid, "model": str(record.get("model", "")),
                   "images": 0, "t_arrival": t}
        return row


@dataclass
class DeviceTrack:
    """Per-device occupancy reconstructed from the event log."""

    name: str
    jobs: List[Tuple[float, float, str]] = field(default_factory=list)
    probes: List[Tuple[float, float]] = field(default_factory=list)
    markers: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return (sum(end - start for start, end, _ in self.jobs)
                + sum(end - start for start, end in self.probes))


class ServingTimeline:
    """Structured view of one serving run (see module docstring)."""

    def __init__(self) -> None:
        self.requests: Dict[int, RequestTrace] = {}
        self.devices: Dict[str, DeviceTrack] = {}
        self.queue_depth: List[Tuple[float, int]] = []
        self.burn_spans: List[Tuple[float, float, Dict[str, Any]]] = []
        self.makespan_s = 0.0
        self.n_events = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Sequence[Dict[str, Any]]
                    ) -> "ServingTimeline":
        """Rebuild the run's structure from its event log."""
        tl = cls()
        tl.n_events = len(events)
        lifecycles = RequestLifecycles()
        depth = 0

        def device_track(name: str) -> DeviceTrack:
            track = tl.devices.get(name)
            if track is None:
                track = DeviceTrack(name)
                tl.devices[name] = track
            return track

        for event in events:
            kind = event["event"]
            t = float(event["t"])
            tl.makespan_s = max(tl.makespan_s, t)
            if kind == "drop" and event.get("reason") != "queue_full" \
                    and int(event["request_id"]) in lifecycles.open:
                depth -= 1
                tl.queue_depth.append((t, depth))
            row = lifecycles.feed(event)
            if row is not None:
                tl.requests[row["request_id"]] = RequestTrace(**row)
            elif kind == "admit":
                depth += 1
                tl.queue_depth.append((t, depth))
            elif kind == "dispatch":
                n_ids = len(event.get("request_ids", []))
                label = (f"{event.get('model', 'job')}"
                         f"x{event.get('images', '?')}"
                         f" ({event.get('n_requests', n_ids)} req)")
                device_track(str(event["device"])).jobs.append(
                    (t, float(event.get("predicted_done", t)), label))
                depth -= n_ids
                tl.queue_depth.append((t, depth))
            elif kind == "probe":
                duration = float(event.get("duration", 0.0))
                device_track(str(event["device"])).probes.append(
                    (t, t + duration))
                tl.makespan_s = max(tl.makespan_s, t + duration)
            elif kind in _DEVICE_MARKERS:
                device_track(str(event["device"])).markers.append(
                    (t, kind))
        return tl

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ServingTimeline":
        events, _ = read_event_log(path)
        return cls.from_events(events)

    # ------------------------------------------------------------------
    def add_burn_spans(
            self,
            rows: Sequence[Tuple[str, float, float, Dict[str, Any]]]
    ) -> None:
        """Attach ``slo_burn`` alert spans (from
        :meth:`~repro.obs.burnrate.BurnRateMonitor.span_rows`) to the
        scheduler track of the Chrome export."""
        for _name, t_start, t_end, attrs in rows:
            self.burn_spans.append((t_start, t_end, dict(attrs)))

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def to_chrome_trace(self, sampled_ids: Optional[Set[int]] = None,
                        max_request_tracks: int = 250
                        ) -> Dict[str, Any]:
        """Render the run as Chrome ``trace_event`` JSON.

        ``sampled_ids`` restricts the per-request tracks (e.g. to the
        request tracer's sampled set); device and scheduler tracks
        always cover the full log.  At most ``max_request_tracks``
        request rows are emitted (slowest first) so huge runs stay
        loadable; the cap is recorded in ``metadata.request_tracks``.
        """
        out: List[Dict[str, Any]] = []
        device_names = sorted(self.devices)
        pid_of = {name: i + 1 for i, name in enumerate(device_names)}
        requests_pid = len(device_names) + 1

        def meta(pid: int, name: str, tid: Optional[int] = None
                 ) -> None:
            record: Dict[str, Any] = {
                "ph": "M", "pid": pid,
                "name": ("thread_name" if tid is not None
                         else "process_name"),
                "args": {"name": name}}
            if tid is not None:
                record["tid"] = tid
            out.append(record)

        meta(0, "scheduler")
        meta(0, "queue", 0)
        meta(0, "slo_burn", 1)
        for name in device_names:
            meta(pid_of[name], f"device {name}")
            meta(pid_of[name], "jobs", 0)
            meta(pid_of[name], "probes", 1)
        meta(requests_pid, "requests")

        for t, depth in self.queue_depth:
            out.append({"ph": "C", "pid": 0, "tid": 0,
                        "name": "queue_depth", "ts": t * _US,
                        "args": {"depth": depth}})
        for t_start, t_end, attrs in self.burn_spans:
            out.append({"ph": "X", "pid": 0, "tid": 1,
                        "name": "slo_burn", "cat": "slo",
                        "ts": t_start * _US,
                        "dur": max(0.0, (t_end - t_start) * _US),
                        "args": attrs})

        for name in device_names:
            track = self.devices[name]
            pid = pid_of[name]
            for t_start, t_end, label in track.jobs:
                out.append({"ph": "X", "pid": pid, "tid": 0,
                            "name": label, "cat": "dispatch",
                            "ts": t_start * _US,
                            "dur": max(0.0, (t_end - t_start) * _US),
                            "args": {}})
            for t_start, t_end in track.probes:
                out.append({"ph": "X", "pid": pid, "tid": 1,
                            "name": "probe", "cat": "recovery",
                            "ts": t_start * _US,
                            "dur": max(0.0, (t_end - t_start) * _US),
                            "args": {}})
            for t, kind in track.markers:
                out.append({"ph": "i", "pid": pid, "tid": 0,
                            "name": kind, "cat": "recovery",
                            "ts": t * _US, "s": "t"})

        rows = [row for row in self.requests.values()
                if sampled_ids is None
                or row.request_id in sampled_ids]
        rows.sort(key=lambda r: (-r.latency_s, r.request_id))
        shown = rows[:max_request_tracks]
        for row in shown:
            tid = row.request_id
            base = {"pid": requests_pid, "tid": tid, "cat": "request"}
            if row.queue_s > 0.0 or row.completed:
                out.append({**base, "ph": "X", "name": "queued",
                            "ts": row.t_arrival * _US,
                            "dur": max(0.0, row.queue_s * _US),
                            "args": {"request_id": row.request_id,
                                     "model": row.model}})
            if row.completed:
                out.append({**base, "ph": "X", "name": "batched",
                            "ts": row.t_batch_ready * _US,
                            "dur": max(0.0, row.batch_s * _US),
                            "args": {}})
                out.append({**base, "ph": "X", "name": "dispatched",
                            "ts": row.t_dispatch * _US,
                            "dur": max(0.0, row.service_s * _US),
                            "args": {"device": row.device,
                                     "energy_j": row.energy_j,
                                     "slo_ok": row.slo_ok}})
            else:
                out.append({**base, "ph": "i", "name": row.outcome,
                            "ts": row.t_end * _US, "s": "t",
                            "args": ({"cause": row.cause}
                                     if row.cause else {})})
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "metadata": {
                "format": "powerlens-serving-timeline",
                "events": self.n_events,
                "requests": len(self.requests),
                "request_tracks": len(shown),
                "request_tracks_dropped": len(rows) - len(shown),
                "makespan_s": self.makespan_s,
            },
        }

    # ------------------------------------------------------------------
    # critical-path analysis
    # ------------------------------------------------------------------
    def critical_path_rows(self) -> List[RequestTrace]:
        """Completed requests, slowest first (ties by id)."""
        rows = [r for r in self.requests.values() if r.completed]
        rows.sort(key=lambda r: (-r.latency_s, r.request_id))
        return rows

    def format_report(self, top_k: int = 10) -> str:
        """Human-readable critical-path breakdown, per-device
        occupancy, and the top-``top_k`` slowest requests."""
        lines: List[str] = [
            f"timeline: {self.n_events} events, "
            f"{len(self.requests)} requests "
            f"({sum(1 for r in self.requests.values() if r.completed)}"
            f" completed), makespan {self.makespan_s:.3f} s"]
        rows = self.critical_path_rows()
        if rows:
            lines.append("")
            lines.append("critical path (completed requests, ms):")
            header = (f"{'component':>10s} {'p50':>9s} {'p90':>9s} "
                      f"{'p99':>9s} {'mean':>9s} {'share':>7s}")
            lines.append(header)
            lines.append("-" * len(header))
            total_mean = _mean([r.latency_s for r in rows])
            for label, values in (
                    ("queue", [r.queue_s for r in rows]),
                    ("batch", [r.batch_s for r in rows]),
                    ("service", [r.service_s for r in rows]),
                    ("total", [r.latency_s for r in rows])):
                ordered = sorted(values)
                mean = _mean(values)
                share = mean / total_mean if total_mean else 0.0
                lines.append(
                    f"{label:>10s}"
                    f" {_q(ordered, 0.50) * 1e3:>9.2f}"
                    f" {_q(ordered, 0.90) * 1e3:>9.2f}"
                    f" {_q(ordered, 0.99) * 1e3:>9.2f}"
                    f" {mean * 1e3:>9.2f}"
                    f" {share * 100:>6.1f}%")
        if self.devices:
            lines.append("")
            lines.append("per-device occupancy:")
            header = (f"{'device':>10s} {'jobs':>5s} {'probes':>6s} "
                      f"{'busy':>9s} {'occupancy':>9s}")
            lines.append(header)
            lines.append("-" * len(header))
            for name in sorted(self.devices):
                track = self.devices[name]
                occ = (track.busy_s / self.makespan_s
                       if self.makespan_s else 0.0)
                lines.append(
                    f"{name:>10s} {len(track.jobs):>5d} "
                    f"{len(track.probes):>6d} {track.busy_s:>7.3f} s "
                    f"{occ * 100:>8.1f}%")
        if rows and top_k > 0:
            lines.append("")
            lines.append(f"top {min(top_k, len(rows))} slowest "
                         f"requests (ms):")
            header = (f"{'request':>8s} {'model':>12s} {'total':>8s} "
                      f"{'queue':>8s} {'batch':>8s} {'service':>8s} "
                      f"{'device':>10s}  slo")
            lines.append(header)
            lines.append("-" * len(header))
            for row in rows[:top_k]:
                lines.append(
                    f"{row.request_id:>8d} {row.model:>12s} "
                    f"{row.latency_s * 1e3:>8.2f} "
                    f"{row.queue_s * 1e3:>8.2f} "
                    f"{row.batch_s * 1e3:>8.2f} "
                    f"{row.service_s * 1e3:>8.2f} "
                    f"{row.device:>10s}  "
                    f"{'ok' if row.slo_ok else 'VIOLATED'}")
        return "\n".join(lines)


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _q(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of pre-sorted values (shared ranking)."""
    if not ordered:
        return 0.0
    return ordered[nearest_rank_index(len(ordered), q)]


# ----------------------------------------------------------------------
# schema validation (used by tests and the CI smoke)
# ----------------------------------------------------------------------
def validate_chrome_trace(payload: Any) -> None:
    """Raise ``ValueError`` unless ``payload`` is structurally valid
    Chrome ``trace_event`` JSON (object format, the subset we emit)."""
    if not isinstance(payload, dict):
        raise ValueError("trace must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in ("X", "C", "M", "i"):
            raise ValueError(f"{where}: unknown ph {ph!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"{where}: missing pid")
        if ph == "M":
            if event["name"] not in ("process_name", "thread_name"):
                raise ValueError(f"{where}: bad metadata {event['name']!r}")
            args = event.get("args")
            if not (isinstance(args, dict)
                    and isinstance(args.get("name"), str)):
                raise ValueError(f"{where}: metadata needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts):
            raise ValueError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float))
                    or not math.isfinite(dur) or dur < 0):
                raise ValueError(f"{where}: bad dur {dur!r}")
        if ph == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: counter needs args")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where}: instant needs scope s")
