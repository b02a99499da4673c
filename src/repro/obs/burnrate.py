"""Multi-window SLO burn-rate monitoring over the serving event stream.

Implements the SRE-style error-budget burn alert: with an availability
objective ``o`` (say 0.99), the error budget is ``1 - o`` and the
*burn rate* of a window is ``bad_fraction / (1 - o)`` — burn 1.0
spends the budget exactly at the allowed pace, burn 10 spends it 10×
too fast.  A single window either alerts late (long window) or flaps
(short window); pairing a **fast** and a **slow** window and requiring
*both* to exceed the threshold gives quick detection with automatic
reset once the bad fraction subsides.

The monitor subscribes to the scheduler's canonical record stream
(:meth:`BurnRateMonitor.consume`) and reads its request-terminal
records in virtual time — completions carry their SLO verdict, every
drop counts as bad — and is strictly observe-only: it
never touches an RNG or the scheduler's state, so enabling it cannot
perturb the canonical event log (property-tested).  Alert episodes are
recorded as ``slo_burn`` spans (start/end in virtual time, peak burns
as attributes) and the registry from :meth:`BurnRateMonitor.metrics`
exposes ``powerlens_slo_burn_fast``/``_slow`` peak-burn gauges plus a
``powerlens_slo_burn_alerts_total`` counter, mergeable into the run's
fleet metrics.

Calibration contract (pinned in ``tests/test_obs_burnrate.py``): on a
clean, fault-free run of every governor×policy conformance cell the
monitor fires **zero** alerts, while an injected fault storm (tiny
SLOs or mass drops) is detected.  The ``min_events`` floor keeps a
single unlucky request at the start of a run from tripping the fast
window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["BurnRateConfig", "BurnAlert", "BurnRateMonitor"]


@dataclass(frozen=True)
class BurnRateConfig:
    """Knobs for :class:`BurnRateMonitor`.

    ``objective`` is the availability target (fraction of requests
    that must finish within their SLO); ``fast_window_s`` and
    ``slow_window_s`` are the paired lookback windows in virtual
    seconds; an alert requires the burn of *both* windows to reach
    ``threshold`` with at least ``min_events`` requests in the fast
    window.
    """

    objective: float = 0.99
    fast_window_s: float = 0.5
    slow_window_s: float = 2.0
    threshold: float = 4.0
    min_events: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ValueError("fast window must not exceed slow window")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnAlert:
    """One closed alert episode (virtual time)."""

    t_start: float
    t_end: float
    peak_fast_burn: float
    peak_slow_burn: float
    events: int
    bad_events: int

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


class _Window:
    """Sliding event window over virtual time."""

    __slots__ = ("window_s", "events", "bad")

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self.events: Deque[Tuple[float, bool]] = deque()
        self.bad = 0

    def observe(self, t: float, ok: bool) -> None:
        self.events.append((t, ok))
        if not ok:
            self.bad += 1
        self.advance(t)

    def advance(self, t: float) -> None:
        cutoff = t - self.window_s
        events = self.events
        while events and events[0][0] <= cutoff:
            _, ok = events.popleft()
            if not ok:
                self.bad -= 1

    def bad_fraction(self) -> float:
        if not self.events:
            return 0.0
        return self.bad / len(self.events)


class BurnRateMonitor:
    """Fast/slow error-budget burn monitor (see module docstring)."""

    def __init__(self, config: Optional[BurnRateConfig] = None) -> None:
        self.config = config or BurnRateConfig()
        self._fast = _Window(self.config.fast_window_s)
        self._slow = _Window(self.config.slow_window_s)
        self.events = 0
        self.bad_events = 0
        self.peak_fast_burn = 0.0
        self.peak_slow_burn = 0.0
        self.alerts: List[BurnAlert] = []
        self._episode: Optional[Dict[str, Any]] = None
        self._finalized = False

    # ------------------------------------------------------------------
    def begin_run(self, policy: str, n_healthy: int) -> None:
        """Subscriber protocol: the monitor needs nothing from the
        run's start."""

    def consume(self, record: Dict[str, Any], source: Any = None) -> None:
        """Subscriber step: a ``complete`` record carries its SLO
        verdict, every ``drop`` counts as bad; other records pass."""
        kind = record["event"]
        if kind == "complete":
            self.observe(record["t"], record["slo_ok"])
        elif kind == "drop":
            self.observe(record["t"], False)

    def observe(self, t: float, ok: bool) -> None:
        """Record one request-terminal event at virtual time ``t``
        (``ok`` is the SLO verdict; drops pass ``False``)."""
        self.events += 1
        if not ok:
            self.bad_events += 1
        self._fast.observe(t, ok)
        self._slow.observe(t, ok)
        budget = self.config.budget
        fast = self._fast.bad_fraction() / budget
        slow = self._slow.bad_fraction() / budget
        self.peak_fast_burn = max(self.peak_fast_burn, fast)
        self.peak_slow_burn = max(self.peak_slow_burn, slow)
        firing = (fast >= self.config.threshold
                  and slow >= self.config.threshold
                  and len(self._fast.events) >= self.config.min_events)
        if firing and self._episode is None:
            self._episode = {"t_start": t, "peak_fast": fast,
                             "peak_slow": slow, "events": 1,
                             "bad": 0 if ok else 1}
        elif self._episode is not None:
            if firing:
                episode = self._episode
                episode["peak_fast"] = max(episode["peak_fast"], fast)
                episode["peak_slow"] = max(episode["peak_slow"], slow)
                episode["events"] += 1
                episode["bad"] += 0 if ok else 1
            else:
                self._close_episode(t)

    def finalize(self, t_end: float) -> None:
        """Close the run at virtual ``t_end`` (idempotent) — any
        still-firing episode ends here."""
        if self._finalized:
            return
        self._finalized = True
        if self._episode is not None:
            self._close_episode(t_end)

    def _close_episode(self, t: float) -> None:
        episode = self._episode
        assert episode is not None
        self._episode = None
        self.alerts.append(BurnAlert(
            t_start=episode["t_start"], t_end=t,
            peak_fast_burn=episode["peak_fast"],
            peak_slow_burn=episode["peak_slow"],
            events=episode["events"], bad_events=episode["bad"]))

    # ------------------------------------------------------------------
    @property
    def alert_count(self) -> int:
        return len(self.alerts) + (1 if self._episode is not None else 0)

    def span_rows(self) -> List[Tuple[str, float, float, Dict[str, Any]]]:
        """Alert episodes as ``(name, t_start, t_end, attrs)`` rows for
        span export (``slo_burn`` spans)."""
        rows: List[Tuple[str, float, float, Dict[str, Any]]] = []
        for alert in self.alerts:
            rows.append(("slo_burn", alert.t_start, alert.t_end, {
                "peak_fast_burn": alert.peak_fast_burn,
                "peak_slow_burn": alert.peak_slow_burn,
                "events": alert.events,
                "bad_events": alert.bad_events,
                "objective": self.config.objective,
                "threshold": self.config.threshold,
            }))
        return rows

    def metrics(self) -> MetricsRegistry:
        """Burn accounting as a mergeable registry
        (``powerlens_slo_burn_*``)."""
        registry = MetricsRegistry()
        registry.gauge(
            "powerlens_slo_burn_fast",
            help="Peak fast-window error-budget burn rate").set(
            self.peak_fast_burn)
        registry.gauge(
            "powerlens_slo_burn_slow",
            help="Peak slow-window error-budget burn rate").set(
            self.peak_slow_burn)
        registry.counter(
            "powerlens_slo_burn_alerts_total",
            help="Burn-rate alert episodes fired").inc(
            len(self.alerts))
        registry.counter(
            "powerlens_slo_burn_events_total",
            help="Request-terminal events observed by the burn monitor"
        ).inc(self.events)
        registry.counter(
            "powerlens_slo_burn_bad_events_total",
            help="SLO-violating or dropped requests observed").inc(
            self.bad_events)
        return registry

    def summary(self) -> Dict[str, Any]:
        """Small JSON-friendly digest for CLI reporting."""
        return {
            "objective": self.config.objective,
            "fast_window_s": self.config.fast_window_s,
            "slow_window_s": self.config.slow_window_s,
            "threshold": self.config.threshold,
            "events": self.events,
            "bad_events": self.bad_events,
            "peak_fast_burn": self.peak_fast_burn,
            "peak_slow_burn": self.peak_slow_burn,
            "alerts": len(self.alerts),
            "alert_spans": [
                {"t_start": a.t_start, "t_end": a.t_end,
                 "peak_fast_burn": a.peak_fast_burn,
                 "peak_slow_burn": a.peak_slow_burn}
                for a in self.alerts],
        }
