"""Ledger-driven replanning: the closed self-healing loop, as a policy.

The preset runtime (:class:`~repro.governors.preset.PresetGovernor`)
executes plans computed *offline*; when the workload drifts (batch
size, input mix) the preset levels silently stop being optimal and the
:class:`~repro.obs.ledger.EnergyLedger` flags block after block as
mispredicted — but nothing acts.  A :class:`ReplanPolicy`, passed to
the runtime as ``replan=``, closes that loop **between inference
jobs**:

1. **observe** — after each job the caller hands the governor the
   job's ledger (built with an evaluator so misprediction flags are
   populated) plus the count of new anomalies;
2. **synthesize** — every mispredicted block's level is nudged toward
   the ledger's exhaustive-sweep winner, *bounded* to ``±max_nudge``
   levels per correction so one noisy observation can never teleport
   the plan;
3. **re-score** — the candidate is evaluated against the current plan
   with :meth:`~repro.hw.analytic.ProfileTable.plan_energy_time` at the
   observed batch size; it is adopted only when the predicted energy
   improves by at least ``min_improvement_frac`` without exceeding the
   ``max_slowdown_frac`` latency guard;
4. **hot-swap + verify** — an adopted correction replaces the plan for
   the *next* job (verify-after-swap): if that job's measured EE
   regresses by more than ``regression_tolerance`` relative to the
   pre-swap job, the policy rolls back to the last-good plan and
   freezes replanning for ``cooldown_jobs`` jobs.  Anything worse —
   failing actuators mid-job — is still handled by the runtime's
   retry→pin→safe-level degradation ladder.

The governor writes every adopted or rolled-back plan back into the
slot the observed job selected, so corrections stick per family member.
Every decision is counted in :class:`ReplanHealth`, mirrored to
``powerlens_replan_*_total`` metrics and recorded as ``replan`` spans.

Determinism: the loop is pure arithmetic over the ledger and the
analytic table — no RNG, no clock.  On a fault-free run of plans that
are already sweep-optimal at the observed batch size nothing ever
triggers, so a replanning governor issues byte-identical DVFS commands
to the static one (property-tested).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.governors.family import FrequencyPlan, PlanFamily, PlanStep
from repro.governors.preset import PresetGovernor
from repro.hw.analytic import AnalyticEvaluator
from repro.obs import Observability, NULL_OBS

__all__ = ["ReplanHealth", "ReplanPolicy", "AdaptivePresetGovernor",
           "AdaptivePlanFamilyGovernor"]


@dataclass
class ReplanHealth:
    """Counters for every replanning decision (cumulative across jobs —
    unlike :class:`~repro.governors.preset.RuntimeHealth`, this is not
    reset per run)."""

    #: Candidate corrections synthesized from ledger feedback.
    proposed: int = 0
    #: Corrections that beat the re-scoring gate and were hot-swapped.
    adopted: int = 0
    #: Corrections rejected by the energy/latency re-scoring gate.
    rejected: int = 0
    #: Adopted corrections whose verify job confirmed the improvement.
    confirmed: int = 0
    #: Adopted corrections rolled back after a measured EE regression.
    rollbacks: int = 0
    #: Observations skipped inside a post-rollback/reject cooldown.
    frozen_skips: int = 0
    #: Individual block levels changed across all adopted corrections.
    nudged_blocks: int = 0
    #: Verdicts evicted from the preset validation cache (plan families
    #: mint one fingerprint per member and can churn a small cache).
    validation_evictions: int = 0

    @property
    def active(self) -> bool:
        """True when the adaptive loop ever acted."""
        return self.adopted > 0 or self.rejected > 0 \
            or self.rollbacks > 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class _Trial:
    """One hot-swapped correction awaiting its verify job."""

    previous: FrequencyPlan          # last-good plan to roll back to
    baseline_ee: float               # measured EE of the pre-swap job
    batch_size: int                  # batch the baseline was measured at
    sparsity: float = 0.0            # sparsity of the baseline job


@dataclass(eq=False)
class ReplanPolicy:
    """The replan loop's knobs and state (see module docstring).

    Parameters
    ----------
    evaluator:
        Analytic oracle used to re-score candidate corrections.  Must
        model the same platform the governor runs on.
    max_nudge:
        Per-block correction bound (levels per adopted correction).
    min_improvement_frac:
        Minimum predicted relative energy improvement for adoption.
        Measured over the *whole plan*, so a per-block saving is diluted
        by the untouched blocks — the default is deliberately small.
    max_slowdown_frac:
        Maximum predicted relative time increase a correction may cost.
    regression_tolerance:
        Measured-EE slack of the verify job before rolling back.
    cooldown_jobs:
        Jobs replanning stays frozen after a rollback or rejection.
    obs:
        Observability bundle; counters land in ``obs.metrics`` and
        decisions are recorded as ``replan`` spans on ``obs.tracer``.
    """

    evaluator: AnalyticEvaluator
    max_nudge: int = 2
    min_improvement_frac: float = 0.001
    max_slowdown_frac: float = 0.25
    regression_tolerance: float = 0.02
    cooldown_jobs: int = 2
    obs: Optional[Observability] = None
    health: ReplanHealth = field(default_factory=ReplanHealth, init=False)
    _trial: Dict[str, _Trial] = field(default_factory=dict, init=False,
                                      repr=False)
    _freeze: Dict[str, int] = field(default_factory=dict, init=False,
                                    repr=False)

    def __post_init__(self) -> None:
        if self.max_nudge < 1:
            raise ValueError("max_nudge must be >= 1")
        if not 0.0 <= self.min_improvement_frac < 1.0:
            raise ValueError("min_improvement_frac must be in [0, 1)")
        if self.max_slowdown_frac < 0:
            raise ValueError("max_slowdown_frac must be >= 0")
        if self.regression_tolerance < 0:
            raise ValueError("regression_tolerance must be >= 0")
        if self.cooldown_jobs < 0:
            raise ValueError("cooldown_jobs must be >= 0")
        if self.obs is None:
            self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def bump(self, event: str, n: int = 1) -> None:
        """Add ``n`` to the :class:`ReplanHealth` counter ``event`` and
        to its ``powerlens_replan_<event>_total`` metric."""
        setattr(self.health, event, getattr(self.health, event) + n)
        self.obs.metrics.counter(f"powerlens_replan_{event}_total").inc(n)

    def _span(self, action: str, graph_name: str,
              **attrs: object) -> None:
        self.obs.tracer.record("replan", 0.0, action=action,
                               graph=graph_name, **attrs)

    # ------------------------------------------------------------------
    # the between-jobs feedback entry point
    # ------------------------------------------------------------------
    def observe(self, graph, batch_size: int, ledger,
                plan: Optional[FrequencyPlan], new_anomalies: int = 0,
                sparsity: float = 0.0, degraded: bool = False
                ) -> Tuple[str, Optional[FrequencyPlan]]:
        """Judge one finished job that ran ``plan``.

        ``ledger`` must be an :class:`~repro.obs.ledger.EnergyLedger`
        built from the job's trace **with that plan and an evaluator
        attached** (so misprediction flags are populated) — and, for
        sparse jobs, with the job's ``sparsity`` so the sweep ran
        against the workload actually executed.  ``degraded`` says the
        runtime walked its degradation ladder during the job.

        Returns ``(action, new plan)``: the action is ``"frozen"``,
        ``"rollback"``, ``"none"``, ``"reject"`` or ``"adopt"``; the new
        plan (the last-good plan on rollback, the correction on adopt,
        else ``None``) is for the governor to put in force.
        """
        name = graph.name
        if self._freeze.get(name, 0) > 0:
            self._freeze[name] -= 1
            self.bump("frozen_skips")
            return "frozen", None

        measured_ee: Optional[float] = None
        if ledger.images > 0 and ledger.total_energy_j > 0:
            measured_ee = ledger.images / ledger.total_energy_j

        # -- verify-after-swap: judge the pending trial, if any ---------
        trial = self._trial.pop(name, None)
        if trial is not None and measured_ee is not None \
                and trial.batch_size == int(batch_size) \
                and trial.sparsity == float(sparsity):
            floor = trial.baseline_ee * (1.0 - self.regression_tolerance)
            if measured_ee < floor:
                self._freeze[name] = self.cooldown_jobs
                self.bump("rollbacks")
                self._span("rollback", name, measured_ee=measured_ee,
                           baseline_ee=trial.baseline_ee)
                return "rollback", trial.previous
            self.bump("confirmed")
            self._span("confirm", name, measured_ee=measured_ee,
                       baseline_ee=trial.baseline_ee)
        # (a trial whose verify job ran at a different batch size is
        # inconclusive: keep the correction, drop the trial)

        # -- trigger: does this job's evidence warrant a correction? ----
        if not ledger.mispredicted_blocks() and new_anomalies <= 0 \
                and not degraded:
            return "none", None
        if plan is None or measured_ee is None:
            return "none", None

        candidate = self._synthesize(plan, ledger)
        if candidate is None:
            return "none", None
        self.bump("proposed")

        if not self._rescore(graph, batch_size, plan, candidate,
                             sparsity):
            self._freeze[name] = self.cooldown_jobs
            self.bump("rejected")
            self._span("reject", name)
            return "reject", None

        n_changed = sum(1 for a, b in zip(plan.steps, candidate.steps)
                        if a.level != b.level)
        self._trial[name] = _Trial(previous=plan,
                                   baseline_ee=measured_ee,
                                   batch_size=int(batch_size),
                                   sparsity=float(sparsity))
        self.bump("adopted")
        self.bump("nudged_blocks", n_changed)
        self._span("adopt", name, nudged_blocks=n_changed)
        return "adopt", candidate

    # ------------------------------------------------------------------
    # correction synthesis / re-scoring
    # ------------------------------------------------------------------
    def _synthesize(self, plan: FrequencyPlan,
                    ledger) -> Optional[FrequencyPlan]:
        """Bounded correction: nudge each mispredicted block's level at
        most ``max_nudge`` steps toward the ledger's sweep winner."""
        targets: Dict[int, int] = {
            row.op_start: row.best_level
            for row in ledger.mispredicted_blocks()
            if row.best_level is not None
        }
        if not targets:
            return None
        steps: List[PlanStep] = []
        changed = False
        for step in plan.steps:
            target = targets.get(step.op_index)
            if target is None or target == step.level:
                steps.append(step)
                continue
            delta = max(-self.max_nudge,
                        min(self.max_nudge, target - step.level))
            steps.append(PlanStep(step.op_index, step.level + delta))
            changed = True
        if not changed:
            return None
        return FrequencyPlan(graph_name=plan.graph_name, steps=steps,
                             graph_fingerprint=plan.graph_fingerprint)

    def _rescore(self, graph, batch_size: int, plan: FrequencyPlan,
                 candidate: FrequencyPlan,
                 sparsity: float = 0.0) -> bool:
        """Analytic gate: the candidate must beat the current plan on
        energy without blowing the latency guard."""
        table = self.evaluator.profile_table(graph, int(batch_size),
                                             float(sparsity))
        starts = [s.op_index for s in plan.steps] + [table.n_ops]
        blocks = [list(range(starts[i], starts[i + 1]))
                  for i in range(len(plan.steps))]
        clamp = table.n_levels - 1
        cur = [min(max(s.level, 0), clamp) for s in plan.steps]
        new = [min(max(s.level, 0), clamp) for s in candidate.steps]
        e_cur, t_cur = table.plan_energy_time(blocks, cur)
        e_new, t_new = table.plan_energy_time(blocks, new)
        if e_cur <= 0:
            return False
        improves = e_new <= e_cur * (1.0 - self.min_improvement_frac)
        fits = t_new <= t_cur * (1.0 + self.max_slowdown_frac)
        return improves and fits


# ----------------------------------------------------------------------
# historical names: the runtime with a replan policy attached
# ----------------------------------------------------------------------
#: Constructor keywords the historical names route to the policy.
_POLICY_KNOBS = ("max_nudge", "min_improvement_frac", "max_slowdown_frac",
                 "regression_tolerance", "cooldown_jobs", "obs")


def _replanning(evaluator: AnalyticEvaluator,
                kwargs: Dict[str, object]) -> PresetGovernor:
    """The runtime with a policy; runtime counters share its metrics."""
    policy = ReplanPolicy(evaluator, **{
        k: kwargs.pop(k) for k in _POLICY_KNOBS if k in kwargs})
    return PresetGovernor(replan=policy, metrics=policy.obs.metrics,
                          **kwargs)


def AdaptivePresetGovernor(plans: Sequence[FrequencyPlan],
                           evaluator: AnalyticEvaluator,
                           name: str = "powerlens-adaptive",
                           **kwargs: object) -> PresetGovernor:
    """Historical name of ``PresetGovernor(plans,
    replan=ReplanPolicy(evaluator, ...))``."""
    return _replanning(evaluator, dict(kwargs, plans=plans, name=name))


def AdaptivePlanFamilyGovernor(families: Sequence[PlanFamily],
                               evaluator: AnalyticEvaluator,
                               name: str = "powerlens-family-adaptive",
                               **kwargs: object) -> PresetGovernor:
    """Historical name of ``PresetGovernor(families=...,
    replan=ReplanPolicy(evaluator, ...))``."""
    return _replanning(evaluator,
                       dict(kwargs, families=families, name=name))
