"""Preset governor: the PowerLens plan runtime.

This is the runtime half of PowerLens (section 2.1.4): DVFS
instrumentation points are preset *before* each power block, each
carrying the block's target level, so the frequency is already correct
when the block's first kernel launches — no reactive lag and no
ping-pong.  The plans themselves are produced offline by
:class:`repro.core.pipeline.PowerLens` (its analyze and oracle plans,
the ablations) or by the closed-form
:func:`~repro.governors.family.analytic_plan`.

Plan selection and replanning: the governor holds plans and plan
families (:class:`~repro.governors.family.PlanFamily`; a bare plan is a
size-1 family).  At ``on_job_start`` it installs the plan of the job's
*slot* — its graph plus the grid point of the bucket its ``(batch,
sparsity)`` falls in; this is the only selection path.  With
``replan=`` (a :class:`~repro.governors.adaptive.ReplanPolicy`), a plan
the policy adopts or rolls back to in :meth:`PresetGovernor.observe_job`
is written back into that slot.  The caller's families are never
mutated.

Resilience: real actuators fail.  In ``resilient`` mode (the default)
the governor verifies every switch result the simulator reports back
and walks a degradation ladder:

1. **retry** — a failed command is re-issued up to ``max_retries``
   times at the same decision point;
2. **pin** — when retries are exhausted, the block is pinned at the
   nearest achieved level and not fought over again this job;
3. **fall back** — after ``max_block_failures`` pinned blocks in one
   job, the plan is abandoned and the job finishes at a safe static
   level (the plan's median level unless ``safe_level`` is given).

Plans are validated when installed (levels clamped to the platform
ladder) and again at job start (operator indices must fit the graph,
and a recorded graph fingerprint must match).  Every decision is
counted in :class:`RuntimeHealth`.  With ``resilient=False`` the
governor is the naive fire-and-forget runtime used as the robustness
baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set, Tuple

from repro.governors.base import Governor
from repro.governors.family import (
    Bucket, FrequencyPlan, PlanFamily, PlanStep)
from repro.hw.dvfs import SwitchResult
from repro.hw.faults import OUTCOME_CAPPED
from repro.hw.perf import OpWork
from repro.hw.platform import PlatformSpec
from repro.obs.metrics import MetricsRegistry, NULL_METRICS

if TYPE_CHECKING:
    from repro.governors.adaptive import ReplanHealth, ReplanPolicy

__all__ = ["FrequencyPlan", "PlanStep", "RuntimeHealth",
           "PresetGovernor"]

#: A plan slot: graph name plus the ``(batch, sparsity)`` grid point of
#: the family bucket a job falls in.
Slot = Tuple[str, int, float]


@dataclass
class RuntimeHealth:
    """Counters for every resilience decision the preset runtime takes.

    All-zero means the run executed its plans exactly as computed.
    """

    #: Failed switch commands re-issued at the same decision point.
    switch_retries: int = 0
    #: Decision points where the retry budget ran out.
    switch_failures: int = 0
    #: Blocks pinned at the nearest achieved level after failures.
    blocks_pinned: int = 0
    #: Plans rejected at install/job start (bad indices, fingerprint).
    plans_rejected: int = 0
    #: Jobs that abandoned their plan for the safe static level.
    plan_fallbacks: int = 0
    #: Plan levels clamped to the platform ladder at install time.
    levels_clamped: int = 0
    #: Commands truncated by an external cap and honored as-is (the
    #: runtime holds what the environment allows and re-asserts later).
    caps_honored: int = 0

    @property
    def degraded(self) -> bool:
        """True when any fallback behaviour was exercised."""
        return (self.switch_failures > 0 or self.blocks_pinned > 0
                or self.plans_rejected > 0 or self.plan_fallbacks > 0)

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class PresetGovernor(Governor):
    """The plan runtime: applies each job's :class:`FrequencyPlan` at its
    instrumentation points (module docstring).

    Jobs whose graph has neither a plan nor a family run at
    ``fallback_level`` (maximum by default).  The CPU keeps the stock
    ondemand policy — the paper's PowerLens configures *only* the GPU.

    Parameters
    ----------
    plans:
        Bare plans, one per graph name; each is a size-1 family.
    families:
        Plan families, one per graph name; each job runs the member of
        the bucket its ``(batch, sparsity)`` falls in.
    replan:
        :class:`~repro.governors.adaptive.ReplanPolicy` that corrects
        plans between jobs from ledger feedback (:meth:`observe_job`);
        ``None`` is the static runtime.  A policy holds per-graph state,
        so give every governor its own.
    resilient:
        Verify every switch outcome and walk the degradation ladder
        (module docstring).  ``False`` gives the naive fire-and-forget
        runtime: like any real no-verify runtime it tracks the level it
        *believes* is in force (to skip redundant actuator writes) and
        never checks reality — a silently dropped or capped command
        poisons that belief for the rest of the job.  Fault-free, both
        modes issue identical commands and produce identical traces.
    max_retries:
        Re-issues per failed decision point before pinning the block.
    max_block_failures:
        Pinned blocks per job before abandoning the plan entirely.
    safe_level:
        Static level for abandoned-plan jobs; default is the plan's
        median level.
    validation_cache_size:
        Bound on the job-start validation-verdict cache (FIFO).  The
        default is 256 or twice the number of member plans, whichever
        is larger: every member has its own plan fingerprint, so many
        families sharing one device would thrash a fixed bound.
        Evictions are counted in ``validation_evictions`` (and in the
        replan policy's :class:`~repro.governors.adaptive.ReplanHealth`).
    """

    name = "powerlens"

    #: Floor of the validation-verdict cache bound (FIFO eviction).
    _VALIDATION_CACHE_SIZE = 256

    def __init__(self, plans: Sequence[FrequencyPlan] = (),
                 fallback_level: Optional[int] = None,
                 name: str = "powerlens",
                 resilient: bool = True,
                 max_retries: int = 2,
                 max_block_failures: int = 3,
                 safe_level: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 validation_cache_size: Optional[int] = None,
                 families: Sequence[PlanFamily] = (),
                 replan: Optional[ReplanPolicy] = None) -> None:
        super().__init__()
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_block_failures < 1:
            raise ValueError("max_block_failures must be >= 1")
        if validation_cache_size is not None and validation_cache_size < 1:
            raise ValueError("validation_cache_size must be >= 1")
        families = list(families)
        if len({f.graph_name for f in families}) != len(families):
            raise ValueError("one family per graph name")
        self.name = name
        self.resilient = resilient
        self.max_retries = max_retries
        self.max_block_failures = max_block_failures
        self.replan = replan
        self._safe_override = safe_level
        self._fallback = fallback_level
        # Observe-only mirror of RuntimeHealth: counters survive reset()
        # (metrics are cumulative across jobs; health is per-run).
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.health = RuntimeHealth()
        # Selection state: each graph's family, the plan currently in
        # force for it, and the corrections written back per slot.
        self._families: Dict[str, PlanFamily] = {}
        self._plans: Dict[str, FrequencyPlan] = {}
        self._slots: Dict[Slot, FrequencyPlan] = {}
        # Graphs given as families rather than bare plans: only their
        # selections are counted.
        self._counted: Set[str] = set()
        #: Member lookups performed (one per job with a family).
        self.family_selections = 0
        #: Lookups that swapped the installed plan to another member.
        self.family_switches = 0
        self._installed: Dict[str, FrequencyPlan] = {}
        for plan in plans:
            self.add_plan(plan)
        for family in families:
            self.add_family(family)
        # Instance attribute shadows the class-level floor.
        self._VALIDATION_CACHE_SIZE = validation_cache_size or max(
            self._VALIDATION_CACHE_SIZE,
            2 * sum(f.size for f in self._families.values()))
        # Verdict cache for the structural job-start validation, keyed
        # by (plan fingerprint, graph fingerprint): a fault storm that
        # re-enters the same (plan, graph) pair must not rescan the
        # graph's node list every job (bounded FIFO — replanning mints
        # new plan fingerprints over time).
        self._validation_cache: Dict[Tuple[str, str], bool] = {}
        #: Verdicts evicted from the bounded validation cache
        #: (cumulative — the cache itself survives reset()).
        self.validation_evictions = 0
        self._active: Optional[FrequencyPlan] = None
        self._pending: Dict[int, int] = {}
        self._pinned: Dict[int, int] = {}
        self._rejected_names: set = set()
        self._retries_left = 0
        self._block_failures = 0
        self._fallen_back = False
        self._expect_level: Optional[int] = None
        self._current_op: Optional[int] = None
        self._believed: Optional[int] = None

    def _count(self, event: str, n: int = 1) -> None:
        """Mirror one RuntimeHealth increment into the metrics registry
        (no-op on the default disabled registry)."""
        self.metrics.counter(f"powerlens_runtime_{event}_total").inc(n)

    @property
    def replan_health(self) -> Optional[ReplanHealth]:
        """The replan policy's counters (``None`` when static)."""
        return self.replan.health if self.replan is not None else None

    # ------------------------------------------------------------------
    # plans, families and slots
    # ------------------------------------------------------------------
    def plan_for(self, graph_name: str) -> Optional[FrequencyPlan]:
        """The plan in force for ``graph_name``: the member its last job
        selected (or the bare plan before any job)."""
        return self._plans.get(graph_name)

    def add_plan(self, plan: FrequencyPlan, batch_size: int = 1,
                 sparsity: float = 0.0) -> None:
        """Make ``plan`` its graph's plan: a size-1 family whose slot is
        the grid point ``(batch_size, sparsity)``.  A correction written
        back into that slot is dropped unless it is ``plan`` itself."""
        name = plan.graph_name
        self._families[name] = PlanFamily.of(plan, batch_size, sparsity)
        self._counted.discard(name)
        slot = (name, int(batch_size), float(sparsity))
        if self._slots.get(slot) is not plan:
            self._slots.pop(slot, None)
        self._use(plan)

    def add_family(self, family: PlanFamily) -> None:
        self._families[family.graph_name] = family
        self._counted.add(family.graph_name)

    def slot_plan(self, graph_name: str, batch_size: int,
                  sparsity: float) -> Optional[FrequencyPlan]:
        """The correction written back into the slot at grid point
        ``(batch_size, sparsity)``, if any."""
        return self._slots.get((graph_name, int(batch_size),
                                float(sparsity)))

    @staticmethod
    def _slot(family: PlanFamily, bucket: Bucket) -> Slot:
        return (family.graph_name,) + family.buckets.representative(bucket)

    def _use(self, plan: FrequencyPlan) -> None:
        """Put ``plan`` in force for its graph (installed at once when a
        platform is bound, else at the next reset)."""
        self._plans[plan.graph_name] = plan
        if self.platform is not None:
            self._install(plan)

    def _select(self, job) -> None:
        """Install the plan of ``job``'s slot: the correction written
        back there, else the family member of the job's bucket."""
        name = job.graph.name
        family = self._families.get(name)
        if family is None:
            return
        bucket = family.buckets.bucket_for(
            job.batch_size, getattr(job, "sparsity", 0.0))
        plan = self._slots.get(self._slot(family, bucket))
        if plan is None:
            plan = family.members[bucket]
        counted = name in self._counted
        if counted:
            self.family_selections += 1
            self._count("family_selections")
        current = self._plans.get(name)
        if current is not plan:
            if counted and current is not None:
                self.family_switches += 1
                self._count("family_switches")
            self._use(plan)

    def observe_job(self, graph, batch_size: int, ledger,
                    new_anomalies: int = 0,
                    sparsity: float = 0.0) -> str:
        """Feed one finished job's ledger to the replan policy and
        return its action (see
        :meth:`~repro.governors.adaptive.ReplanPolicy.observe`).

        A plan the policy adopts or rolls back to is put in force and
        written back into the slot the job selected — its graph plus
        the bucket of ``(batch_size, sparsity)``.
        """
        if self.replan is None:
            raise RuntimeError("observe_job needs a replan policy")
        action, plan = self.replan.observe(
            graph, batch_size, ledger, self._plans.get(graph.name),
            new_anomalies=new_anomalies, sparsity=sparsity,
            degraded=self.health.degraded)
        if plan is not None:
            self._use(plan)
            family = self._families[graph.name]
            bucket = family.buckets.bucket_for(batch_size, sparsity)
            self._slots[self._slot(family, bucket)] = plan
        return action

    # ------------------------------------------------------------------
    # installation / validation
    # ------------------------------------------------------------------
    def _install(self, plan: FrequencyPlan) -> None:
        """Clamp a plan onto the bound platform's ladder."""
        assert self.platform is not None
        clamped = plan.clamped(self.platform)
        if clamped is not plan:
            n_clamped = sum(
                1 for a, b in zip(plan.steps, clamped.steps)
                if a.level != b.level
            )
            self.health.levels_clamped += n_clamped
            self._count("levels_clamped", n_clamped)
        self._installed[plan.graph_name] = clamped

    def reset(self, platform: PlatformSpec) -> None:
        super().reset(platform)
        self.health = RuntimeHealth()
        self._installed = {}
        for plan in self._plans.values():
            self._install(plan)
        self._active = None
        self._pending = {}
        self._pinned = {}
        self._rejected_names = set()
        self._retries_left = 0
        self._block_failures = 0
        self._fallen_back = False
        self._expect_level = None
        self._current_op = None
        self._believed = None

    def initial_gpu_level(self) -> int:
        assert self.platform is not None
        if self._fallback is not None:
            level = self.platform.clamp_level(self._fallback)
        else:
            level = self.platform.max_level
        self._believed = level
        return level

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    def _validated_plan(self, job) -> Optional[FrequencyPlan]:
        """Installed plan for the job's graph, or ``None`` when absent
        or rejected by the structural checks.

        Verdicts are cached by ``(plan fingerprint, graph
        fingerprint)`` so repeated job starts on the same pair — e.g.
        every job of a fault storm that keeps re-entering the
        degradation ladder — skip the graph-node rescan.  The per-run
        rejection *counting* stays once per graph name regardless of
        where the verdict came from.
        """
        name = job.graph.name
        plan = self._installed.get(name)
        if plan is None:
            return None
        key = (plan.fingerprint(), job.graph.fingerprint())
        verdict = self._validation_cache.get(key)
        if verdict is None:
            n_ops = len(job.graph.compute_nodes())
            verdict = not (
                plan.max_op_index >= n_ops
                or (plan.graph_fingerprint is not None
                    and plan.graph_fingerprint != job.graph.fingerprint())
            )
            self._validation_cache[key] = verdict
            while len(self._validation_cache) > \
                    self._VALIDATION_CACHE_SIZE:
                self._validation_cache.pop(
                    next(iter(self._validation_cache)))
                self.validation_evictions += 1
                self._count("validation_evictions")
                if self.replan is not None:
                    self.replan.bump("validation_evictions")
        if not verdict:
            if name not in self._rejected_names:
                self._rejected_names.add(name)
                self.health.plans_rejected += 1
                self._count("plans_rejected")
            return None
        return plan

    def on_job_start(self, job_idx: int, job) -> Optional[int]:
        self._select(job)
        self._pinned = {}
        self._block_failures = 0
        self._fallen_back = False
        self._current_op = None
        self._active = self._validated_plan(job)
        if self._active is None:
            self._pending = {}
            return self._request(self.initial_gpu_level())
        self._pending = {
            s.op_index: s.level for s in self._active.steps
        }
        return None

    def on_op_start(self, job_idx: int, op_idx: int,
                    work: OpWork) -> Optional[int]:
        self._current_op = op_idx
        if not self.resilient:
            target = self._pending.get(op_idx)
            if target is None or target == self._believed:
                # Fire-and-forget: trust the belief, skip the redundant
                # write.  If an earlier command silently failed, this is
                # exactly where the naive runtime stays wrong.
                return None
            self._believed = target
            return target
        if self._fallen_back:
            return None
        if op_idx in self._pinned:
            # Block previously lost its retry budget: hold the level it
            # actually achieved, don't fight the actuator again.
            return self._request(self._pinned[op_idx], retries=0)
        if op_idx in self._pending:
            return self._request(self._pending[op_idx])
        return None

    def _request(self, level: int, retries: Optional[int] = None) -> int:
        """Arm the verify-after-switch machinery for one decision."""
        self._expect_level = level
        self._retries_left = (self.max_retries if retries is None
                              else retries)
        return level

    # ------------------------------------------------------------------
    # verify-after-switch (called by the simulator after every
    # actuation it performs on our behalf)
    # ------------------------------------------------------------------
    def on_switch_result(self,
                         result: SwitchResult) -> Optional[int]:
        if not self.resilient:
            return None
        expected = self._expect_level
        if expected is None:
            # A switch we did not ask for (thermal / cap enforcement):
            # nothing to verify.
            return None
        assert self.platform is not None
        expected = self.platform.clamp_level(expected)
        if result.achieved_level == expected:
            self._expect_level = None
            return None
        if result.outcome == OUTCOME_CAPPED:
            # An external agent (thermal governor, power budget) clamped
            # the command.  That is not an actuator failure: retrying is
            # futile while the cap holds, and pinning would outlive it.
            # Hold what the environment allows and keep the plan armed —
            # the next decision point re-asserts the target (a free noop
            # while capped) and recovers the moment the cap lifts.
            self.health.caps_honored += 1
            self._count("caps_honored")
            self._expect_level = None
            return None
        if self._retries_left > 0:
            self._retries_left -= 1
            self.health.switch_retries += 1
            self._count("switch_retries")
            return expected
        # Retry budget exhausted at this decision point.
        self._expect_level = None
        self.health.switch_failures += 1
        self._count("switch_failures")
        return self._give_up(result.achieved_level)

    def _give_up(self, achieved: int) -> Optional[int]:
        """Degradation ladder after a failed decision point."""
        if self._active is None or self._fallen_back:
            return None
        # Pin the block that wanted the unreachable level at what we
        # actually got, so later batches don't fight the actuator.
        if self._current_op is not None and \
                self._current_op not in self._pinned:
            self._pinned[self._current_op] = achieved
        self.health.blocks_pinned += 1
        self._count("blocks_pinned")
        self._block_failures += 1
        if self._block_failures >= self.max_block_failures:
            # Plan-level failure: abandon the plan, finish the job at a
            # safe static level (one final bounded attempt).
            self._fallen_back = True
            self._pending = {}
            self._pinned = {}
            self.health.plan_fallbacks += 1
            self._count("plan_fallbacks")
            safe = (self._safe_override
                    if self._safe_override is not None
                    else self._active.safe_level())
            return self._request(safe, retries=0)
        return None
