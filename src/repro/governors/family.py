"""Frequency plans and plan families: input-conditioned preset plans,
selected at dispatch.

A :class:`FrequencyPlan` is one per-block level schedule for the preset
runtime.  A single plan per model leaves energy on the table when the
input drifts: SparseDVFS's observation is that batch size and
activation sparsity shift each block's sweep-optimal level, and that
the drift is visible *in the input itself*.  A :class:`PlanFamily`
therefore holds a small grid of analytic plans per model — one member
per ``(batch bucket, sparsity bucket)`` — and the preset runtime
(:class:`~repro.governors.preset.PresetGovernor`) picks the member for
each job at ``on_job_start``, *before* the first kernel launches,
keeping the paper's zero-reactive-lag property.  A bare plan is simply
a size-1 family (:meth:`PlanFamily.of`).

Bucket-boundary determinism rules (property-tested in
``tests/test_governors_family.py``):

* bucket edges are the sorted, de-duplicated representative grid
  points; bucket ``i`` covers ``[edge_i, edge_{i+1})``;
* selection is **total**: any batch ``>= 1`` below the first edge maps
  to bucket 0, anything at or above the last edge maps to the last
  bucket (same rule on the sparsity axis over ``[0, 1)``);
* selection is pure arithmetic (:func:`bisect.bisect_right`) — no RNG,
  no clock — so the same ``(batch, sparsity)`` always selects the same
  member.

A family of size 1 degenerates to the static preset runtime: the single
member is installed at the first job start and never swapped, so the
issued DVFS command stream is byte-identical to a governor carrying the
bare plan (hypothesis-pinned).
"""

from __future__ import annotations

import hashlib
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import (Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import PlatformSpec

__all__ = ["PlanStep", "FrequencyPlan", "FeatureBuckets", "PlanFamily",
           "merge_equal_levels", "post_process",
           "analytic_plan", "build_plan_family"]

#: Contiguous operator groups, in execution order.
Groups = List[List[int]]


@dataclass(frozen=True)
class PlanStep:
    """One instrumentation point: when operator ``op_index`` is about to
    start, retarget the GPU to ``level``."""

    op_index: int
    level: int


@dataclass
class FrequencyPlan:
    """Instrumentation points for one graph.

    ``steps`` must be sorted by ``op_index`` and start at operator 0 so
    every operator executes under an explicitly chosen level.

    ``graph_fingerprint`` optionally records
    :meth:`repro.graph.Graph.fingerprint` of the graph the plan was
    computed for; the preset governor refuses to apply the plan to a
    same-named graph whose fingerprint differs (stale-plan detection).
    """

    graph_name: str
    steps: List[PlanStep] = field(default_factory=list)
    graph_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a frequency plan needs at least one step")
        indices = [s.op_index for s in self.steps]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("plan steps must be strictly increasing")
        if self.steps[0].op_index != 0:
            raise ValueError("plan must cover the graph from operator 0")
        if any(s.op_index < 0 for s in self.steps):
            raise ValueError("plan op indices must be non-negative")
        self._indices = indices
        self._levels = [s.level for s in self.steps]
        self._level_range = (min(self._levels), max(self._levels))
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_blocks(cls, graph: Graph, blocks: Sequence[Sequence[int]],
                    levels: Sequence[int]) -> "FrequencyPlan":
        """The plan that retargets to ``levels[i]`` as contiguous block
        ``blocks[i]`` starts; name and fingerprint come from ``graph``,
        so a plan built here is always checked against the graph it
        runs on.  :meth:`op_blocks` is the inverse."""
        if len(blocks) != len(levels):
            raise ValueError("one level per block required")
        return cls(graph_name=graph.name,
                   steps=[PlanStep(block[0], level)
                          for block, level in zip(blocks, levels)],
                   graph_fingerprint=graph.fingerprint())

    def op_blocks(self, n_ops: int) -> List[range]:
        """The plan's operator blocks on a graph of ``n_ops`` operators:
        each step's range up to the next step (the last one up to
        ``n_ops``)."""
        stops = self._indices[1:] + [n_ops]
        return [range(start, stop)
                for start, stop in zip(self._indices, stops)]

    @property
    def n_blocks(self) -> int:
        return len(self.steps)

    @property
    def max_op_index(self) -> int:
        return self.steps[-1].op_index

    def level_for_op(self, op_index: int) -> int:
        """Level in force while ``op_index`` executes."""
        i = bisect_right(self._indices, op_index) - 1
        return self._levels[i if i >= 0 else 0]

    def switch_indices(self) -> List[int]:
        """Operator indices where the level actually changes."""
        result = []
        prev: Optional[int] = None
        for step in self.steps:
            if prev is None or step.level != prev:
                result.append(step.op_index)
            prev = step.level
        return result

    def clamped(self, platform: PlatformSpec) -> "FrequencyPlan":
        """Copy of this plan with every level clamped to ``platform``'s
        ladder; returns ``self`` when nothing needs clamping.

        The preset runtime re-installs every registered plan on each
        run, so the common "already on the ladder" verdict is decided
        from the level range recorded at construction, in O(1)."""
        lowest, highest = self._level_range
        if platform.clamp_level(lowest) == lowest \
                and platform.clamp_level(highest) == highest:
            return self
        return FrequencyPlan(
            graph_name=self.graph_name,
            steps=[PlanStep(s.op_index, platform.clamp_level(s.level))
                   for s in self.steps],
            graph_fingerprint=self.graph_fingerprint,
        )

    def safe_level(self) -> int:
        """Static level used when the plan itself must be abandoned:
        the plan's median level (low side) — conservative, always on
        the plan's own ladder."""
        return statistics.median_low(sorted(self._levels))

    def fingerprint(self) -> str:
        """Content hash of the plan (graph name, steps, recorded graph
        fingerprint) — the key the governor's validation cache and the
        adaptive replanner use to tell plans apart."""
        if self._fingerprint is None:
            blob = "/".join(
                [self.graph_name, self.graph_fingerprint or ""]
                + [f"{s.op_index}:{s.level}" for s in self.steps])
            self._fingerprint = hashlib.sha256(
                blob.encode()).hexdigest()[:32]
        return self._fingerprint


#: (batch bucket index, sparsity bucket index)
Bucket = Tuple[int, int]


#: Neighbouring blocks whose levels differ by at most this many steps
#: are fused by :func:`post_process`: the decision model's known
#: +-1-level error band.
FUSE_THRESHOLD = 1


def _chain(groups: Sequence[Sequence[int]], levels: Sequence[int],
           threshold: int) -> Tuple[Groups, List[int]]:
    """Fuse chains of neighbouring groups whose levels differ by at most
    ``threshold`` from the previous group's level; each fused group
    keeps the level of its last member."""
    fused: Groups = []
    fused_levels: List[int] = []
    for group, level in zip(groups, levels):
        if fused_levels and abs(fused_levels[-1] - level) <= threshold:
            fused[-1].extend(group)
            fused_levels[-1] = level
        else:
            fused.append(list(group))
            fused_levels.append(level)
    return fused, fused_levels


def merge_equal_levels(groups: Sequence[Sequence[int]],
                       levels: Sequence[int]) -> Tuple[Groups, List[int]]:
    """Merge neighbouring groups that run at the same level: the
    instrumentation point between them would be a no-op."""
    return _chain(groups, levels, 0)


def post_process(groups: Sequence[Sequence[int]], levels: Sequence[int],
                 redecide: Callable[[Groups], Sequence[int]]
                 ) -> Tuple[Sequence[Sequence[int]], Sequence[int]]:
    """The paper's cluster post-processing ("adjusting size, shape, or
    membership of clusters", step 2 of its workflow).

    Near-equal decisions on neighbouring blocks fall within the decision
    model's +-1-level error band, so that fragmentation is noise, not
    signal.  Three steps remove it:

    1. chain-fuse neighbours whose levels differ by at most
       :data:`FUSE_THRESHOLD`;
    2. re-decide the fused groups once: ``redecide(groups)`` returns one
       level per group;
    3. merge neighbours that now share a level.

    When step 1 fuses nothing, no two neighbours share a level either,
    and ``(groups, levels)`` come back unchanged (the same objects).
    """
    fused, _ = _chain(groups, levels, FUSE_THRESHOLD)
    if len(fused) == len(groups):
        return groups, levels
    new_levels = list(redecide(fused))
    if len(new_levels) != len(fused):
        raise RuntimeError("redecide returned wrong number of levels")
    return merge_equal_levels(fused, new_levels)


def analytic_plan(evaluator: AnalyticEvaluator, graph: Graph,
                  batch_size: int, latency_slack: float = 0.25,
                  block_size: int = 8,
                  sparsity: float = 0.0) -> FrequencyPlan:
    """Closed-form frequency plan: fixed-size operator blocks, each at
    its exhaustive-sweep EE-optimal level.

    This is the serving-time planner — the oracle labeling rule of
    Dataset B applied per block, cheap enough (one
    :class:`~repro.hw.analytic.ProfileTable` query per block) to run at
    admission without a fitted lens.  ``sparsity`` plans against the
    activation-sparsity-rescaled workload (0.0 reproduces the
    pre-sparsity plans bit for bit).  It does not post-process: every
    block keeps its own step.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    table = evaluator.profile_table(graph, batch_size, sparsity)
    blocks = [range(start, min(start + block_size, table.n_ops))
              for start in range(0, table.n_ops, block_size)]
    return FrequencyPlan.from_blocks(
        graph, blocks,
        [table.best_level_for_block(block, latency_slack)
         for block in blocks])


@dataclass(frozen=True)
class FeatureBuckets:
    """Deterministic, total bucketing of the (batch, sparsity) space.

    ``batch_edges`` / ``sparsity_edges`` are the sorted representative
    grid points; see the module docstring for the boundary rules.
    """

    batch_edges: Tuple[int, ...]
    sparsity_edges: Tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not self.batch_edges:
            raise ValueError("at least one batch edge required")
        if not self.sparsity_edges:
            raise ValueError("at least one sparsity edge required")
        if list(self.batch_edges) != sorted(set(self.batch_edges)):
            raise ValueError("batch edges must be sorted and unique")
        if list(self.sparsity_edges) != sorted(set(self.sparsity_edges)):
            raise ValueError("sparsity edges must be sorted and unique")
        if self.batch_edges[0] < 1:
            raise ValueError("batch edges must be >= 1")
        if not all(0.0 <= s < 1.0 for s in self.sparsity_edges):
            raise ValueError("sparsity edges must be in [0, 1)")

    @property
    def n_buckets(self) -> int:
        return len(self.batch_edges) * len(self.sparsity_edges)

    def buckets(self) -> Iterable[Bucket]:
        """Every bucket index pair, in deterministic row-major order."""
        return product(range(len(self.batch_edges)),
                       range(len(self.sparsity_edges)))

    def batch_bucket(self, batch_size: int) -> int:
        return max(0, bisect_right(self.batch_edges, int(batch_size)) - 1)

    def sparsity_bucket(self, sparsity: float) -> int:
        return max(0,
                   bisect_right(self.sparsity_edges, float(sparsity)) - 1)

    def bucket_for(self, batch_size: int,
                   sparsity: float = 0.0) -> Bucket:
        """Total, deterministic member selection (module docstring)."""
        return (self.batch_bucket(batch_size),
                self.sparsity_bucket(sparsity))

    def representative(self, bucket: Bucket) -> Tuple[int, float]:
        """The grid point a bucket's member plan was built for."""
        return (self.batch_edges[bucket[0]],
                self.sparsity_edges[bucket[1]])


@dataclass
class PlanFamily:
    """One model's plan grid: a member plan per feature bucket.

    ``members`` must be **total** over ``buckets.buckets()`` — dispatch
    never synthesizes plans, it only selects.
    """

    graph_name: str
    buckets: FeatureBuckets
    members: Dict[Bucket, FrequencyPlan] = field(default_factory=dict)
    graph_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        expected = set(self.buckets.buckets())
        if set(self.members) != expected:
            missing = sorted(expected - set(self.members))
            extra = sorted(set(self.members) - expected)
            raise ValueError(
                f"plan family must cover every bucket exactly "
                f"(missing {missing}, extra {extra})")
        for bucket, plan in self.members.items():
            if plan.graph_name != self.graph_name:
                raise ValueError(
                    f"member {bucket} is a plan for "
                    f"{plan.graph_name!r}, not {self.graph_name!r}")

    @classmethod
    def of(cls, plan: FrequencyPlan, batch_size: int = 1,
           sparsity: float = 0.0) -> "PlanFamily":
        """A bare plan as a size-1 family whose one grid point is
        ``(batch_size, sparsity)``; every job selects it."""
        return cls(plan.graph_name,
                   FeatureBuckets((int(batch_size),), (float(sparsity),)),
                   {(0, 0): plan}, plan.graph_fingerprint)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_for(self, batch_size: int,
                   sparsity: float = 0.0) -> FrequencyPlan:
        return self.members[self.buckets.bucket_for(batch_size, sparsity)]


def build_plan_family(evaluator: AnalyticEvaluator, graph: Graph,
                      batch_grid: Sequence[int],
                      sparsity_grid: Sequence[float] = (0.0,),
                      latency_slack: float = 0.25,
                      block_size: int = 8) -> PlanFamily:
    """Analytic plan family over a ``(batch, sparsity)`` grid.

    Each grid point doubles as its bucket's edge *and* the workload its
    member plan is built for, so a job landing exactly on a grid point
    runs the plan computed for precisely that input — in particular a
    single-point grid reproduces :func:`analytic_plan` for that point.
    """
    buckets = FeatureBuckets(
        batch_edges=tuple(sorted({int(b) for b in batch_grid})),
        sparsity_edges=tuple(sorted({float(s) for s in sparsity_grid})))
    members = {
        bucket: analytic_plan(evaluator, graph,
                              buckets.batch_edges[bucket[0]],
                              latency_slack, block_size,
                              sparsity=buckets.sparsity_edges[bucket[1]])
        for bucket in buckets.buckets()
    }
    return PlanFamily(graph_name=graph.name, buckets=buckets,
                      members=members,
                      graph_fingerprint=graph.fingerprint())
