"""Plan families: bucketing, dispatch-time selection, composition.

The contract under test (see ``repro.governors.family``):

* **bucket determinism + totality** — ``FeatureBuckets.bucket_for`` is
  pure arithmetic: every ``(batch >= 1, sparsity in [0, 1))`` maps to
  exactly one in-range bucket, the same one on every call
  (hypothesis-pinned);
* **size-1 degeneration** — a family of one member issues byte-identical
  DVFS commands to a :class:`PresetGovernor` carrying the same plan
  (per-job energy/time/switch-count signatures over simulator runs);
* **member selection** — jobs land on the member whose bucket covers
  their ``(batch, sparsity)``, and the selection counters track swaps;
* **adaptive composition** — with a replan policy the governor writes
  nudged plans back into the slot of the member that produced the
  evidence, leaving sibling members untouched and never mutating the
  caller's family;
* **validation-cache satellite** — the ``validation_cache_size`` knob
  of :class:`PresetGovernor` bounds the verdict cache, counts
  evictions, and a replanning governor mirrors the count into
  :class:`ReplanHealth`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.adaptive import build_drift_net
from repro.governors import (
    FeatureBuckets,
    PlanFamily,
    PresetGovernor,
    ReplanPolicy,
    analytic_plan,
    build_plan_family,
)
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.obs.ledger import EnergyLedger

PLATFORM = get_platform("tx2")
EVALUATOR = AnalyticEvaluator(PLATFORM)
BLOCK_SIZE = 4

pytestmark = pytest.mark.family


def _graph():
    return build_drift_net()


def _family(graph, batches=(1, 16), sparsities=(0.0,)):
    return build_plan_family(EVALUATOR, graph, batch_grid=batches,
                             sparsity_grid=sparsities,
                             block_size=BLOCK_SIZE)


def _run_job(gov, graph, batch, seed=0, sparsity=0.0):
    job = InferenceJob(graph=graph, batch_size=batch, n_batches=1,
                       name=f"{graph.name}_j", sparsity=sparsity)
    sim = InferenceSimulator(PLATFORM, seed=seed, keep_trace=True,
                             keep_samples=False)
    result = sim.run([job], gov)
    return (result.trace.total_energy, result.report.total_time,
            result.switch_count), result


# ----------------------------------------------------------------------
# bucket determinism + totality
# ----------------------------------------------------------------------
class TestFeatureBuckets:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(1, 10_000),
           sparsity=st.floats(0.0, 1.0, exclude_max=True,
                              allow_nan=False))
    def test_total_and_deterministic(self, batch, sparsity):
        fb = FeatureBuckets((1, 4, 16, 64), (0.0, 0.25, 0.5))
        b = fb.bucket_for(batch, sparsity)
        assert b == fb.bucket_for(batch, sparsity)
        assert 0 <= b[0] < len(fb.batch_edges)
        assert 0 <= b[1] < len(fb.sparsity_edges)
        # The selected edges are the floor of the inputs on each axis.
        lo_b, lo_s = fb.representative(b)
        assert lo_b <= batch
        assert lo_s <= sparsity
        if b[0] + 1 < len(fb.batch_edges):
            assert batch < fb.batch_edges[b[0] + 1]
        if b[1] + 1 < len(fb.sparsity_edges):
            assert sparsity < fb.sparsity_edges[b[1] + 1]

    @settings(max_examples=50, deadline=None)
    @given(edges=st.lists(st.integers(1, 512), min_size=1, max_size=6,
                          unique=True))
    def test_exact_edges_select_their_own_bucket(self, edges):
        fb = FeatureBuckets(tuple(sorted(edges)))
        for i, edge in enumerate(fb.batch_edges):
            assert fb.bucket_for(edge) == (i, 0)

    def test_below_first_edge_clamps_to_bucket_zero(self):
        fb = FeatureBuckets((4, 16))
        assert fb.bucket_for(1) == (0, 0)
        assert fb.bucket_for(10**9) == (1, 0)

    @pytest.mark.parametrize("batch_edges,sparsity_edges", [
        ((), (0.0,)),               # no batch edges
        ((4, 1), (0.0,)),           # unsorted
        ((1, 1), (0.0,)),           # duplicate
        ((0,), (0.0,)),             # batch < 1
        ((1,), ()),                 # no sparsity edges
        ((1,), (1.0,)),             # sparsity out of range
        ((1,), (-0.1,)),
        ((1,), (0.5, 0.2)),         # unsorted sparsity
    ])
    def test_invalid_edges_rejected(self, batch_edges, sparsity_edges):
        with pytest.raises(ValueError):
            FeatureBuckets(batch_edges, sparsity_edges)


class TestPlanFamily:
    def test_family_must_be_total(self):
        graph = _graph()
        fam = _family(graph)
        missing = dict(fam.members)
        missing.pop(next(iter(missing)))
        with pytest.raises(ValueError, match="every bucket"):
            PlanFamily(graph_name=graph.name, buckets=fam.buckets,
                       members=missing)

    def test_member_graph_name_checked(self):
        graph = _graph()
        fam = _family(graph, batches=(1,))
        with pytest.raises(ValueError, match="not"):
            PlanFamily(graph_name="other", buckets=fam.buckets,
                       members=dict(fam.members))

    def test_grid_point_members_match_analytic_plan(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        for (bi, sj), member in fam.members.items():
            expected = analytic_plan(
                EVALUATOR, graph, fam.buckets.batch_edges[bi],
                block_size=BLOCK_SIZE,
                sparsity=fam.buckets.sparsity_edges[sj])
            assert member.steps == expected.steps

    def test_member_for_uses_buckets(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        assert fam.member_for(1) is fam.members[(0, 0)]
        assert fam.member_for(8) is fam.members[(0, 0)]
        assert fam.member_for(16) is fam.members[(1, 0)]
        assert fam.member_for(999) is fam.members[(1, 0)]


# ----------------------------------------------------------------------
# size-1 degeneration: family of one ≡ static preset, byte-identical
# ----------------------------------------------------------------------
class TestSizeOneIdentity:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31), batch=st.sampled_from([1, 4, 16]))
    def test_family_of_one_matches_preset(self, seed, batch):
        graph = _graph()
        fam = _family(graph, batches=(batch,))
        assert fam.size == 1
        plan = fam.members[(0, 0)]
        static = PresetGovernor([plan], resilient=True)
        family = PresetGovernor(families=[fam], resilient=True)
        for j in range(3):
            sig_s, _ = _run_job(static, graph, batch, seed=seed + j)
            sig_f, _ = _run_job(family, graph, batch, seed=seed + j)
            assert sig_f == sig_s
        # One lookup per job, and the single member never swaps out.
        assert family.family_selections == 3
        assert family.family_switches == 0


# ----------------------------------------------------------------------
# member selection at dispatch
# ----------------------------------------------------------------------
class TestMemberSelection:
    def test_selected_member_is_installed_plan(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        gov = PresetGovernor(families=[fam], resilient=True)
        _run_job(gov, graph, 16)
        assert gov.plan_for(graph.name) is fam.members[(1, 0)]
        _run_job(gov, graph, 1)
        assert gov.plan_for(graph.name) is fam.members[(0, 0)]
        assert gov.family_selections == 2
        assert gov.family_switches == 1

    def test_family_beats_single_stale_plan_on_drift(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        stale = PresetGovernor([fam.members[(1, 0)]], resilient=True)
        family = PresetGovernor(families=[fam], resilient=True)
        e_stale = sum(_run_job(stale, graph, 1, seed=s)[0][0]
                      for s in range(3))
        e_family = sum(_run_job(family, graph, 1, seed=s)[0][0]
                       for s in range(3))
        assert e_family < e_stale

    def test_graph_without_family_falls_back(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        gov = PresetGovernor(families=[fam], resilient=True)
        from tests.conftest import build_small_cnn
        other = build_small_cnn("no_family_net")
        sig, _ = _run_job(gov, other, 4)
        # No plan, no selection — runs at the fallback level.
        assert gov.family_selections == 0
        assert gov.plan_for(other.name) is None
        assert sig[0] > 0

    def test_sparsity_axis_selects_sparse_member(self):
        graph = _graph()
        fam = _family(graph, batches=(16,), sparsities=(0.0, 0.5))
        gov = PresetGovernor(families=[fam], resilient=True)
        _run_job(gov, graph, 16, sparsity=0.7)
        assert gov.plan_for(graph.name) is fam.members[(0, 1)]
        _run_job(gov, graph, 16, sparsity=0.2)
        assert gov.plan_for(graph.name) is fam.members[(0, 0)]

    def test_duplicate_family_names_rejected(self):
        graph = _graph()
        fam = _family(graph, batches=(1,))
        with pytest.raises(ValueError, match="one family"):
            PresetGovernor(families=[fam, fam])


# ----------------------------------------------------------------------
# adaptive composition: nudges stick per member
# ----------------------------------------------------------------------
class TestAdaptiveComposition:
    def _observe(self, gov, graph, batch, result, sparsity=0.0):
        plan = gov.plan_for(graph.name)
        ledger = EnergyLedger.from_result(
            result, plan=plan, graph=graph, evaluator=EVALUATOR,
            batch_size=batch, sparsity=sparsity)
        return gov.observe_job(graph, batch, ledger, sparsity=sparsity)

    def test_nudge_written_back_to_member(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        # Sabotage the batch-1 member with the stale batch-16 plan so
        # the drift is visible to the ledger.
        fam.members[(0, 0)] = fam.members[(1, 0)]
        sibling_before = fam.members[(1, 0)]
        policy = ReplanPolicy(EVALUATOR)
        gov = PresetGovernor(families=[fam], resilient=True,
                             replan=policy, metrics=policy.obs.metrics)
        for seed in range(4):
            sig, result = _run_job(gov, graph, 1, seed=seed)
            action = self._observe(gov, graph, 1, result)
            if action == "adopt":
                break
        assert gov.replan_health.adopted >= 1
        corrected = gov.plan_for(graph.name)
        assert corrected is not sibling_before
        # The corrected plan landed in the batch-1 slot...
        _run_job(gov, graph, 1, seed=10)
        assert gov.plan_for(graph.name) is corrected
        # ...and the batch-16 sibling is untouched.
        _run_job(gov, graph, 16, seed=11)
        assert gov.plan_for(graph.name) is sibling_before
        # The caller's family itself is never mutated.
        assert fam.members[(0, 0)] is sibling_before

    def test_shared_family_corrections_stay_per_governor(self):
        """Two replanning governors built from one family: a correction
        adopted by one must not reach the other."""
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        fam.members[(0, 0)] = fam.members[(1, 0)]
        stale = fam.members[(0, 0)]
        first_policy = ReplanPolicy(EVALUATOR)
        first = PresetGovernor(families=[fam], resilient=True,
                               replan=first_policy,
                               metrics=first_policy.obs.metrics)
        second_policy = ReplanPolicy(EVALUATOR)
        second = PresetGovernor(families=[fam], resilient=True,
                                replan=second_policy,
                                metrics=second_policy.obs.metrics)
        _, result = _run_job(first, graph, 1)
        assert self._observe(first, graph, 1, result) == "adopt"
        assert first.plan_for(graph.name) is not stale
        _run_job(second, graph, 1)
        assert second.plan_for(graph.name) is stale

    def test_zero_drift_family_adaptive_idle(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 16))
        policy = ReplanPolicy(EVALUATOR)
        gov = PresetGovernor(families=[fam], resilient=True,
                             replan=policy, metrics=policy.obs.metrics)
        for batch in (16, 1, 16, 1):
            _, result = _run_job(gov, graph, batch, seed=batch)
            action = self._observe(gov, graph, batch, result)
            assert action in ("none", "frozen")
        assert not gov.replan_health.active


# ----------------------------------------------------------------------
# validation-cache satellite (configurable bound + eviction counters)
# ----------------------------------------------------------------------
class TestValidationCacheKnob:
    @staticmethod
    def _distinct_plans(graph, n):
        """Plans with n distinct fingerprints (one flat level each)."""
        from repro.governors import FrequencyPlan, PlanStep
        return [FrequencyPlan(graph_name=graph.name,
                              steps=[PlanStep(0, level)],
                              graph_fingerprint=graph.fingerprint())
                for level in range(n)]

    def test_ctor_bound_and_eviction_count(self):
        graph = _graph()
        plans = self._distinct_plans(graph, 6)
        from repro.obs.metrics import MetricsRegistry
        gov = PresetGovernor([plans[0]], resilient=True,
                             validation_cache_size=2,
                             metrics=MetricsRegistry())
        for plan in plans:
            gov.add_plan(plan)
            _run_job(gov, graph, 4)
        assert len(gov._validation_cache) <= 2
        assert gov.validation_evictions == len(plans) - 2
        assert gov.metrics.counter(
            "powerlens_runtime_validation_evictions_total").value \
            == gov.validation_evictions

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="validation_cache_size"):
            PresetGovernor([], validation_cache_size=0)

    def test_adaptive_mirrors_evictions_into_replan_health(self):
        graph = _graph()
        plans = self._distinct_plans(graph, 4)
        policy = ReplanPolicy(EVALUATOR)
        gov = PresetGovernor([], resilient=True, validation_cache_size=1,
                             replan=policy, metrics=policy.obs.metrics)
        for plan in plans:
            gov.add_plan(plan)
            _run_job(gov, graph, 4)
        assert gov.validation_evictions == len(plans) - 1
        assert gov.replan_health.validation_evictions \
            == gov.validation_evictions

    def test_family_default_bound_fits_every_member(self):
        graph = _graph()
        fam = _family(graph, batches=(1, 2, 4, 8, 16))
        gov = PresetGovernor(families=[fam])
        assert gov._VALIDATION_CACHE_SIZE >= 2 * fam.size
