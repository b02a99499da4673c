"""Values the serving dispatch path computes once per device.

Each memo must return exactly what recomputing would:

* **plan slots** — :class:`PlanCache` stores one plan per slot
  ``(graph fingerprint, batch, repr(sparsity))`` and serves every
  repeat lookup from it;
* **plan clamping** — :meth:`FrequencyPlan.clamped` equals a per-step
  ``clamp_level`` and returns ``self`` exactly when nothing changes;
* **ledger sweeps** — an evaluator-backed ledger is identical on a fresh
  evaluator and on a warm one whose profile table was evicted, and each
  block's verdict matches the memo-free reference sweep
  (``tests/ledgerref.py``);
* **op works** — a run on a prewarmed device is byte-identical to a run
  on a cold one;
* **anomaly power bound** — unchanged by switching platforms between
  runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.governors import FrequencyPlan, PlanStep, PresetGovernor, \
    analytic_plan
from repro.hw.analytic import PROFILE_TABLE_CACHE_SIZE, AnalyticEvaluator
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator, \
    op_works_key
from repro.models.random_gen import RandomDNNGenerator
from repro.obs.anomaly import AnomalyDetector, _max_platform_power
from repro.obs.ledger import EnergyLedger
from repro.serving import DeviceConfig, PlanCache, SimulatedDevice
from tests.conftest import build_small_cnn
from tests.ledgerref import reference_ledger

pytestmark = pytest.mark.serving

TX2 = get_platform("tx2")
GRAPHS = [build_small_cnn()] + [RandomDNNGenerator(seed=s).generate()
                                for s in range(2)]


class TestPlanKeys:
    """Plans are keyed by slot ``(graph fingerprint, batch,
    repr(sparsity))``."""

    def test_signed_zero_sparsity_keeps_distinct_keys(self):
        cache = PlanCache(AnalyticEvaluator(TX2))
        graph = GRAPHS[0]
        cache.get_or_build(graph, 8, 0.0)
        cache.get_or_build(graph, 8, -0.0)
        assert len(cache) == 2
        assert cache.misses == 2 and cache.hits == 0

    def test_memo_holds_one_key_per_cached_plan(self):
        cache = PlanCache(AnalyticEvaluator(TX2))
        for graph in GRAPHS:
            for batch in (1, 8):
                first = cache.get_or_build(graph, batch)
                assert cache.get_or_build(graph, batch) is first
        assert len(cache) == 2 * len(GRAPHS)
        assert cache.hits == cache.misses == 2 * len(GRAPHS)


class TestPlanClamping:
    @settings(max_examples=200, deadline=None)
    @given(levels=st.lists(st.integers(-5, TX2.max_level + 5),
                           min_size=1, max_size=12),
           platform=st.sampled_from(["tx2", "agx"]))
    def test_clamped_matches_per_step_clamp(self, levels, platform):
        spec = get_platform(platform)
        plan = FrequencyPlan("g", [PlanStep(4 * i, lvl)
                                   for i, lvl in enumerate(levels)],
                             graph_fingerprint="fp")
        expected = [spec.clamp_level(lvl) for lvl in levels]
        clamped = plan.clamped(spec)
        assert [s.level for s in clamped.steps] == expected
        assert [s.op_index for s in clamped.steps] == \
            [s.op_index for s in plan.steps]
        assert clamped.graph_fingerprint == plan.graph_fingerprint
        assert (clamped is plan) == (expected == levels)

    def test_levels_clamped_counts_unchanged(self):
        plan = FrequencyPlan("g", [PlanStep(0, -3), PlanStep(4, 2),
                                   PlanStep(8, TX2.max_level + 7)])
        gov = PresetGovernor([plan])
        gov.reset(TX2)
        assert gov.health.levels_clamped == 2
        gov.reset(TX2)
        assert gov.health.levels_clamped == 2


def _ledger_dict(evaluator, result, plan, graph, batch, sparsity):
    return EnergyLedger.from_result(
        result, plan=plan, graph=graph, evaluator=evaluator,
        batch_size=batch, sparsity=sparsity).to_dict()


def _evict_tables(evaluator, keep_out):
    """Touch more than PROFILE_TABLE_CACHE_SIZE other tables."""
    for batch in range(1, PROFILE_TABLE_CACHE_SIZE + 3):
        evaluator.profile_table(keep_out, 100 + batch)


class TestLedgerSweeps:
    @settings(max_examples=12, deadline=None)
    @given(graph_idx=st.integers(0, len(GRAPHS) - 1),
           batch=st.sampled_from([1, 8, 16]),
           sparsity=st.sampled_from([0.0, 0.3, 0.6]),
           shift=st.sampled_from([0, -20, 20]))
    def test_warm_evicted_evaluator_matches_fresh(self, graph_idx, batch,
                                                  sparsity, shift):
        graph = GRAPHS[graph_idx]
        base = analytic_plan(AnalyticEvaluator(TX2), graph, batch,
                             block_size=4, sparsity=sparsity)
        # ``shift`` moves planned levels below / above the ladder; the
        # runtime clamps them, the ledger compares the raw plan.
        plan = FrequencyPlan(graph.name, [
            PlanStep(s.op_index, s.level + shift * (i % 2))
            for i, s in enumerate(base.steps)],
            graph_fingerprint=graph.fingerprint())
        job = InferenceJob(graph=graph, batch_size=batch, n_batches=1,
                           sparsity=sparsity)
        result = InferenceSimulator(TX2, keep_samples=False).run(
            [job], PresetGovernor([plan]))

        fresh = _ledger_dict(AnalyticEvaluator(TX2), result, plan, graph,
                             batch, sparsity)
        warm = AnalyticEvaluator(TX2)
        assert _ledger_dict(warm, result, plan, graph, batch,
                            sparsity) == fresh
        other = GRAPHS[(graph_idx + 1) % len(GRAPHS)]
        _evict_tables(warm, other)
        assert (graph.fingerprint(), batch, sparsity) \
            not in warm._table_cache
        assert _ledger_dict(warm, result, plan, graph, batch,
                            sparsity) == fresh

        reference = reference_ledger(result, plan, graph,
                                     AnalyticEvaluator(TX2), batch,
                                     sparsity=sparsity)
        assert reference.to_dict() == fresh
        ledger = EnergyLedger.from_result(
            result, plan=plan, graph=graph, evaluator=warm,
            batch_size=batch, sparsity=sparsity)
        assert ledger.blocks == reference.blocks

    @pytest.mark.parametrize("sparsity", [0.0, 0.3])
    def test_one_evaluator_across_partitions_and_slacks(self, sparsity):
        """Blocks sharing a start but not a stop, and one block under
        several slacks, each get their own sweep."""
        graph = GRAPHS[2]
        job = InferenceJob(graph=graph, batch_size=8, sparsity=sparsity)
        warm = AnalyticEvaluator(TX2)
        for block_size in (8, 4, 2, 8):
            plan = analytic_plan(warm, graph, 8, block_size=block_size,
                                 sparsity=sparsity)
            result = InferenceSimulator(TX2, keep_samples=False).run(
                [job], PresetGovernor([plan]))
            for slack in (0.25, 0.05, 1.0):
                ledger = EnergyLedger.from_result(
                    result, plan=plan, graph=graph, evaluator=warm,
                    batch_size=8, latency_slack=slack, sparsity=sparsity)
                reference = reference_ledger(
                    result, plan, graph, AnalyticEvaluator(TX2), 8, slack,
                    sparsity=sparsity)
                assert ledger.blocks == reference.blocks

    def test_sweep_energies_are_read_only(self):
        evaluator = AnalyticEvaluator(TX2)
        _, energies = evaluator.block_sweep(GRAPHS[0], 0, 3, 8)
        with pytest.raises(ValueError):
            energies[0] = 0.0


class TestPrewarmedWorks:
    @pytest.mark.parametrize("sparsity", [0.0, 0.4])
    def test_prewarmed_device_runs_identically(self, sparsity):
        graph = GRAPHS[1]
        warm = SimulatedDevice(DeviceConfig("d", "tx2", noise_std=0.05))
        cold = SimulatedDevice(DeviceConfig("d", "tx2", noise_std=0.05))
        warm.prewarm([graph], [8])
        assert op_works_key(graph) in warm._op_row_cache
        assert op_works_key(graph) not in cold._op_row_cache
        plan = analytic_plan(warm.evaluator, graph, 8, sparsity=sparsity)
        job = InferenceJob(graph=graph, batch_size=8, n_batches=2,
                           sparsity=sparsity)

        def run(device):
            sim = InferenceSimulator(device.platform, seed=3,
                                     noise_std=0.05,
                                     op_row_cache=device._op_row_cache)
            return sim.run([job], PresetGovernor([plan]))

        a, b = run(warm), run(cold)
        assert a.trace.segments == b.trace.segments
        assert a.samples == b.samples
        assert a.report == b.report
        assert warm.execute(job, 0) == cold.execute(job, 0)


class TestAnomalyPowerBound:
    def test_bound_after_platform_switches_matches_fresh(self):
        agx = get_platform("agx")
        detector = AnomalyDetector()
        for platform in (TX2, agx, TX2):
            detector.reset(platform)
        fresh = AnomalyDetector()
        fresh.reset(TX2)
        assert detector._power_bound == fresh._power_bound \
            == _max_platform_power(TX2)
        detector.reset(agx)
        assert detector._power_bound == _max_platform_power(agx)
