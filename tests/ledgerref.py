"""Reference planned-vs-optimal sweep for :class:`EnergyLedger`.

:func:`reference_ledger` attributes a run without an evaluator, then
gives every block its verdict straight from the profile table: one
``block_profile`` plus ``best_level`` per block, with no memo.  The
dispatch-invariant suite (``tests/test_dispatch_invariants.py``) and the
serving benchmark compare the evaluator-backed ledger, whose sweeps come
from :meth:`AnalyticEvaluator.block_sweep`, against it.
"""

from __future__ import annotations

from repro.obs.ledger import EnergyLedger


def reference_ledger(result, plan, graph, evaluator, batch_size: int = 16,
                     latency_slack: float = 0.25,
                     misprediction_margin: float = 0.005,
                     sparsity: float = 0.0) -> EnergyLedger:
    """Same arguments and result as ``EnergyLedger.from_result`` with an
    evaluator."""
    ledger = EnergyLedger.from_result(result, plan=plan, graph=graph)
    table = evaluator.profile_table(graph, batch_size, sparsity)
    for row in ledger.blocks:
        ops = list(range(row.op_start, min(row.op_stop, table.n_ops)))
        if not ops:
            continue
        profile = table.block_profile(ops)
        best = evaluator.best_level(profile, latency_slack)
        row.best_level = best
        row.best_energy_j = float(profile.energies[best])
        if row.planned_level is not None:
            planned = min(max(row.planned_level, 0), table.n_levels - 1)
            row.planned_energy_j = float(profile.energies[planned])
            row.mispredicted = (
                best != planned
                and row.predicted_savings_frac > misprediction_margin)
    return ledger
