"""The labeling-stage breakdown text.

``GenerationStats.stage_lines`` is the one renderer of the "labeling
stages" lines that ``TrainingSummary.format`` and the CLI's stderr
summary print.  The text is pinned here for a serial and a pooled run:
stages in pipeline order, unknown stages after them sorted, and the
per-worker line only under a pool.
"""

from repro.core.datasets import GenerationStats
from repro.core.pipeline import TrainingSummary
from repro.core.predictors import FitReport

_STAGES = {"evaluate": 3.04, "zeta": 0.25, "distance": 1.25,
           "cluster": 0.5, "io": 0.06}


def _stats(n_jobs: int) -> GenerationStats:
    return GenerationStats(n_networks=12, n_blocks=40, wall_time_s=2.5,
                           n_jobs=n_jobs, stage_seconds=dict(_STAGES))


def _report() -> FitReport:
    return FitReport(test_accuracy=0.5, val_accuracy=0.5,
                     within_1_accuracy=0.75, within_2_accuracy=0.875,
                     epochs=7, wall_time_s=1.25, n_train=10, n_test=2,
                     equivalent_accuracy=0.625)


def test_one_worker_lines():
    assert _stats(1).stage_lines() == [
        "labeling stages (CPU-s summed over 1 worker(s)): distance 1.2s, "
        "cluster 0.5s, evaluate 3.0s, io 0.1s, zeta 0.2s",
    ]


def test_two_worker_lines():
    assert _stats(2).stage_lines() == [
        "labeling stages (CPU-s summed over 2 worker(s)): distance 1.2s, "
        "cluster 0.5s, evaluate 3.0s, io 0.1s, zeta 0.2s",
        "labeling stages (per-worker average): distance 0.6s, "
        "cluster 0.2s, evaluate 1.5s, io 0.0s, zeta 0.1s",
    ]


def test_no_stages_no_lines():
    assert GenerationStats().stage_lines() == []


def test_training_summary_prints_the_stage_lines():
    summary = TrainingSummary(hyperparam_report=_report(),
                              decision_report=_report(),
                              generation=_stats(2))
    assert summary.format() == (
        "dataset: 12 networks, 40 blocks (2.5s)\n"
        "labeling stages (CPU-s summed over 2 worker(s)): distance 1.2s, "
        "cluster 0.5s, evaluate 3.0s, io 0.1s, zeta 0.2s\n"
        "labeling stages (per-worker average): distance 0.6s, "
        "cluster 0.2s, evaluate 1.5s, io 0.0s, zeta 0.1s\n"
        "hyperparameter model: test acc 50.0%, scheme-equivalent 62.5% "
        "(7 epochs, 1.2s)\n"
        "decision model: test acc 50.0%, within-1 75.0%, within-2 87.5% "
        "(7 epochs, 1.2s)")
