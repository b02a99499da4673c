"""Plan golden: every planner's step lists, pinned byte-for-byte.

For each planner below, ``tests/goldens/plans.json`` records the
``(op_index, level)`` steps it emits on the 12 Table-1 networks, and for
the pipeline planners (``PowerLens.oracle_plan`` and a fitted
``analyze``) also the power view's block partition as ``[start, end)``
pairs:

* ``analytic`` — :func:`~repro.governors.family.analytic_plan` on tx2
  and agx at batch {1, 8, 16} x sparsity {0, 0.3, 0.6} x block size
  {4, 8};
* ``family`` — the members of :func:`build_plan_family` over the same
  batch x sparsity grid (default block size), keyed by bucket;
* ``oracle`` — ``PowerLens(platform).oracle_plan`` on tx2 and agx;
* ``fitted`` — ``analyze`` of the session ``fitted_lens`` (tx2);
* ``random_partition`` / ``no_clustering`` — the Table-2 ablation plans
  from ``fitted_lens``.

A deliberate planner change regenerates the fixture with::

    pytest tests/test_plans_golden.py --update-goldens
"""

import json
from pathlib import Path

import pytest

from repro.core import PowerLens
from repro.core.ablation import no_clustering_plan, random_partition_plan
from repro.governors import analytic_plan, build_plan_family
from repro.hw import get_platform
from repro.hw.analytic import AnalyticEvaluator
from repro.models import PAPER_MODELS, build_model

GOLDEN = Path(__file__).parent / "goldens" / "plans.json"

PLATFORMS = ("tx2", "agx")
BATCHES = (1, 8, 16)
SPARSITIES = (0.0, 0.3, 0.6)
BLOCK_SIZES = (4, 8)

PLANNERS = ("analytic", "family", "oracle", "fitted",
            "random_partition", "no_clustering")


@pytest.fixture(scope="module")
def graphs():
    return {name: build_model(name) for name in PAPER_MODELS}


def _steps(plan):
    return [[s.op_index, s.level] for s in plan.steps]


def _pipeline(result):
    return {"steps": _steps(result.plan),
            "blocks": [[b.start, b.end] for b in result.view.blocks]}


def _section(planner, graphs, lens):
    out = {}
    if planner in ("analytic", "family", "oracle"):
        for platform in PLATFORMS:
            spec = get_platform(platform)
            evaluator = AnalyticEvaluator(spec)
            oracle = PowerLens(spec) if planner == "oracle" else None
            for model, graph in graphs.items():
                key = f"{platform}/{model}"
                if planner == "oracle":
                    out[key] = _pipeline(oracle.oracle_plan(graph))
                elif planner == "family":
                    family = build_plan_family(evaluator, graph, BATCHES,
                                               SPARSITIES)
                    for bucket in family.buckets.buckets():
                        b, s = family.buckets.representative(bucket)
                        out[f"{key}/b{b}/s{s}"] = _steps(
                            family.members[bucket])
                else:
                    for b in BATCHES:
                        for s in SPARSITIES:
                            for k in BLOCK_SIZES:
                                out[f"{key}/b{b}/s{s}/k{k}"] = _steps(
                                    analytic_plan(evaluator, graph, b,
                                                  block_size=k,
                                                  sparsity=s))
        return out
    for model, graph in graphs.items():
        key = f"tx2/{model}"
        if planner == "fitted":
            out[key] = _pipeline(lens.analyze(graph))
        elif planner == "random_partition":
            out[key] = _steps(random_partition_plan(lens, graph))
        else:
            out[key] = _steps(no_clustering_plan(lens, graph))
    return out


def _dump(data):
    """One line per plan, so a drift diffs to the plans it touched."""
    lines = []
    for planner in sorted(data):
        section = data[planner]
        rows = [f"  {json.dumps(key)}: "
                f"{json.dumps(section[key], separators=(',', ':'))}"
                for key in sorted(section)]
        lines.append(f"{json.dumps(planner)}: {{\n" + ",\n".join(rows)
                     + "\n}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.mark.parametrize("planner", PLANNERS)
def test_plans_match_golden(planner, graphs, fitted_lens, update_goldens):
    section = _section(planner, graphs, fitted_lens)
    if update_goldens:
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data[planner] = section
        GOLDEN.write_text(_dump(data))
        return
    assert GOLDEN.exists(), (
        f"golden fixture {GOLDEN} missing — generate it with "
        f"pytest tests/test_plans_golden.py --update-goldens")
    recorded = json.loads(GOLDEN.read_text())[planner]
    assert sorted(section) == sorted(recorded)
    drifted = [key for key in sorted(section)
               if section[key] != recorded[key]]
    assert not drifted, (
        f"{planner} plans drifted from the golden on {drifted[:5]} "
        f"({len(drifted)} of {len(section)}); if the change is intended, "
        f"rerun with --update-goldens and commit the diff")
