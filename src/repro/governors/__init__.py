"""DVFS governors: the paper's three baselines plus utility governors.

* :class:`OndemandGovernor` — the built-in method (BiM), the Linux
  simple_ondemand devfreq policy both Jetson boards ship with.
* :class:`FPGGovernor` — the FPG heuristic of Karzhaubayeva et al.
  (reference [5] of the paper), in GPU-only (FPG-G) and CPU+GPU
  (FPG-C+G) variants.
* :class:`StaticGovernor` — pinned level (used by frequency sweeps).
* :class:`PresetGovernor` — the one PowerLens plan runtime: executes
  per-block frequency plans (from :mod:`repro.core`) at
  operator-boundary instrumentation points.  ``families=``
  (:class:`PlanFamily`, one plan per (batch, sparsity) bucket) selects
  each job's member at dispatch; a bare plan is a size-1 family.
  ``replan=`` (:class:`ReplanPolicy`) corrects plans between jobs from
  ledger feedback, with rollback, writing each correction back into
  the slot (graph plus bucket) of the job that produced it.

The oracle runtime is ``PowerLens.governor(oracle=True)``
(:mod:`repro.core.pipeline`): a :class:`PresetGovernor` carrying
exhaustive-sweep plans.
"""

from repro.governors.base import (
    Governor,
    GOVERNOR_REGISTRY,
    make_governor,
    sample_is_valid,
)
from repro.governors.static import StaticGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.fpg import FPGGovernor, fpg_g, fpg_cg
from repro.governors.family import (
    FeatureBuckets,
    FrequencyPlan,
    PlanStep,
    PlanFamily,
    analytic_plan,
    build_plan_family,
)
from repro.governors.preset import PresetGovernor, RuntimeHealth
from repro.governors.adaptive import ReplanHealth, ReplanPolicy

__all__ = [
    "ReplanHealth",
    "ReplanPolicy",
    "FeatureBuckets",
    "PlanFamily",
    "analytic_plan",
    "build_plan_family",
    "Governor",
    "GOVERNOR_REGISTRY",
    "make_governor",
    "sample_is_valid",
    "StaticGovernor",
    "OndemandGovernor",
    "FPGGovernor",
    "fpg_g",
    "fpg_cg",
    "PresetGovernor",
    "FrequencyPlan",
    "PlanStep",
    "RuntimeHealth",
]
