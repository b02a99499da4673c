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
* :class:`OracleGovernor` — exhaustive per-block optimum, the upper
  bound used to sanity-check the decision model.

``AdaptivePresetGovernor``, ``PlanFamilyGovernor`` and
``AdaptivePlanFamilyGovernor`` are historical names of those
combinations; each returns a :class:`PresetGovernor`.
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
from repro.governors.preset import (
    PlanFamilyGovernor,
    PresetGovernor,
    RuntimeHealth,
)
from repro.governors.oracle import OracleGovernor
from repro.governors.adaptive import (
    AdaptivePlanFamilyGovernor,
    AdaptivePresetGovernor,
    ReplanHealth,
    ReplanPolicy,
)

__all__ = [
    "AdaptivePresetGovernor",
    "ReplanHealth",
    "ReplanPolicy",
    "AdaptivePlanFamilyGovernor",
    "FeatureBuckets",
    "PlanFamily",
    "PlanFamilyGovernor",
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
    "OracleGovernor",
]
