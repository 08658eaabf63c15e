"""Fuzzy Full Disjunction — the paper's primary contribution.

The pipeline: align columns (by header name, or by a caller-built
:class:`~repro.schema_matching.ColumnAlignment`), run the *Match Values*
component over every set of aligned columns (embed cell values,
bipartite-match value sets column pair by column pair, fold matches into a
combined column and pick representative values), rewrite every cell with its
representative, then apply the ordinary equi-join Full Disjunction.

Public entry points, from highest to lowest level:

* :func:`~repro.core.engine.integrate` — one-call convenience (fuzzy or
  regular integration of a list of tables on a fresh engine).
* :class:`~repro.core.engine.IntegrationEngine` — the long-lived engine for
  repeated requests: resolves the embedder, solver and FD algorithm once,
  keeps the embedding cache warm across calls, exposes the pipeline as
  inspectable stages (``align`` → ``match`` → ``integrate``), and accepts
  per-request overrides (``engine.integrate(tables, threshold=0.8)``;
  ``fuzzy=False`` runs the regular, equi-join Full Disjunction baseline).
* :class:`~repro.core.value_matching.ValueMatcher` — the Match Values
  component, usable standalone.
* :class:`~repro.core.config.FuzzyFDConfig` — configuration: every knob
  validated eagerly against its plugin registry, serialisable
  (``to_dict``/``from_dict``/``from_json``), with named presets
  (``FuzzyFDConfig.preset("paper" | "fast" | "scale")``).

Every extension point (embedding models, FD algorithms, assignment solvers,
representative policies) is a
:class:`repro.registry.Registry`; see the respective modules for the
``@register`` decorators.
"""

from repro.core.config import PRESETS, FuzzyFDConfig, available_presets
from repro.core.representatives import (
    REPRESENTATIVE_POLICIES,
    available_policies,
    select_representative,
)
from repro.core.value_matching import ColumnValues, ValueMatcher, ValueMatchingResult
from repro.core.engine import (
    AlignmentStage,
    FuzzyIntegrationResult,
    IntegrationEngine,
    MatchStage,
    integrate,
)

__all__ = [
    "FuzzyFDConfig",
    "PRESETS",
    "available_presets",
    "ValueMatcher",
    "ValueMatchingResult",
    "ColumnValues",
    "IntegrationEngine",
    "AlignmentStage",
    "MatchStage",
    "FuzzyIntegrationResult",
    "integrate",
    "select_representative",
    "available_policies",
    "REPRESENTATIVE_POLICIES",
]
