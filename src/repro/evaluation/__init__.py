"""Evaluation: value-matching metrics, runtime sweeps, report formatting.

The paper's experiments and their ablations are built from these pieces
(:mod:`repro.evaluation.experiments`, run by ``repro benchmark``), so the same
measurements can be reproduced programmatically (see ``examples/``) and
unit-tested.
"""

from repro.evaluation.metrics import (
    MatchingScores,
    macro_average,
    score_integration_set,
    score_match_sets,
)
from repro.evaluation.runtime import RuntimePoint, runtime_sweep
from repro.evaluation.reporting import (
    format_cache_statistics,
    format_component_histogram,
    format_markdown_table,
    format_request_trace,
    format_scores_table,
)

__all__ = [
    "MatchingScores",
    "score_match_sets",
    "score_integration_set",
    "macro_average",
    "RuntimePoint",
    "runtime_sweep",
    "format_cache_statistics",
    "format_component_histogram",
    "format_markdown_table",
    "format_request_trace",
    "format_scores_table",
]
