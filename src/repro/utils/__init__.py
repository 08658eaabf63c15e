"""Shared low-level utilities used across the repro package.

The utilities here are intentionally dependency-light: text normalisation and
string-distance helpers, the array connected-component labelling
(:mod:`repro.utils.components`) shared by the blocked matcher, the Full
Disjunction algorithms and value and entity clustering, deterministic hashing
used by the simulated embedding models, and the shared
parallel execution layer (:class:`~repro.utils.executor.ExecutorConfig` +
:func:`~repro.utils.executor.run_partitioned`) behind every worker pool in
the pipeline.
"""

from repro.utils.executor import (
    EXECUTOR_BACKENDS,
    ExecutorConfig,
    partition_batches,
    run_partitioned,
)
from repro.utils.hashing import stable_hash
from repro.utils.text import (
    character_ngrams,
    jaccard_similarity,
    levenshtein,
    normalize_value,
    tokenize,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "ExecutorConfig",
    "partition_batches",
    "run_partitioned",
    "stable_hash",
    "normalize_value",
    "tokenize",
    "character_ngrams",
    "levenshtein",
    "jaccard_similarity",
]
