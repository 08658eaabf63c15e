"""Column signatures: content-based features used for holistic schema matching.

ALITE represents each column by pre-trained embeddings of its contents and
aligns columns whose representations are close.  A
:class:`ColumnSignature` captures the same idea: a mean-pooled embedding of a
sample of the column's values plus a few cheap profile statistics (value
length, numeric fraction, distinctness) that help separate columns whose
content embeddings are similar but whose roles differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.embeddings.base import ValueEmbedder
from repro.table.nulls import is_null
from repro.table.table import Table
from repro.utils.text import normalize_value


@dataclass
class ColumnSignature:
    """Embedding plus profile statistics of one column."""

    table: str
    column: str
    embedding: np.ndarray
    mean_length: float
    numeric_fraction: float
    distinct_fraction: float
    null_fraction: float
    sample_values: List[object]

    def profile_vector(self) -> np.ndarray:
        """The non-embedding statistics as a small vector."""
        return np.array(
            [self.mean_length, self.numeric_fraction, self.distinct_fraction, self.null_fraction],
            dtype=np.float64,
        )

    def similarity(self, other: "ColumnSignature", profile_weight: float = 0.15) -> float:
        """Similarity in [0, 1]: cosine of embeddings blended with profile closeness."""
        cosine = float(np.dot(self.embedding, other.embedding))
        cosine = (cosine + 1.0) / 2.0  # map [-1, 1] -> [0, 1]
        profile_distance = float(
            np.abs(self.profile_vector() - other.profile_vector()).mean()
        )
        profile_similarity = max(0.0, 1.0 - profile_distance)
        return (1.0 - profile_weight) * cosine + profile_weight * profile_similarity


def _looks_numeric(value: object) -> bool:
    text = normalize_value(value).replace(",", "").replace("%", "").replace("$", "")
    if not text:
        return False
    try:
        float(text)
        return True
    except ValueError:
        return False


def column_signature(
    table: Table,
    column: str,
    embedder: ValueEmbedder,
    sample_size: int = 30,
) -> ColumnSignature:
    """Compute the signature of one column.

    The value sample is deterministic (first ``sample_size`` distinct values)
    so repeated runs and tests see identical signatures.  ``table`` is a
    :class:`Table` or a :class:`~repro.table.relation.Relation`: only its
    distinct values and null fraction are read.
    """
    null_fraction = table.null_fraction(column)
    non_null = table.num_rows - round(null_fraction * table.num_rows)
    distinct = table.distinct_values(column)
    sample = distinct[:sample_size]

    if sample:
        embeddings = embedder.embed_many(sample)
        pooled = embeddings.mean(axis=0)
        norm = np.linalg.norm(pooled)
        if norm > 0:
            pooled = pooled / norm
    else:
        pooled = np.zeros(embedder.dimension, dtype=np.float64)

    lengths = [len(normalize_value(value)) for value in sample] or [0]
    mean_length = min(1.0, float(np.mean(lengths)) / 40.0)
    numeric_fraction = (
        float(np.mean([1.0 if _looks_numeric(value) else 0.0 for value in sample])) if sample else 0.0
    )
    distinct_fraction = len(distinct) / non_null if non_null else 0.0

    return ColumnSignature(
        table=table.name,
        column=column,
        embedding=pooled,
        mean_length=mean_length,
        numeric_fraction=numeric_fraction,
        distinct_fraction=distinct_fraction,
        null_fraction=null_fraction,
        sample_values=list(sample),
    )


def all_signatures(
    tables: Sequence[Table], embedder: ValueEmbedder, sample_size: int = 30
) -> List[ColumnSignature]:
    """Signatures of every column of every table (tables in given order)."""
    signatures: List[ColumnSignature] = []
    for table in tables:
        for column in table.columns:
            signatures.append(column_signature(table, column, embedder, sample_size=sample_size))
    return signatures
