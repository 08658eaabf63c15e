"""Fine-tuned cell-value embedder (the paper's stated future work).

The conclusion of the paper announces "finetuned models to better represent
the column values".  This module provides that extension point in the
simulated setting: :class:`FineTunedEmbedder` wraps any base embedder and is
*fitted* on labelled value pairs (positive pairs that should match, negative
pairs that should not).  Fitting derives per-pair anchor corrections:

* every positive pair (and everything transitively connected through positive
  pairs) is pulled toward a shared anchor direction, exactly like the semantic
  lexicon does for concepts the base model already knows;
* every value involved in a negative pair receives a small repulsion component
  away from its negative partner's anchor, so confusable-but-different values
  are pushed apart.

This mirrors what contrastive fine-tuning does to a real embedding model on
the same supervision, and it composes with every other part of the pipeline:
a fitted :class:`FineTunedEmbedder` can be passed anywhere a
:class:`~repro.embeddings.base.ValueEmbedder` is accepted (the value matcher,
the Fuzzy FD configuration, the schema matcher, ...).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.base import EmbeddingCache, ValueEmbedder
from repro.embeddings.hashed import EMPTY_BAG, Bag, hashed_feature_rows
from repro.utils.text import normalize_value
from repro.utils.components import connected_groups

ValuePair = Tuple[object, object]


class FineTunedEmbedder(ValueEmbedder):
    """A base embedder adjusted with labelled match / non-match pairs.

    Parameters
    ----------
    base:
        The pre-trained embedder to start from (e.g. the Mistral simulator).
    anchor_weight:
        Strength of the learned anchor for values covered by positive pairs.
    repulsion_weight:
        Strength of the push-apart component for values covered by negative pairs.
    """

    name = "finetuned"
    revision = 2  # anchors come from the ±1 direction family (see hashed.py)

    def __init__(
        self,
        base: ValueEmbedder,
        anchor_weight: float = 2.0,
        repulsion_weight: float = 0.75,
        cache: Optional[EmbeddingCache] = None,
    ) -> None:
        super().__init__(dimension=base.dimension, cache=cache)
        self.base = base
        self.name = f"finetuned[{base.name}]"
        self.anchor_weight = anchor_weight
        self.repulsion_weight = repulsion_weight
        self._anchor_of: Dict[str, str] = {}
        self._repulsion_of: Dict[str, set] = {}
        self._fitted = False

    # -- fitting ---------------------------------------------------------------------
    def fit(
        self,
        positive_pairs: Iterable[ValuePair],
        negative_pairs: Iterable[ValuePair] = (),
    ) -> "FineTunedEmbedder":
        """Learn anchors from labelled pairs; returns ``self`` for chaining.

        Positive pairs are closed transitively (if a~b and b~c then a, b, c all
        share one anchor).  Fitting replaces any previously learned state and
        clears the embedding cache.
        """
        pairs = [(normalize_value(left), normalize_value(right)) for left, right in positive_pairs]
        self._anchor_of = {}
        for group in connected_groups((), pairs):
            anchor_id = sorted(group)[0]
            for member in group:
                self._anchor_of[member] = anchor_id

        self._repulsion_of = {}
        for left, right in negative_pairs:
            left_key = normalize_value(left)
            right_key = normalize_value(right)
            self._repulsion_of.setdefault(left_key, set()).add(right_key)
            self._repulsion_of.setdefault(right_key, set()).add(left_key)

        self._fitted = True
        self._cache.clear()
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called with at least one pair."""
        return self._fitted

    def known_values(self) -> int:
        """Number of distinct values covered by the learned anchors."""
        return len(self._anchor_of)

    # -- embedding ---------------------------------------------------------------------
    def _features(self, text: str) -> Sequence[Bag]:
        """Classes: the value's own anchor (+), its negative partners' anchors (−)."""
        key = normalize_value(text)
        anchor = self._anchor_of.get(key)
        partners = [self._anchor_of.get(repelled) for repelled in sorted(self._repulsion_of.get(key, ()))]
        return (
            (self.anchor_weight, (f"finetuned-anchor:{anchor}",)) if anchor is not None else EMPTY_BAG,
            (
                -self.repulsion_weight,
                [f"finetuned-anchor:{p}" for p in partners if p not in (None, anchor)],
            ),
        )

    def _embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        rows = self.base.embed_many(texts) + hashed_feature_rows(
            [self._features(text) for text in texts], self.dimension
        )
        # Negative supervision: subtract a fraction of each partner's *base*
        # embedding, which directly lowers the cosine similarity of the pair
        # (the contrastive push-apart of a real fine-tuning run).
        for row, text in zip(rows, texts):
            repelled = sorted(self._repulsion_of.get(normalize_value(text), ()))
            if repelled:
                row -= self.repulsion_weight * self.base.embed_many(repelled).sum(axis=0)
        return rows
