"""FastText-style character n-gram embedder.

This follows the construction of the real fastText model (bag of character
n-grams plus word tokens, averaged): each n-gram and token is hashed to a
deterministic pseudo-random direction, the directions are summed and the sum
is normalised.  Values that share most of their character n-grams — typos,
case variants, values with small prefixes/suffixes added — end up close in
cosine space; values with disjoint surfaces (abbreviations, synonyms) do not,
which is exactly the weakness Table 1 of the paper shows for FastText.
"""

from __future__ import annotations

from typing import Sequence

from repro.embeddings.hashed import EMPTY_BAG, Bag, HashedFeatureEmbedder, pooled
from repro.utils.text import character_ngrams, normalize_value, tokenize


class FastTextEmbedder(HashedFeatureEmbedder):
    """Bag-of-character-n-grams embedding (word-level model baseline)."""

    name = "fasttext"

    def __init__(
        self,
        dimension: int = 256,
        ngram_sizes: tuple = (3, 4, 5),
        token_weight: float = 0.5,
        noise_level: float = 0.05,
        cache=None,
    ) -> None:
        super().__init__(dimension=dimension, cache=cache)
        self.ngram_sizes = tuple(ngram_sizes)
        self.token_weight = token_weight
        self.noise_level = noise_level

    def _features(self, text: str) -> Sequence[Bag]:
        """Classes: character n-grams, tokens, per-value noise."""
        normalised = normalize_value(text)
        if not normalised:
            return EMPTY_BAG, EMPTY_BAG, (1.0, ("__empty__",))
        grams = [
            f"gram:{gram}"
            for size in self.ngram_sizes
            for gram in character_ngrams(normalised, n=size, normalized=True)
        ]
        tokens = [f"word:{token}" for token in tokenize(normalised, normalized=True)]
        return (
            pooled(1.0, grams),
            pooled(self.token_weight, tokens),
            (self.noise_level, (f"noise:{self.name}:{text}",)) if self.noise_level > 0 else EMPTY_BAG,
        )
