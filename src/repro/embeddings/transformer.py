"""Simulated contextual / LLM embedders.

The real system extracts the last hidden layer of a pre-trained language model
for every cell value.  What the fuzzy-matching pipeline needs from those
embeddings is a *semantic metric*: surface forms of the same real-world value
are close, unrelated values are far.  :class:`SimulatedTransformerEmbedder`
reproduces that metric deterministically from three ingredients:

* a **surface component** — character n-grams and tokens of the (possibly
  canonicalised) value, so typos, case changes and token reordering stay close;
* a **semantic anchor** — when the model "knows" a surface form (a lexicon hit
  that passes the model's coverage gate), the embedding is pulled toward a
  direction shared by every form of the concept, so abbreviations and synonyms
  with disjoint surfaces still match;
* **model noise** — a per-value perturbation whose magnitude differentiates
  model quality.

Coverage and noise are the two fidelity knobs.  BERT and RoBERTa get partial
lexicon coverage and higher noise; the LLM simulators in
:mod:`repro.embeddings.llm` get broad coverage and low noise.  This reproduces
the ordering of the paper's Table 1 (see ``docs/embeddings.md``, "What Table 1
depends on").
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.embeddings.hashed import EMPTY_BAG, Bag, HashedFeatureEmbedder, pooled
from repro.embeddings.lexicon import SemanticLexicon, default_lexicon
from repro.utils.hashing import stable_hash
from repro.utils.text import character_ngrams, normalize_value, tokenize


class SimulatedTransformerEmbedder(HashedFeatureEmbedder):
    """Deterministic simulation of a pre-trained language-model embedder.

    Parameters
    ----------
    model_name:
        Registry name; also salts the coverage gate and noise so different
        models make *different* mistakes, as real models do.
    lexicon_coverage:
        Probability (per surface form, decided deterministically by hash) that
        the model knows the form's concept.
    noise_level:
        Magnitude of the per-value noise direction.
    semantic_weight / canonical_weight / token_weight / char_weight:
        Mixing weights of the semantic anchor, canonicalised-surface,
        token and raw-character components.
    lexicon:
        Knowledge base; defaults to :func:`default_lexicon`.
    """

    name = "simulated_transformer"

    def __init__(
        self,
        model_name: Optional[str] = None,
        dimension: int = 256,
        lexicon_coverage: float = 0.5,
        noise_level: float = 0.25,
        semantic_weight: float = 1.5,
        token_weight: float = 0.5,
        char_weight: float = 1.0,
        lexicon: Optional[SemanticLexicon] = None,
        cache=None,
    ) -> None:
        super().__init__(dimension=dimension, cache=cache)
        if model_name is not None:
            self.name = model_name
        if not 0.0 <= lexicon_coverage <= 1.0:
            raise ValueError("lexicon_coverage must be in [0, 1]")
        self.lexicon_coverage = lexicon_coverage
        self.noise_level = noise_level
        self.semantic_weight = semantic_weight
        self.token_weight = token_weight
        self.char_weight = char_weight
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self._known: Dict[str, bool] = {}

    # -- knowledge gates -----------------------------------------------------------
    def knows_concept(self, concept: str) -> bool:
        """Whether this model's coverage gate admits knowledge of ``concept``.

        Knowledge is decided at the *concept* level (a model either knows the
        country Spain — including its codes ES/ESP — or it does not), which is
        how real language models generalise.  The decision is deterministic per
        (model, concept), so the same model always makes the same mistakes.
        """
        known = self._known.get(concept)
        if known is None:
            bucket = stable_hash(f"knows:{self.name}:{concept}", seed=29) % 10_000
            known = self._known[concept] = bucket < int(self.lexicon_coverage * 10_000)
        return known

    def _semantic_concept(self, normalised: str) -> Optional[str]:
        concept = self.lexicon.lookup(normalised, normalized=True)
        if concept is not None and self.knows_concept(concept):
            return concept
        return None

    def _canonical_text(self, normalised: str) -> str:
        """Token-level canonicalisation ("main st" -> "main street").

        Full-value lexicon hits keep their own surface (the semantic anchor is
        what pulls e.g. "ES" and "Spain" together); only known single-token
        abbreviations are expanded so that multi-token values sharing the rest
        of their surface stay close.
        """
        expanded = []
        for token in tokenize(normalised, normalized=True):
            concept = self.lexicon.token_concept(token, normalized=True)
            if concept is not None and self.knows_concept(concept):
                expanded.append(concept)
            else:
                expanded.append(token)
        return " ".join(expanded) if expanded else normalised

    # -- embedding ------------------------------------------------------------------
    def _features(self, text: str) -> Sequence[Bag]:
        """Classes: character n-grams, tokens, semantic anchor, model noise."""
        normalised = normalize_value(text)
        if not normalised:
            return EMPTY_BAG, EMPTY_BAG, EMPTY_BAG, (1.0, ("__empty__",))
        # Surface classes run over the canonicalised text (typos, case and
        # token-level abbreviations such as "Main St" vs "Main Street").
        canonical = self._canonical_text(normalised)
        grams = [
            f"gram:{gram}"
            for size in (3, 4)
            for gram in character_ngrams(canonical, n=size, normalized=True)
        ]
        tokens = [f"word:{token}" for token in tokenize(canonical, normalized=True)]
        # Semantic anchor: every known form of a concept shares this direction.
        concept = self._semantic_concept(normalised)
        return (
            pooled(self.char_weight, grams),
            pooled(self.token_weight, tokens),
            (self.semantic_weight, (f"concept:{concept}",)) if concept is not None else EMPTY_BAG,
            (self.noise_level, (f"noise:{self.name}:{normalised}",))
            if self.noise_level > 0
            else EMPTY_BAG,
        )


class BertEmbedder(SimulatedTransformerEmbedder):
    """Simulated BERT-base cell-value embedder (partial semantic coverage)."""

    name = "bert"

    def __init__(self, dimension: int = 256, lexicon: Optional[SemanticLexicon] = None, cache=None) -> None:
        super().__init__(
            model_name="bert",
            dimension=dimension,
            lexicon_coverage=0.55,
            noise_level=0.45,
            lexicon=lexicon,
            cache=cache,
        )


class RobertaEmbedder(SimulatedTransformerEmbedder):
    """Simulated RoBERTa cell-value embedder (slightly better than BERT)."""

    name = "roberta"

    def __init__(self, dimension: int = 256, lexicon: Optional[SemanticLexicon] = None, cache=None) -> None:
        super().__init__(
            model_name="roberta",
            dimension=dimension,
            lexicon_coverage=0.60,
            noise_level=0.40,
            lexicon=lexicon,
            cache=cache,
        )
