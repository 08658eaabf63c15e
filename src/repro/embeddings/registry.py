"""Embedder registry: build embedders by name.

The benchmark harnesses iterate over the same model names the paper's Table 1
reports, so they resolve embedders through this registry.  ``EMBEDDERS`` is a
:class:`repro.registry.Registry`; downstream models plug in with
``@EMBEDDERS.register("name")`` (the legacy :func:`register_embedder` helper
forwards there).
"""

from __future__ import annotations

from typing import Callable, List

from repro.embeddings.base import ValueEmbedder
from repro.embeddings.exact import ExactEmbedder
from repro.embeddings.fasttext import FastTextEmbedder
from repro.embeddings.llm import Llama3Embedder, MistralEmbedder
from repro.embeddings.transformer import BertEmbedder, RobertaEmbedder
from repro.registry import Registry


#: All embedding models, keyed by registry name.
EMBEDDERS: Registry[Callable[..., ValueEmbedder]] = Registry(
    "embedding model",
    {
        "exact": ExactEmbedder,
        "fasttext": FastTextEmbedder,
        "bert": BertEmbedder,
        "roberta": RobertaEmbedder,
        "llama3": Llama3Embedder,
        "mistral": MistralEmbedder,
    },
)

#: The models evaluated in the paper's Table 1, in presentation order.
TABLE1_MODELS = ["fasttext", "bert", "roberta", "llama3", "mistral"]


def available_embedders() -> List[str]:
    """Names of all registered embedding models."""
    return EMBEDDERS.names()


def get_embedder(name: str, **kwargs) -> ValueEmbedder:
    """Instantiate an embedder by registry name.

    >>> get_embedder("mistral").name
    'mistral'
    """
    return EMBEDDERS.create(name, **kwargs)


def register_embedder(name: str, factory: Callable[..., ValueEmbedder]) -> None:
    """Register a custom embedder factory (used by tests and extensions)."""
    EMBEDDERS.register(name, factory)
