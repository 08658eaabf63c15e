"""Tests for the simulated embedding models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    BertEmbedder,
    EmbedderUnavailable,
    EmbeddingCache,
    ExactEmbedder,
    FastTextEmbedder,
    Llama3Embedder,
    MistralEmbedder,
    RobertaEmbedder,
    available_embedders,
    get_embedder,
)
from repro.embeddings.registry import TABLE1_MODELS, register_embedder

ALL_EMBEDDERS = [
    ExactEmbedder,
    FastTextEmbedder,
    BertEmbedder,
    RobertaEmbedder,
    Llama3Embedder,
    MistralEmbedder,
]


class TestRegistry:
    def test_table1_models_are_registered(self):
        assert set(TABLE1_MODELS) <= set(available_embedders())

    def test_get_embedder(self):
        assert get_embedder("fasttext").name == "fasttext"

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            get_embedder("gpt-17")

    def test_register_custom(self):
        register_embedder("custom-exact", ExactEmbedder)
        assert get_embedder("custom-exact").name == "exact"

    def test_the_chaos_embedder_is_gone(self):
        assert "chaos" not in available_embedders()
        with pytest.raises(ValueError, match="mistral"):
            get_embedder("chaos")


class TestEmbedderUnavailable:
    """The one fault an embedder reports: its backend is down."""

    def test_a_plain_runtime_error_with_a_message(self):
        error = EmbedderUnavailable("backend is down")
        assert isinstance(error, RuntimeError) and str(error) == "backend is down"
        assert not hasattr(error, "retry_after_ms")
        with pytest.raises(TypeError):
            EmbedderUnavailable("backend is down", retry_after_ms=1.0)

    def test_one_class_and_two_modes_on_every_import_path(self):
        from repro import embeddings
        from repro.embeddings import base

        assert embeddings.EmbedderUnavailable is base.EmbedderUnavailable
        assert embeddings.DEGRADED_MODES == base.DEGRADED_MODES == ("off", "surface")

    def test_the_wrappers_and_the_fault_injector_are_gone(self):
        import importlib

        from repro import embeddings, testing

        for name in ("ResilientEmbedder", "DelegatingEmbedder"):
            assert not hasattr(embeddings, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.embeddings.resilient")
        assert testing.__all__ == ["corrupt_array_file"]


class TestEmbedderContract:
    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_unit_norm(self, embedder_cls):
        embedder = embedder_cls()
        vector = embedder.embed("Berlin")
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_deterministic(self, embedder_cls):
        first = embedder_cls().embed("Toronto")
        second = embedder_cls().embed("Toronto")
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_dimension(self, embedder_cls):
        embedder = embedder_cls()
        assert embedder.embed("x").shape == (embedder.dimension,)

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_embed_many_shape(self, embedder_cls):
        embedder = embedder_cls()
        matrix = embedder.embed_many(["a", "b", "c"])
        assert matrix.shape == (3, embedder.dimension)

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_empty_and_none_values_handled(self, embedder_cls):
        embedder = embedder_cls()
        assert embedder.embed("").shape == (embedder.dimension,)
        assert embedder.embed(None).shape == (embedder.dimension,)
        # An in-process simulator never raises EmbedderUnavailable, whatever the cell.
        matrix = embedder.embed_many(["\x00", "é" * 500, "Ⅻ ǅ ß", 3.5, True, -0.0])
        assert matrix.shape == (6, embedder.dimension) and np.isfinite(matrix).all()

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_identical_values_have_zero_distance(self, embedder_cls):
        embedder = embedder_cls()
        assert embedder.cosine_distance("Boston", "Boston") == pytest.approx(0.0, abs=1e-9)

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            FastTextEmbedder(dimension=0)

    @given(st.text(min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_mistral_embeddings_always_unit_norm(self, text):
        embedder = MistralEmbedder()
        assert np.linalg.norm(embedder.embed(text)) == pytest.approx(1.0, abs=1e-6)


class TestSemanticBehaviour:
    def test_typos_are_close_for_all_models(self):
        for embedder_cls in (FastTextEmbedder, BertEmbedder, MistralEmbedder):
            embedder = embedder_cls()
            assert embedder.cosine_distance("Berlinn", "Berlin") < 0.7

    def test_case_changes_are_free(self):
        embedder = MistralEmbedder()
        assert embedder.cosine_distance("Barcelona", "barcelona") == pytest.approx(0.0, abs=1e-9)

    def test_unrelated_values_are_far(self):
        for embedder_cls in (FastTextEmbedder, MistralEmbedder):
            embedder = embedder_cls()
            assert embedder.cosine_distance("Toronto", "Boston") > 0.7

    def test_llm_resolves_country_codes_fasttext_does_not(self):
        mistral = MistralEmbedder()
        fasttext = FastTextEmbedder()
        assert mistral.cosine_distance("Canada", "CA") < 0.7
        assert fasttext.cosine_distance("Canada", "CA") > 0.7

    def test_exact_embedder_is_case_sensitive(self):
        embedder = ExactEmbedder()
        assert embedder.cosine_distance("Berlin", "berlin") > 0.7

    def test_concept_knowledge_is_deterministic(self):
        embedder = MistralEmbedder()
        assert embedder.knows_concept("spain") == embedder.knows_concept("spain")

    def test_coverage_bounds_validated(self):
        from repro.embeddings.transformer import SimulatedTransformerEmbedder

        with pytest.raises(ValueError):
            SimulatedTransformerEmbedder(lexicon_coverage=1.5)

    def test_token_level_abbreviation_resolved_by_llm(self):
        embedder = MistralEmbedder()
        assert embedder.cosine_distance("Main Street", "Main St") < 0.3


class TestEmbeddingCache:
    def test_hits_and_misses_counted(self):
        cache = EmbeddingCache()
        embedder = MistralEmbedder(cache=cache)
        embedder.embed("Berlin")
        embedder.embed("Berlin")
        assert cache.hits == 1
        assert cache.misses >= 1
        assert len(cache) == 1

    def test_eviction_at_capacity(self):
        cache = EmbeddingCache(max_entries=2)
        embedder = FastTextEmbedder(cache=cache)
        for value in ("a", "b", "c"):
            embedder.embed(value)
        assert len(cache) == 2

    def test_overwrite_at_capacity_does_not_evict(self):
        import numpy as np

        cache = EmbeddingCache(max_entries=2)
        cache.put("m", "a", np.zeros(2))
        cache.put("m", "b", np.zeros(2))
        cache.put("m", "a", np.ones(2))
        assert len(cache) == 2
        assert cache.get("m", "b") is not None
        assert cache.get("m", "a")[0] == 1.0

    def test_zero_capacity_does_not_crash(self):
        import numpy as np

        cache = EmbeddingCache(max_entries=0)
        cache.put("m", "a", np.zeros(2))
        cache.put("m", "b", np.zeros(2))
        assert len(cache) == 1

    def test_clear(self):
        cache = EmbeddingCache()
        embedder = FastTextEmbedder(cache=cache)
        embedder.embed("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_cache_is_per_model_name(self):
        cache = EmbeddingCache()
        mistral = MistralEmbedder(cache=cache)
        bert = BertEmbedder(cache=cache)
        mistral.embed("Berlin")
        bert.embed("Berlin")
        assert len(cache) == 2
