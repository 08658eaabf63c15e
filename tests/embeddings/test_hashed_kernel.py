"""The batched hashed-feature kernel: differential, boundary and hostile-input tests.

Every simulated embedder states its model as ``_features`` and shares one
kernel (``repro.embeddings.hashed``).  The kernel's contract, tested here:

* it computes exactly what ``_features`` says — compared against a loop that
  adds ``scale * stable_vector(feature)`` one feature at a time;
* a text's row is **bit-identical** whatever shares the call: alone, in any
  batch, in any order, with duplicates, across any slab boundaries;
* hostile texts embed to finite unit rows;
* the cache counters move exactly as they did before the batch seam.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    EmbeddingCache,
    FineTunedEmbedder,
    MistralEmbedder,
    ValueEmbedder,
    base,
    default_lexicon,
    get_embedder,
)
from repro.embeddings.hashed import hashed_feature_rows
from repro.utils.hashing import stable_vector

SIMULATED = ["exact", "fasttext", "bert", "roberta", "llama3", "mistral"]

VALUES = [
    "Berlin", "Berlinn", "berlin", "New Delhi", "Main St", "Main Street", "ES", "Spain",
    "United States", "USA", "Toronto", "R&D", "km/h", "São Paulo", "12 Oak Ave.", "Dr. Who",
]

HOSTILE = [
    "",
    None,
    "   \t\n ",
    "x",
    "?!… —",  # punctuation only: no tokens, grams only
    "lorem ipsum " * 834,  # ~10 000 characters: one bag far longer than any other
    "Zoë Amélie",  # combining marks
    "\U0001F600 \U00020000 emoji and CJK extension B",  # non-BMP code points
    "aaaa",  # repeated n-grams: one feature counted several times in a bag
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
]


def fitted_finetuned() -> FineTunedEmbedder:
    return FineTunedEmbedder(get_embedder("mistral")).fit(
        positive_pairs=[("Berlin", "Berlinn"), ("ES", "Spain"), ("Spain", "Zorblax")],
        negative_pairs=[("Berlin", "Toronto"), ("Berlin", "Spain"), ("Berlin", "USA")],
    )


def reference_rows(embedder, texts) -> np.ndarray:
    """What ``_features`` states, one feature at a time (no interning, no batching)."""
    rows = np.zeros((len(texts), embedder.dimension))
    for row, text in zip(rows, texts):
        for scale, features in embedder._features(text):
            for feature in features:
                row += scale * stable_vector(feature, embedder.dimension)
    return rows


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("name", SIMULATED)
    def test_registered_models(self, name):
        embedder = get_embedder(name)
        texts = [base.embedding_text(value) for value in VALUES + HOSTILE]
        expected = reference_rows(embedder, texts)
        # Relative to each row's size: the kernel's sums are exact, the
        # reference's 30 000 float additions for the long text are not.
        size = np.abs(expected).max(axis=1, keepdims=True)
        assert (np.abs(embedder._embed_texts(texts) - expected) / size).max() <= 1e-12
        assert np.abs(embedder.embed_many(VALUES + HOSTILE) - unit(expected)).max() <= 1e-12

    def test_fitted_finetuned(self):
        embedder = fitted_finetuned()
        assert embedder.known_values() == 5
        texts = ["Berlin", "berlinn", "Spain", "Toronto", "USA", "Oslo", ""]
        expected = embedder.base.embed_many(texts) + reference_rows(embedder, texts)
        for row, text in zip(expected, texts):
            for repelled in sorted(embedder._repulsion_of.get(text.lower(), ())):
                row -= embedder.repulsion_weight * embedder.base.embed(repelled)
        assert np.abs(embedder._embed_texts(texts) - expected).max() <= 1e-12
        # The anchors really are in the rows: values fitted together moved closer.
        assert embedder.cosine_similarity("ES", "Zorblax") > embedder.base.cosine_similarity("ES", "Zorblax") + 0.3

    def test_repeated_features_count_with_multiplicity(self):
        once = hashed_feature_rows([[(1.0, ["a", "b"])]], 64)
        twice = hashed_feature_rows([[(1.0, ["a", "b", "a"])]], 64)
        assert np.array_equal(twice - once, hashed_feature_rows([[(1.0, ["a"])]], 64))

    def test_classes_are_applied_in_order_with_their_own_scale(self):
        rows = hashed_feature_rows([[(2.0, ["a"]), (0.0, ()), (-0.5, ["b", "c"])]], 32)
        expected = 2.0 * stable_vector("a", 32) - 0.5 * (stable_vector("b", 32) + stable_vector("c", 32))
        assert np.abs(rows[0] - expected).max() <= 1e-15

    def test_no_texts_and_no_features(self):
        assert hashed_feature_rows([], 8).shape == (0, 8)
        assert np.array_equal(hashed_feature_rows([[(1.0, ())], [(0.0, ())]], 8), np.zeros((2, 8)))


# -- bit-identity --------------------------------------------------------------------
LEXICON = default_lexicon()
text_pool = st.one_of(
    st.sampled_from(VALUES + [value for value in HOSTILE if value is not None and len(value) < 100]),
    st.text(max_size=24),
)


def fresh(slab: int, values) -> np.ndarray:
    """``values`` through the raw path of a fresh embedder, slabs of ``slab`` texts."""
    with mock.patch.object(base, "EMBED_SLAB", slab):
        return MistralEmbedder(lexicon=LEXICON).embed_many(values)


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(text_pool, min_size=22, max_size=30, unique=True),
        duplicates=st.lists(st.integers(0, 21), max_size=8),
        slab=st.sampled_from([1, 2, 7, 256]),
        data=st.data(),
    )
    def test_row_does_not_depend_on_its_batch(self, texts, duplicates, slab, data):
        # >= 22 distinct texts: slabs of 7 straddle at least three boundaries.
        batch = texts + [texts[index] for index in duplicates]
        order = data.draw(st.permutations(range(len(batch))))
        together = fresh(256, batch)
        shuffled = fresh(slab, [batch[index] for index in order])
        assert np.array_equal(shuffled, together[order])
        probe = data.draw(st.integers(0, len(texts) - 1))
        assert np.array_equal(fresh(slab, [texts[probe]])[0], together[probe])
        subset = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=9))
        assert np.array_equal(fresh(slab, [texts[index] for index in subset]), together[subset])

    @pytest.mark.parametrize("name", SIMULATED + ["finetuned"])
    def test_hostile_texts_alone_equal_in_batch(self, name):
        make = fitted_finetuned if name == "finetuned" else (lambda: get_embedder(name))
        together = make().embed_many(HOSTILE + VALUES)
        assert np.isfinite(together).all()
        assert np.abs(np.linalg.norm(together, axis=1) - 1.0).max() <= 1e-12
        for row, value in zip(together, HOSTILE + VALUES):
            assert np.array_equal(make().embed(value), row), repr(value)[:40]

    def test_empty_none_and_whitespace_share_the_empty_direction(self):
        empty, none, blank, letter = MistralEmbedder().embed_many(["", None, " \t ", "x"])
        assert np.array_equal(empty, none) and np.array_equal(empty, blank)
        assert abs(float(empty @ letter)) < 0.5

    def test_second_fresh_embedder_shares_no_state_with_the_first(self):
        # No process-level memo: nothing in the modules changes as values embed.
        import repro.embeddings.hashed as hashed
        import repro.utils.hashing as hashing

        def module_state():
            return {
                (module.__name__, name): id(value)
                for module in (hashed, hashing)
                for name, value in vars(module).items()
            }

        before = module_state()
        first = MistralEmbedder().embed_many(VALUES)
        assert module_state() == before
        assert np.array_equal(MistralEmbedder().embed_many(VALUES), first)


# -- the seam ----------------------------------------------------------------------
class CountingCache(EmbeddingCache):
    def __init__(self):
        super().__init__()
        self.put_many_sizes = []

    def put_many(self, model, texts, vectors):
        self.put_many_sizes.append(len(texts))
        super().put_many(model, texts, vectors)


class TestBatchSeam:
    def test_one_put_many_per_slab(self):
        cache = CountingCache()
        embedder = MistralEmbedder(cache=cache)
        values = [f"value {index}" for index in range(600)]
        embedder.embed_many(values + values[:50])
        assert cache.put_many_sizes == [256, 256, 88]
        assert cache.stats() == {"hits": 50, "misses": 600, "fills": 600, "size": 600}

    def test_counters_match_the_per_text_path_they_replaced(self):
        """hits / misses / fills / size after each call, as recorded at the parent commit."""
        embedder = MistralEmbedder()
        script = [
            (embedder.embed_many, ["berlin", "paris", "rome", "berlin"], (1, 3, 3, 3)),  # cold
            (embedder.embed_many, ["berlin", "paris", "rome"], (4, 3, 3, 3)),  # warm
            (embedder.embed_many, ["berlin", "oslo", "oslo", None, "paris", "oslo", ""], (9, 5, 5, 5)),
            (embedder.embed, "berlin", (10, 5, 5, 5)),
            (embedder.embed, "madrid", (10, 6, 6, 6)),
            (embedder.embed, "madrid", (11, 6, 6, 6)),
            (embedder.embed_many, [], (11, 6, 6, 6)),
        ]
        for call, argument, expected in script:
            call(argument)
            stats = embedder.cache.stats()
            assert (stats["hits"], stats["misses"], stats["fills"], stats["size"]) == expected

    def test_per_text_embedders_still_plug_in(self):
        class PerText(ValueEmbedder):
            name = "per-text"

            def _embed_text(self, text):
                return np.arange(1.0, self.dimension + 1.0) * (len(text) + 1)

        embedder = PerText(dimension=4)
        assert embedder.revision == 1
        matrix = embedder.embed_many(["a", "bb", "a"])
        assert matrix.shape == (3, 4) and np.array_equal(matrix[0], matrix[2])
        assert np.linalg.norm(matrix, axis=1) == pytest.approx([1.0, 1.0, 1.0])

    def test_wrong_shape_from_the_seam_is_rejected(self):
        class Short(ValueEmbedder):
            name = "short"

            def _embed_texts(self, texts):
                return np.ones((len(texts), self.dimension - 1))

        with pytest.raises(ValueError, match=r"short produced shape \(2, 7\), expected \(2, 8\)"):
            Short(dimension=8).embed_many(["a", "b"])

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_from_the_seam_are_rejected_before_the_cache(self, poison):
        class Faulty(MistralEmbedder):
            def _embed_texts(self, texts):
                rows = super()._embed_texts(texts)
                rows[[text.startswith("bad") for text in texts], 3] = poison
                return rows

        embedder = Faulty()
        with pytest.raises(ValueError, match="mistral.* produced a non-finite embedding for 'bad one'"):
            embedder.embed_many(["fine", "bad one", "bad two", "fine"])
        # The whole slab is refused, its healthy rows included: nothing was cached.
        assert embedder.cache.stats()["size"] == 0
        assert np.isfinite(embedder.embed_many(["fine", "good"])).all()
        assert embedder.cache.stats()["size"] == 2

    def test_an_all_zero_row_stays_legal(self):
        class Silent(MistralEmbedder):
            def _embed_texts(self, texts):
                rows = super()._embed_texts(texts)
                rows[[text == "mute" for text in texts]] = 0.0
                return rows

        embedder = Silent()
        matrix = embedder.embed_many(["mute", "berlin"])
        assert not matrix[0].any() and np.linalg.norm(matrix[1]) == pytest.approx(1.0)
        assert embedder.cosine_distance("mute", "berlin") == 1.0

    def test_an_embedder_with_neither_seam_says_so(self):
        with pytest.raises(NotImplementedError, match="neither embed seam"):
            ValueEmbedder(dimension=4).embed("a")
