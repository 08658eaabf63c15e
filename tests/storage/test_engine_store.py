"""Store-backed engine lifecycle: warm starts, durable ANN, result identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.embeddings import MistralEmbedder
from repro.matching.ann import SemanticBlocker
from repro.storage import ArtifactStore, corpus_fingerprint, embedder_fingerprint
from repro.table import Table


class CountingEmbedder(MistralEmbedder):
    """MistralEmbedder that counts raw (uncached, unstored) embed calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.raw_embeds = 0

    def _embed_texts(self, texts):
        self.raw_embeds += len(texts)
        return super()._embed_texts(texts)


@pytest.fixture()
def tables():
    t1 = Table(
        "T1",
        ["City", "Country"],
        [("Berlinn", "Germany"), ("Toronto", "Canada"), ("Barcelona", "Spain")],
    )
    t2 = Table(
        "T2",
        ["City", "Country"],
        [("Berlin", "DE"), ("Toronto", "CA"), ("barcelona", "ES")],
    )
    return [t1, t2]


def _engine(store_dir, store_mode="readwrite", **knobs):
    config = FuzzyFDConfig(
        embedder=CountingEmbedder(),
        store_dir=str(store_dir) if store_dir is not None else None,
        store_mode=store_mode,
        **knobs,
    )
    return IntegrationEngine(config)


class TestWarmStart:
    def test_restarted_engine_makes_zero_raw_embed_calls(self, tmp_path, tables):
        cold = _engine(tmp_path / "store")
        cold_result = cold.integrate(tables)
        # One raw embed per distinct text: the warm zero below is measured by
        # a counter that is known to move.
        assert cold.embedder.raw_embeds == len(cold.embedding_cache) > 0
        assert cold_result.timings.get("store_published_rows", 0) == cold.embedder.raw_embeds

        warm = _engine(tmp_path / "store")
        warm_result = warm.integrate(tables)
        assert warm.embedder.raw_embeds == 0  # the acceptance criterion
        assert warm_result.table.rows == cold_result.table.rows
        assert warm_result.timings["cache_store_hits"] > 0
        assert warm_result.timings["cache_misses"] == 0

    def test_second_concurrent_engine_attaches(self, tmp_path, tables):
        first = _engine(tmp_path / "store")
        first.integrate(tables)
        assert first.embedder.raw_embeds == len(first.embedding_cache) > 0
        # Not a restart: both engines alive, second attaches the first's
        # published segments at construction.
        second = _engine(tmp_path / "store")
        assert second.embedding_cache.cold_rows > 0
        second.integrate(tables)
        assert second.embedder.raw_embeds == 0

    def test_store_of_the_old_direction_family_misses(self, tmp_path, tables):
        """A store published before the embedder's revision bump is never served.

        ``embeddings/mistral.d256/`` is where revision 1 (the Gaussian
        direction family) published; the engine must attach nothing from it
        and publish its own vectors under ``mistral.d256.r2``.
        """
        store_dir = tmp_path / "store"
        texts = sorted({str(value) for table in tables for row in table.rows for value in row})
        stale = np.ones((len(texts), 256)) / 16.0
        old_fp = embedder_fingerprint("mistral", 256)
        assert old_fp == "mistral.d256"
        assert ArtifactStore(store_dir).save_embedding_segment(
            old_fp, corpus_fingerprint(texts), texts, stale
        )

        engine = _engine(store_dir)
        assert engine.embedding_cache.embedder_fp == "mistral.d256.r2"
        assert engine.embedding_cache.cold_rows == 0
        result = engine.integrate(tables)
        embedded = len(engine.embedding_cache)
        assert engine.embedder.raw_embeds == embedded > 0
        assert result.timings["cache_store_hits"] == 0
        assert result.timings["store_published_rows"] == embedded
        assert sorted(path.name for path in (store_dir / "embeddings").iterdir()) == [
            "mistral.d256",
            "mistral.d256.r2",
        ]
        restarted = _engine(store_dir)
        assert restarted.embedding_cache.cold_rows == embedded
        assert restarted.integrate(tables).table.rows == result.table.rows
        assert restarted.embedder.raw_embeds == 0

    def test_save_publishes_pending_embeddings(self, tmp_path):
        engine = _engine(tmp_path / "store")
        engine.embedder.embed("standalone value")  # outside any request
        assert engine.save() == {"embedding_rows": 1}
        assert engine.save() == {"embedding_rows": 0}  # idempotent
        restarted = _engine(tmp_path / "store")
        assert restarted.embedding_cache.cold_rows == 1

    def test_no_store_engine_unchanged(self, tables):
        engine = _engine(None, store_mode="off")
        assert engine.store is None
        assert engine.save() == {"embedding_rows": 0}
        assert engine.store_statistics() == {}
        result = engine.integrate(tables)
        assert "store_published_rows" not in result.timings


class TestResultIdentity:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4), ("process", 2)])
    def test_store_on_off_cold_warm_identical(self, tmp_path, tables, backend, workers):
        knobs = dict(
            blocking="on",
            semantic_blocking="on",
            max_workers=workers,
            parallel_backend=backend,
        )
        baseline = _engine(None, store_mode="off", **knobs).integrate(tables)
        cold = _engine(tmp_path / "store", **knobs).integrate(tables)
        warm = _engine(tmp_path / "store", **knobs).integrate(tables)
        assert cold.table.rows == baseline.table.rows
        assert warm.table.rows == baseline.table.rows
        for group, matching in baseline.value_matching.items():
            assert cold.value_matching[group].sets == matching.sets
            assert warm.value_matching[group].sets == matching.sets


class TestStoreModeOverride:
    def test_read_override_suppresses_publication(self, tmp_path, tables):
        engine = _engine(tmp_path / "store")
        read_only = engine.integrate(tables, store_mode="read")
        assert engine.store_statistics()["segment_saves"] == 0
        assert "store_published_rows" not in read_only.timings
        # The next plain request runs readwrite again and publishes the
        # vectors the read-only request left pending.
        again = engine.integrate(tables)
        assert engine.store_statistics()["segment_saves"] == 1
        assert again.timings["store_published_rows"] > 0
        assert again.table.rows == read_only.table.rows

    def test_off_override_bypasses_matcher_store(self, tmp_path, tables):
        engine = _engine(tmp_path / "store", blocking="on", semantic_blocking="on")
        with_store = engine.integrate(tables)
        without = engine.integrate(tables, store_mode="off")
        assert without.table.rows == with_store.table.rows
        assert "store_published_rows" not in without.timings
        assert "ann_index_loads" not in without.timings or (
            without.timings["ann_index_loads"] == 0.0
        )

    def test_store_mode_validated(self, tmp_path, tables):
        engine = _engine(tmp_path / "store")
        with pytest.raises(ValueError, match="store_mode"):
            engine.integrate(tables, store_mode="sideways")


class TestDurableAnnIndexes:
    def _values(self):
        left = [f"city number {index}" for index in range(12)]
        right = [f"town number {index}" for index in range(12)]
        return left, right

    def test_cold_builds_warm_loads_identical_pairs(self, tmp_path):
        left, right = self._values()
        embedder = MistralEmbedder()
        # brute_force_cells=1 forces the LSH path on tiny inputs, making the
        # build/load counters observable without huge corpora.
        cold = SemanticBlocker(
            embedder, brute_force_cells=1, store=ArtifactStore(tmp_path)
        )
        cold_pairs = cold.candidate_pairs(left, right)
        assert cold.last_used_lsh
        assert cold.index_builds == 2  # one code matrix per side
        assert cold.index_saves == 2
        assert cold.index_loads == 0

        warm = SemanticBlocker(
            embedder, brute_force_cells=1, store=ArtifactStore(tmp_path)
        )
        warm_pairs = warm.candidate_pairs(left, right)
        assert warm.index_loads == 2
        assert warm.index_builds == 0  # zero ANN rebuilds
        assert warm_pairs == cold_pairs

    def test_different_params_do_not_share_indexes(self, tmp_path):
        left, right = self._values()
        embedder = MistralEmbedder()
        SemanticBlocker(
            embedder, brute_force_cells=1, store=ArtifactStore(tmp_path)
        ).candidate_pairs(left, right)
        other = SemanticBlocker(
            embedder, brute_force_cells=1, n_bits=6, store=ArtifactStore(tmp_path)
        )
        other.candidate_pairs(left, right)
        assert other.index_loads == 0
        assert other.index_builds == 2

    def test_retrieval_knobs_share_indexes(self, tmp_path):
        # top_k is retrieval-only: one stored index serves every k.
        left, right = self._values()
        embedder = MistralEmbedder()
        SemanticBlocker(
            embedder, brute_force_cells=1, top_k=3, store=ArtifactStore(tmp_path)
        ).candidate_pairs(left, right)
        wider = SemanticBlocker(
            embedder, brute_force_cells=1, top_k=7, store=ArtifactStore(tmp_path)
        )
        wider.candidate_pairs(left, right)
        assert wider.index_loads == 2
        assert wider.index_builds == 0

    def test_read_only_store_builds_without_saving(self, tmp_path):
        left, right = self._values()
        embedder = MistralEmbedder()
        blocker = SemanticBlocker(
            embedder,
            brute_force_cells=1,
            store=ArtifactStore(tmp_path).with_mode("read"),
        )
        blocker.candidate_pairs(left, right)
        assert blocker.index_builds == 2
        assert blocker.index_saves == 0

    def test_store_never_changes_candidates(self, tmp_path):
        left, right = self._values()
        embedder = MistralEmbedder()
        plain = SemanticBlocker(embedder, brute_force_cells=1)
        stored = SemanticBlocker(
            embedder, brute_force_cells=1, store=ArtifactStore(tmp_path)
        )
        assert plain.candidate_pairs(left, right) == stored.candidate_pairs(left, right)
        # And again from the store:
        rewarmed = SemanticBlocker(
            embedder, brute_force_cells=1, store=ArtifactStore(tmp_path)
        )
        assert rewarmed.candidate_pairs(left, right) == plain.candidate_pairs(left, right)


class PoisonedEmbedder(CountingEmbedder):
    """Returns a NaN row for ``"Berlin"`` and an all-zero row for ``"Toronto"``
    until ``healed`` — a model that overflowed on one input and said nothing
    about another."""

    healed = False

    def _embed_texts(self, texts):
        rows = super()._embed_texts(texts)
        rows[[text == "Toronto" for text in texts]] = 0.0
        if not self.healed:
            rows[[text == "Berlin" for text in texts], 0] = np.nan
        return rows


class TestNonFiniteEmbeddings:
    """A non-finite row fails typed at the cache boundary on every route: it is
    never cached, never published, and never reaches the solver (dense route)
    or silently fails every comparison (scored edges)."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {},  # dense: one |A| x |B| assignment
            {"blocking": "on"},
            {"blocking": "on", "semantic_blocking": "on"},  # the exact pass embeds every value
        ],
        ids=["dense", "blocked", "blocked+semantic"],
    )
    def test_rejected_before_cache_and_store(self, tmp_path, tables, knobs):
        store_dir = tmp_path / "store"
        config = FuzzyFDConfig(
            embedder=PoisonedEmbedder(),
            store_dir=str(store_dir),
            store_mode="readwrite",
            retry_backoff_ms=0.0,
            **knobs,
        )
        engine = IntegrationEngine(config)
        with pytest.raises(ValueError, match="produced a non-finite embedding for 'Berlin'"):
            engine.integrate(tables)
        # Whatever healthy slabs went before it, the poisoned slab left nothing
        # behind — in this engine's cache, or (published by hand) for a restart.
        assert engine.embedding_cache.get("mistral", "Berlin") is None
        engine.save()
        restarted = _engine(store_dir)
        assert restarted.embedding_cache.get("mistral", "Berlin") is None
        assert np.isfinite(restarted.embedder.embed_many(["Berlinn", "Barcelona", "Germany"])).all()

        # Healed, the same engine serves the request; the all-zero row is at
        # distance 1 from everything, so "Toronto" only ever matches itself.
        engine.embedder.inner.healed = True
        result = engine.integrate(tables)
        assert result.timings.get("store_published_rows", 0) > 0
        rewritten = {
            (old, new)
            for matching in result.value_matching.values()
            for match_set in matching.sets
            for _, old in match_set.members
            for new in [match_set.representative]
            if old != new
        }
        assert all("Toronto" not in pair for pair in rewritten)
        assert ("Berlinn", "Berlin") in rewritten or ("Berlin", "Berlinn") in rewritten
