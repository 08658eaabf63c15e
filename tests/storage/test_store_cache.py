"""StoreBackedEmbeddingCache: warm starts, promotion, publication."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.storage import ArtifactStore, StoreBackedEmbeddingCache


def _fill(cache: StoreBackedEmbeddingCache, texts, dimension=8):
    rng = np.random.default_rng(11)
    for text in texts:
        vector = rng.standard_normal(dimension)
        cache.put(cache.model_name, text, vector / np.linalg.norm(vector))


class TestWarmStart:
    def test_restart_serves_published_vectors(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(first, ["alpha", "beta", "gamma"])
        assert first.publish() == 3

        # A brand-new cache over the same directory — the "restarted engine".
        second = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        assert second.cold_rows == 3
        for text in ["alpha", "beta", "gamma"]:
            warm = second.get("mistral", text)
            assert warm is not None
            assert np.allclose(warm, first.get("mistral", text))
        assert second.store_hits == 3
        assert second.store_misses == 0

    def test_cold_hit_promotes_to_hot_tier(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(first, ["alpha"])
        first.publish()

        second = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        assert second.get("mistral", "alpha") is not None
        assert second.store_hits == 1
        # The second lookup is a plain hot hit — the memmap read paid once.
        assert second.get("mistral", "alpha") is not None
        assert second.store_hits == 1
        assert second.hits >= 1

    def test_fill_many_serves_from_cold_tier(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(first, ["alpha", "beta"])
        first.publish()

        second = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        out = np.empty((3, 8))
        missing = second.fill_many("mistral", ["alpha", "beta", "new"], out)
        assert missing == [2]
        assert second.store_hits == 2
        assert second.store_misses == 1
        assert np.allclose(out[0], first.get("mistral", "alpha"))

    def test_other_models_bypass_the_cold_tier(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(first, ["alpha"])
        first.publish()

        second = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        assert second.get("fasttext", "alpha") is None
        assert second.store_misses == 0  # foreign model: not a store miss

    def test_wrong_dimension_segments_skipped(self, tmp_path):
        # Same model name published at a different dimension lives under a
        # different embedder fingerprint, so it is simply not listed.
        store = ArtifactStore(tmp_path)
        eight = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(eight, ["alpha"], dimension=8)
        eight.publish()
        sixteen = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 16)
        assert sixteen.cold_rows == 0


class TestPublication:
    def test_publish_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(cache, ["alpha", "beta"])
        assert cache.publish() == 2
        assert cache.publish() == 0  # nothing new
        assert store.statistics()["segment_saves"] == 1

    def test_incremental_publish_creates_new_segment(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = StoreBackedEmbeddingCache(store, "mistral", 8)
        _fill(cache, ["alpha"])
        cache.publish()
        _fill(cache, ["beta"])
        assert cache.publish() == 1
        restarted = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        assert restarted.cold_rows == 2

    def test_read_mode_publish_is_a_noop(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        cache = StoreBackedEmbeddingCache(writer.with_mode("read"), "mistral", 8)
        _fill(cache, ["alpha"])
        assert cache.publish() == 0
        assert writer.statistics()["segment_saves"] == 0

    def test_racing_identical_publishes_resolve_to_one_segment(self, tmp_path):
        left = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        right = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(left, ["alpha", "beta"])
        _fill(right, ["alpha", "beta"])
        published = sorted([left.publish(), right.publish()])
        assert published == [0, 2]  # exactly one of them wins
        restarted = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        assert restarted.cold_rows == 2

    def test_eviction_of_persisted_entry_is_recoverable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = StoreBackedEmbeddingCache(store, "mistral", 8, max_entries=2)
        _fill(cache, ["alpha", "beta"])
        cache.publish()  # publication also attaches the segment as cold tier
        vector_alpha = np.asarray(cache.get("mistral", "alpha"))
        _fill(cache, ["gamma", "delta"])  # evicts alpha/beta from the hot tier
        recovered = cache.get("mistral", "alpha")
        assert recovered is not None
        assert np.allclose(recovered, vector_alpha)


class TestConcurrency:
    def test_two_caches_attach_concurrently(self, tmp_path):
        seed = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(seed, [f"value-{index}" for index in range(40)])
        seed.publish()

        def build(_):
            cache = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
            return cache.cold_rows

        with ThreadPoolExecutor(max_workers=4) as pool:
            rows = list(pool.map(build, range(4)))
        assert rows == [40, 40, 40, 40]

    def test_refresh_picks_up_segments_published_by_another_cache(self, tmp_path):
        reader = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        assert reader.cold_rows == 0
        writer = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(writer, ["alpha", "beta"])
        writer.publish()
        assert reader.refresh() == 2
        assert reader.cold_rows == 2
        assert reader.refresh() == 0  # idempotent

    def test_a_missing_batch_reattaches_a_siblings_publication(self, tmp_path):
        # Two engines on one directory, as two `repro serve` processes are.
        reader = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        writer = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(writer, ["alpha", "beta"])
        writer.publish()
        out = np.empty((4, 8))
        missing = reader.fill_many("mistral", ["alpha", "beta", "alpha", "new"], out)
        assert missing == [3]
        assert np.allclose(out[0], writer.get("mistral", "alpha"))
        assert np.allclose(out[2], out[0])
        # Found on re-attach: store hits (one promotion per text, then a hot
        # hit), and only the text nobody published is a miss.
        assert (reader.store_hits, reader.hits, reader.misses, reader.store_misses) == (2, 1, 1, 1)

    def test_a_batch_without_misses_never_lists_the_store(self, tmp_path, monkeypatch):
        seed = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(seed, ["alpha"])
        seed.publish()
        cache = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        listings = []
        real = cache.store.list_embedding_segments
        monkeypatch.setattr(
            cache.store, "list_embedding_segments", lambda fp: listings.append(fp) or real(fp)
        )
        cache.fill_many("mistral", ["alpha", "alpha"], np.empty((2, 8)))
        assert listings == []
        cache.fill_many("mistral", ["unseen"], np.empty((1, 8)))
        assert len(listings) == 1

    def test_concurrent_attach_on_one_cache_is_single_counted(self, tmp_path):
        seed = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(seed, ["alpha", "beta", "gamma"])
        seed.publish()
        cache = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda _: cache.refresh(), range(8)))
        assert cache.stats()["store_segments"] == 1
        assert cache.cold_rows == 3


class TestStats:
    def test_stats_extend_base_counters(self, tmp_path):
        cache = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        stats = cache.stats()
        for key in ("hits", "misses", "fills", "size",
                    "store_hits", "store_misses", "store_rows",
                    "store_segments", "published_rows"):
            assert key in stats

    def test_clear_keeps_cold_tier(self, tmp_path):
        cache = StoreBackedEmbeddingCache(ArtifactStore(tmp_path), "mistral", 8)
        _fill(cache, ["alpha"])
        cache.publish()
        cache.clear()
        assert len(cache) == 0
        assert cache.cold_rows == 1
        assert cache.get("mistral", "alpha") is not None
