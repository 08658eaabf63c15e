"""Concurrent stress tests for the thread-safe EmbeddingCache."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.embeddings import MistralEmbedder
from repro.embeddings.base import EmbeddingCache


class TestCacheUnderConcurrency:
    def test_counters_consistent_under_concurrent_get_put(self):
        cache = EmbeddingCache()
        vector = np.ones(4)
        operations_per_worker = 500
        workers = 8

        def hammer(worker: int) -> None:
            for index in range(operations_per_worker):
                text = f"value-{index % 50}"
                if cache.get("model", text) is None:
                    cache.put("model", text, vector)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))

        stats = cache.stats()
        # Every get incremented exactly one counter — no lost updates.
        assert stats["hits"] + stats["misses"] == workers * operations_per_worker
        assert stats["size"] == 50

    def test_bounded_cache_never_exceeds_capacity_under_races(self):
        cache = EmbeddingCache(max_entries=16)
        vector = np.ones(2)

        def insert(worker: int) -> None:
            for index in range(300):
                cache.put("model", f"{worker}-{index}", vector)
                assert len(cache) <= 16

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(insert, range(6)))
        assert len(cache) <= 16

    def test_fill_many_counts_each_text_once(self):
        cache = EmbeddingCache()
        cache.put("m", "a", np.ones(3))
        out = np.empty((3, 3))
        missing = cache.fill_many("m", ["a", "b", "a"], out)
        assert missing == [1]
        assert cache.stats() == {"hits": 2, "misses": 1, "fills": 1, "size": 1}
        assert np.array_equal(out[0], np.ones(3))
        assert np.array_equal(out[2], np.ones(3))

    def test_fill_many_duplicate_cold_text_is_one_miss(self):
        # Same semantics as the old embed()-per-value loop: the second
        # occurrence is served from the first computation, i.e. a hit.
        cache = EmbeddingCache()
        out = np.empty((2, 3))
        missing = cache.fill_many("m", ["a", "a"], out)
        assert missing == [0, 1]
        assert cache.stats() == {"hits": 1, "misses": 1, "fills": 0, "size": 0}

    def test_embed_many_embeds_duplicate_texts_once(self):
        calls = []

        class Counting(MistralEmbedder):
            def _embed_texts(self, texts):
                calls.extend(texts)
                return super()._embed_texts(texts)

        embedder = Counting()
        matrix = embedder.embed_many(["a", "a", "b", "a"])
        assert calls == ["a", "b"]
        assert np.array_equal(matrix[0], matrix[1])
        assert np.array_equal(matrix[0], matrix[3])

    def test_concurrent_embed_many_agrees_with_serial(self):
        serial = MistralEmbedder()
        concurrent = MistralEmbedder()
        values = [f"city {index}" for index in range(60)]
        expected = serial.embed_many(values)

        barrier = threading.Barrier(4)

        def embed_all(_: int):
            barrier.wait()
            return concurrent.embed_many(values)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(embed_all, range(4)))
        for matrix in results:
            assert np.array_equal(matrix, expected)
        stats = concurrent.cache.stats()
        assert stats["size"] == len(values)
