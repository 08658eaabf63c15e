"""Chaos suite: corrupt store artifacts are quarantined, never fatal.

A truncated ``matrix.npy`` (torn write, disk fault) must not crash a load,
must not be retried forever, and must not block a healthy republish of the
same fingerprints.  The store counts the corruption, renames the artifact
directory into ``quarantine/`` and reports the segment as absent — the
caller re-embeds and republishes into the now-vacant path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.storage import FORMAT_VERSION, ArtifactStore, StoreBackedEmbeddingCache
from repro.table import Table
from repro.testing import corrupt_array_file

KEYS = ["alpha", "beta", "gamma"]
MATRIX = np.arange(12, dtype=np.float32).reshape(3, 4)


def _published_store(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    assert store.save_embedding_segment("emb-fp", "corpus-fp", KEYS, MATRIX)
    return store


class TestQuarantine:
    def test_corrupt_segment_is_quarantined_and_reported_absent(self, tmp_path):
        store = _published_store(tmp_path)
        segment_dir = store.root / "embeddings" / "emb-fp" / "corpus-fp"
        corrupt_array_file(segment_dir / "matrix.npy")

        assert store.load_embedding_segment("emb-fp", "corpus-fp", 4) is None
        stats = store.statistics()
        assert stats["corrupt_entries"] == 1
        assert stats["corrupt_segments"] == 1
        # The artifact moved out of the way...
        assert not segment_dir.exists()
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert "corpus-fp" in quarantined[0].name
        # ...and is no longer listed.
        assert store.list_embedding_segments("emb-fp") == []

    def test_vacated_path_accepts_a_healing_republish(self, tmp_path):
        store = _published_store(tmp_path)
        segment_dir = store.root / "embeddings" / "emb-fp" / "corpus-fp"
        corrupt_array_file(segment_dir / "matrix.npy")
        assert store.load_embedding_segment("emb-fp", "corpus-fp", 4) is None

        assert store.save_embedding_segment("emb-fp", "corpus-fp", KEYS, MATRIX)
        keys, matrix = store.load_embedding_segment("emb-fp", "corpus-fp", 4)
        assert keys == KEYS
        np.testing.assert_array_equal(np.asarray(matrix), MATRIX)

    def test_read_only_store_counts_but_does_not_move(self, tmp_path):
        writable = _published_store(tmp_path)
        segment_dir = writable.root / "embeddings" / "emb-fp" / "corpus-fp"
        corrupt_array_file(segment_dir / "matrix.npy")

        reader = ArtifactStore(writable.root, mode="read")
        assert reader.load_embedding_segment("emb-fp", "corpus-fp", 4) is None
        assert reader.statistics()["corrupt_segments"] == 1
        assert segment_dir.exists()  # a reader never mutates the tree

    def test_two_corrupt_segments_get_distinct_quarantine_names(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for corpus in ("corpus-a", "corpus-b"):
            assert store.save_embedding_segment("emb-fp", corpus, KEYS, MATRIX)
            corrupt_array_file(
                store.root / "embeddings" / "emb-fp" / corpus / "matrix.npy"
            )
            assert store.load_embedding_segment("emb-fp", corpus, 4) is None
        assert store.statistics()["corrupt_segments"] == 2
        assert len(list((store.root / "quarantine").iterdir())) == 2


class TestStaleSegments:
    def test_a_stale_segment_is_read_once_per_cache(self, tmp_path):
        """A segment of another format version is refused, not re-read per batch."""
        store = ArtifactStore(tmp_path / "store")
        assert store.save_embedding_segment("m.d4", "corpus-fp", KEYS, MATRIX)
        meta_path = store.root / "embeddings" / "m.d4" / "corpus-fp" / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["format_version"] = FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        cache = StoreBackedEmbeddingCache(store, "m", 4)
        for batch in range(5):
            assert cache.fill_many("m", [f"new-{batch}"], np.empty((1, 4))) == [0]
        assert cache.cold_rows == 0
        statistics = store.statistics()
        assert statistics["rejected_entries"] == 1
        assert statistics["segment_loads"] == 0
        # Refused, not corrupt: the segment stays where it is.
        assert statistics["corrupt_segments"] == 0
        assert meta_path.is_file()


class TestEngineSurfacesCorruption:
    TABLES = [
        Table(
            "A",
            ["City"],
            [("Berlinn",), ("Toronto",), ("Barcelona",), ("Boston",)],
        ),
        Table(
            "B",
            ["City"],
            [("Berlin",), ("Toronto",), ("barcelona",), ("Chicago",)],
        ),
    ]

    def test_corruption_delta_lands_in_result_timings(self, tmp_path):
        config = FuzzyFDConfig(store_dir=tmp_path / "store", store_mode="readwrite")
        engine = IntegrationEngine(config)
        baseline = engine.integrate(self.TABLES)
        assert baseline.timings.get("store_corrupt_segments", 0.0) == 0.0

        # Publish an extra segment and corrupt it, then trip over it *inside*
        # the next request (the on_stage hook runs between pipeline stages,
        # exactly where the matcher's own store loads happen).
        assert engine.store.save_embedding_segment("other-fp", "corpus-fp", KEYS, MATRIX)
        corrupt_array_file(
            engine.store.root / "embeddings" / "other-fp" / "corpus-fp" / "matrix.npy"
        )

        def load_during_request(stage):
            if stage == "match":
                assert engine.store.load_embedding_segment("other-fp", "corpus-fp", 4) is None

        tainted = engine.integrate(self.TABLES, on_stage=load_during_request)
        assert tainted.table.rows == baseline.table.rows
        assert tainted.timings.get("store_corrupt_segments", 0.0) == 1.0
        # A later clean request carries no stale delta.
        clean = engine.integrate(self.TABLES)
        assert clean.timings.get("store_corrupt_segments", 0.0) == 0.0

    def test_construction_time_corruption_counts_in_store_statistics(self, tmp_path):
        config = FuzzyFDConfig(store_dir=tmp_path / "store", store_mode="readwrite")
        baseline = IntegrationEngine(config).integrate(self.TABLES)
        for matrix_file in (tmp_path / "store").rglob("matrix.npy"):
            corrupt_array_file(matrix_file)
        # Embedding segments attach when the engine builds its tiered cache,
        # so this corruption is found before any request: it is counted in
        # the store statistics (not a request trace) and healed by re-embed
        # plus republish.
        restarted = IntegrationEngine(config)
        assert restarted.store.statistics()["corrupt_segments"] >= 1
        recovered = restarted.integrate(self.TABLES)
        assert recovered.table.rows == baseline.table.rows
        assert recovered.timings.get("store_published_rows", 0.0) > 0
