"""ArtifactStore contract: round-trips, rejection, corruption recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.storage import FORMAT_VERSION, ArtifactStore
from repro.storage.fingerprint import corpus_fingerprint


def _segment(rows: int = 4, dimension: int = 8):
    keys = [f"value-{index}" for index in range(rows)]
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((rows, dimension))
    return keys, matrix, corpus_fingerprint(keys)


class TestEmbeddingSegments:
    def test_round_trip_is_exact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        assert store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        loaded = store.load_embedding_segment("m.d8", corpus_fp, 8)
        assert loaded is not None
        loaded_keys, loaded_matrix = loaded
        assert loaded_keys == keys
        assert np.array_equal(np.asarray(loaded_matrix), matrix)

    def test_loaded_matrix_is_memmapped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        _, loaded_matrix = store.load_embedding_segment("m.d8", corpus_fp, 8)
        assert isinstance(loaded_matrix, np.memmap)

    def test_list_segments(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.list_embedding_segments("m.d8") == []
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        assert store.list_embedding_segments("m.d8") == [corpus_fp]
        assert store.list_embedding_segments("other.d8") == []

    def test_missing_segment_is_a_silent_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_embedding_segment("m.d8", "0" * 16, 8) is None
        assert store.statistics()["corrupt_entries"] == 0

    def test_duplicate_publish_is_counted_not_raised(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        assert store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        assert not store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        stats = store.statistics()
        assert stats["segment_saves"] == 1
        assert stats["duplicate_publishes"] == 1

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        # An artifact renamed (or hand-copied) under the wrong directory must
        # miss: its meta still carries the fingerprints it was written for.
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        source = tmp_path / "embeddings" / "m.d8" / corpus_fp
        target = tmp_path / "embeddings" / "m.d8" / ("f" * 16)
        source.rename(target)
        assert store.load_embedding_segment("m.d8", "f" * 16, 8) is None
        assert store.statistics()["rejected_entries"] == 1

    def test_other_dimension_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment(dimension=8)
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        assert store.load_embedding_segment("m.d8", corpus_fp, 16) is None
        stats = store.statistics()
        assert (stats["rejected_entries"], stats["corrupt_entries"], stats["segment_loads"]) == (1, 0, 0)
        # Refused, not corrupt: the segment stays, and loads at its own width.
        assert store.load_embedding_segment("m.d8", corpus_fp, 8) is not None
        assert store.statistics()["segment_loads"] == 1

    def test_other_format_version_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        meta_path = tmp_path / "embeddings" / "m.d8" / corpus_fp / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        assert store.load_embedding_segment("m.d8", corpus_fp, 8) is None
        assert store.statistics()["rejected_entries"] == 1

    @pytest.mark.parametrize("victim", ["meta.json", "keys.json", "matrix.npy"])
    def test_corrupt_file_degrades_to_miss(self, tmp_path, victim):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        (tmp_path / "embeddings" / "m.d8" / corpus_fp / victim).write_bytes(b"\x00garbage")
        assert store.load_embedding_segment("m.d8", corpus_fp, 8) is None
        assert store.statistics()["corrupt_entries"] == 1

    def test_truncated_matrix_degrades_to_miss(self, tmp_path):
        # A partial write that somehow reached the final path (e.g. a copy
        # interrupted outside the store's atomic protocol).
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        matrix_path = tmp_path / "embeddings" / "m.d8" / corpus_fp / "matrix.npy"
        matrix_path.write_bytes(matrix_path.read_bytes()[:40])
        assert store.load_embedding_segment("m.d8", corpus_fp, 8) is None
        assert store.statistics()["corrupt_entries"] == 1

    def test_missing_file_degrades_to_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        (tmp_path / "embeddings" / "m.d8" / corpus_fp / "keys.json").unlink()
        assert store.load_embedding_segment("m.d8", corpus_fp, 8) is None
        assert store.statistics()["corrupt_entries"] == 1

    def test_row_count_mismatch_degrades_to_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        keys_path = tmp_path / "embeddings" / "m.d8" / corpus_fp / "keys.json"
        keys_path.write_text(json.dumps(keys + ["extra"]))
        assert store.load_embedding_segment("m.d8", corpus_fp, 8) is None
        assert store.statistics()["corrupt_entries"] == 1


class TestModes:
    def test_off_mode_rejected_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="off"):
            ArtifactStore(tmp_path, mode="off")

    def test_read_mode_never_writes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", mode="read")
        keys, matrix, corpus_fp = _segment()
        assert not store.can_write
        assert not store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        # Not even the directory skeleton is created.
        assert not (tmp_path / "store").exists()

    def test_statistics_count_embedding_segments_only(self, tmp_path):
        assert set(ArtifactStore(tmp_path).statistics()) == {
            "segment_loads",
            "segment_saves",
            "corrupt_entries",
            "corrupt_segments",
            "rejected_entries",
            "duplicate_publishes",
        }

    def test_publication_writes_only_the_embeddings_tree(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        assert sorted(path.name for path in tmp_path.iterdir()) == [".tmp", "embeddings"]

    def test_no_tmp_garbage_after_publish(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys, matrix, corpus_fp = _segment()
        store.save_embedding_segment("m.d8", corpus_fp, keys, matrix)
        assert list((tmp_path / ".tmp").iterdir()) == []
