"""Fingerprint scheme: injectivity, set semantics, stability."""

from __future__ import annotations

from repro.storage.fingerprint import corpus_fingerprint, embedder_fingerprint


class TestEmbedderFingerprint:
    def test_contains_name_and_dimension(self):
        assert embedder_fingerprint("mistral", 256) == "mistral.d256"

    def test_unsafe_characters_sanitised(self):
        fingerprint = embedder_fingerprint("my/model:v2", 16)
        assert "/" not in fingerprint
        assert ":" not in fingerprint
        assert fingerprint.endswith(".d16")

    def test_dimension_distinguishes(self):
        assert embedder_fingerprint("m", 8) != embedder_fingerprint("m", 16)


class TestCorpusFingerprint:
    def test_deterministic(self):
        assert corpus_fingerprint(["a", "b"]) == corpus_fingerprint(["a", "b"])

    def test_set_semantics_by_default(self):
        # Order and duplicates do not matter for a cache segment: the keys
        # table maps text -> row whatever the insertion history was.
        assert corpus_fingerprint(["b", "a", "a"]) == corpus_fingerprint(["a", "b"])

    def test_length_prefix_prevents_concatenation_collisions(self):
        assert corpus_fingerprint(["ab", "c"]) != corpus_fingerprint(["a", "bc"])

    def test_distinct_corpora_distinct_fingerprints(self):
        assert corpus_fingerprint(["a"]) != corpus_fingerprint(["b"])

    def test_digests_are_pinned(self):
        # Every published segment directory is named by these digests: a
        # change here would turn every existing store cold.
        assert corpus_fingerprint(["Berlin", "Toronto", "barcelona"]) == "cf431b2a61d3e911"
        assert corpus_fingerprint(["b", "a", "a"]) == "cfb9cbd0aeeea44e"
        assert corpus_fingerprint([""]) == "ca08ea5bca49cc18"

    def test_short_hex(self):
        fingerprint = corpus_fingerprint(["x"])
        assert len(fingerprint) == 16
        int(fingerprint, 16)  # parses as hex

