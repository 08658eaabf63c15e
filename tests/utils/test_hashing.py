"""Tests for deterministic hashing and vector derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.hashing import stable_hash, stable_signs, stable_vector, stable_vectors


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("berlin") == stable_hash("berlin")

    def test_seed_changes_value(self):
        assert stable_hash("berlin", seed=1) != stable_hash("berlin", seed=2)

    def test_different_text_different_hash(self):
        assert stable_hash("berlin") != stable_hash("boston")

    @given(st.text(max_size=30))
    def test_always_64_bit_unsigned(self, text):
        value = stable_hash(text)
        assert 0 <= value < 2**64


class TestStableVector:
    def test_unit_norm(self):
        vector = stable_vector("berlin", 128)
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_deterministic_across_calls(self):
        assert np.array_equal(stable_vector("berlin", 64), stable_vector("berlin", 64))

    def test_distinct_texts_nearly_orthogonal(self):
        left = stable_vector("berlin", 256)
        right = stable_vector("boston", 256)
        assert abs(float(np.dot(left, right))) < 0.35

    def test_dimension_respected(self):
        assert stable_vector("x", 17).shape == (17,)

    def test_is_the_one_key_view_of_stable_vectors(self):
        key = stable_hash("berlin", seed=7)
        assert np.array_equal(stable_vector("berlin", 100, seed=7), stable_vectors([key], 100)[0])


_MASK = (1 << 64) - 1


def _reference_signs(key: int, dimension: int) -> list:
    """splitmix64 in Python integers: output w + 1 of state ``key``, LSB first."""
    signs = []
    for word in range(1, -(-dimension // 64) + 1):
        z = (key + word * 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        signs.extend(1 if (z >> bit) & 1 else -1 for bit in range(64))
    return signs[:dimension]


class TestDirectionContract:
    """``stable_signs`` / ``stable_vectors``: the direction family of the embedders."""

    #: First 16 signs of three fixed keys, as literals: a byte-order or
    #: bit-order slip on any platform / numpy version fails here.  Key 0's
    #: first word is splitmix64's published first output for seed 0,
    #: 0xE220A8397B1DCDAF (low 16 bits 0xCDAF, least-significant bit first).
    GOLDEN = {
        0: "++++-+-++-++--++",
        1: "+-----++--+++-+-",
        2**64 - 1: "-----+----++-+--",
    }

    @pytest.mark.parametrize("key, signs", GOLDEN.items())
    def test_golden_rows(self, key, signs):
        expected = [1 if sign == "+" else -1 for sign in signs]
        assert stable_signs([key], 256)[0, :16].tolist() == expected
        assert stable_signs([key], 16)[0].tolist() == expected

    @pytest.mark.parametrize("dimension", [1, 32, 100, 256])
    def test_entries_are_exactly_plus_minus_inverse_root_d(self, dimension):
        keys = [0, 1, 2**63, 2**64 - 1, stable_hash("berlin")]
        vectors = stable_vectors(keys, dimension)
        assert vectors.shape == (len(keys), dimension) and vectors.dtype == np.float64
        assert np.array_equal(np.abs(vectors), np.full(vectors.shape, 1.0 / np.sqrt(dimension)))
        signs = stable_signs(keys, dimension)
        assert signs.dtype == np.int8
        assert signs.tolist() == [_reference_signs(key, dimension) for key in keys]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20), st.data())
    def test_row_depends_on_its_key_alone(self, keys, data):
        together = stable_signs(keys, 100)
        order = data.draw(st.permutations(range(len(keys))))
        assert np.array_equal(stable_signs([keys[i] for i in order], 100), together[order])
        for row, key in zip(together, keys):
            assert np.array_equal(stable_signs([key], 100)[0], row)

    def test_no_keys(self):
        assert stable_signs([], 8).shape == (0, 8)

    @pytest.mark.parametrize("dimension", [64, 256])
    def test_distinct_rows_are_nearly_orthogonal(self, dimension):
        keys = [stable_hash(f"value-{index}") for index in range(2000)]
        vectors = stable_vectors(keys, dimension)
        dots = (vectors @ vectors.T)[np.triu_indices(len(keys), k=1)]
        assert abs(dots.mean()) < 1e-3
        assert dots.std() == pytest.approx(1.0 / np.sqrt(dimension), rel=0.02)
