"""``stable_order`` is ``np.argsort(kind="stable")``, on either side of the radix bound."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.sorting import stable_order

#: Either side of the 16-bit bound, and far from it.
BOUNDS = [1, 2, 255, 256, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 40]


def reference(keys: np.ndarray) -> np.ndarray:
    return np.argsort(keys, kind="stable")


@st.composite
def bounded_keys(draw):
    """``(keys, bound)``: keys below ``bound`` from a few distinct values, so
    ties are the rule, ``bound - 1`` often among them, and more than 16 keys
    (an insertion sort, stable by nature, handles fewer)."""
    bound = draw(st.sampled_from(BOUNDS))
    pool = draw(st.lists(st.one_of(st.just(bound - 1), st.integers(0, bound - 1)), min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(pool), max_size=300))
    dtype = draw(st.sampled_from([np.int64, np.intp] + [np.int32] * (bound <= 1 << 31)))
    return np.array(keys, dtype=dtype), bound


class TestStableOrder:
    @given(bounded_keys())
    @settings(max_examples=300, deadline=None)
    def test_same_order_as_numpys_stable_argsort(self, case):
        keys, bound = case
        assert np.array_equal(stable_order(keys, bound), reference(keys))

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_empty(self, bound):
        order = stable_order(np.empty(0, dtype=np.int64), bound)
        assert order.size == 0 and order.dtype == np.intp

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_all_equal_keys_keep_their_positions(self, bound):
        keys = np.full(1000, bound - 1, dtype=np.int64)
        assert np.array_equal(stable_order(keys, bound), np.arange(1000))

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_keys_equal_to_bound_minus_one_sort_last(self, bound):
        rng = np.random.default_rng(bound % 1000)
        keys = np.where(rng.random(500) < 0.5, bound - 1, rng.integers(0, bound, 500))
        order = stable_order(keys, bound)
        assert np.array_equal(order, reference(keys))
        assert (keys[order][-np.count_nonzero(keys == bound - 1) :] == bound - 1).all()
