"""Sort-based set operations on arrays, used in place of ``np.unique``: it
hashes where a sort suffices and, from numpy 2.3 on, imports ``numpy.ma`` on
its first call (≈ 10 ms and 3 modules in a fresh process); and a stable
argsort that takes numpy's radix sort whenever the keys fit 16 bits."""

import numpy as np


def first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted array that differ from their predecessor."""
    return np.concatenate(([True], ordered[1:] != ordered[:-1]))[: len(ordered)]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort a fresh key array in place and drop its repeats: ``np.unique``
    without its hash pass, more than ten times slower at probe volumes."""
    keys.sort()
    return keys[first_of_runs(keys)]


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of keys in ``[0, bound)``: as ``uint16``
    when ``bound`` allows it, which numpy radix-sorts in one pass instead of a timsort."""
    return np.argsort(keys.astype(np.uint16) if bound <= 1 << 16 else keys, kind="stable")
