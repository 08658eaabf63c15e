"""Connected components of a bipartite graph given as edge arrays, and of a
graph over arbitrary hashable items."""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np


def component_labels(
    pair_left: np.ndarray, pair_right: np.ndarray, n_left: int, n_right: int
) -> np.ndarray:
    """Connected-component root of every node of a bipartite graph.

    Nodes are the left nodes ``0 .. n_left`` then the right nodes; edge ``i``
    joins left node ``pair_left[i]`` and right node ``pair_right[i]``.  The
    returned array maps each node to the smallest node of its component — a
    left node, for every component that holds one.  Hook-and-shortcut over the
    whole edge array: each round hooks the larger of an edge's two roots under
    the smaller (``np.minimum.at``, so a root hooked by several edges takes
    the smallest) and then compresses every path, until all edges are
    internal.  Roots only ever decrease, so the forest stays acyclic; rounds
    are logarithmic in practice, never more than the node count.
    """
    parent = np.arange(n_left + n_right, dtype=np.int64)
    right_nodes = pair_right + n_left
    while True:
        left_roots, right_roots = parent[pair_left], parent[right_nodes]
        if np.array_equal(left_roots, right_roots):
            return parent
        np.minimum.at(
            parent, np.maximum(left_roots, right_roots), np.minimum(left_roots, right_roots)
        )
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent


def connected_groups(items: Iterable[Hashable], pairs: Iterable[Tuple[Hashable, Hashable]]) -> List[List[Hashable]]:
    """The connected components of the graph whose edges are ``pairs``, over
    ``items`` and the items of the pairs.

    Every item lands in exactly one group, an item without pairs alone.  Items
    keep their first-seen order (``items``, then the pairs'): the groups come
    in the order of their first item, each listing its members in that order.
    """
    number: Dict[Hashable, int] = {}
    for item in items:
        number.setdefault(item, len(number))
    ends = np.array([number.setdefault(item, len(number)) for pair in pairs for item in pair], dtype=np.int64)
    # Each item is a left node joined to itself as a right node, so a pair
    # (left end, right end) connects the two items.
    itself = np.arange(len(number))
    left, right = np.concatenate((itself, ends[::2])), np.concatenate((itself, ends[1::2]))
    roots = component_labels(left, right, itself.size, itself.size)
    groups: Dict[int, List[Hashable]] = {}
    for item, root in zip(number, roots[: itself.size].tolist()):
        groups.setdefault(root, []).append(item)
    return list(groups.values())
