"""Clustering matched record pairs into entities."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.em.matcher import RecordPair
from repro.utils.components import connected_groups


def cluster_matches(row_count: int, matches: Sequence[RecordPair]) -> List[List[int]]:
    """Connected-component clustering of matched pairs.

    Every row id in ``range(row_count)`` appears in exactly one cluster;
    unmatched rows form singletons.  Connected components are the standard
    (and transitive-closure-consistent) way to turn pairwise match decisions
    into entities.
    """
    pairs = [(pair.left, pair.right) for pair in matches]
    clusters = [sorted(group) for group in connected_groups(range(row_count), pairs)]
    clusters.sort(key=lambda group: group[0])
    return clusters


def clusters_to_labels(clusters: Iterable[Iterable[int]]) -> Dict[int, int]:
    """``row id -> cluster id`` mapping (cluster ids are dense, start at 0)."""
    labels: Dict[int, int] = {}
    for cluster_id, cluster in enumerate(clusters):
        for row_id in cluster:
            labels[row_id] = cluster_id
    return labels
