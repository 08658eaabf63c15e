"""Complementation closure — the engine behind the scalable FD algorithms.

ALITE computes Full Disjunction by (1) outer-unioning the input tables,
(2) repeatedly *complementing* pairs of tuples — merging any two tuples that
are join-consistent (they agree on every attribute where both are non-null and
share at least one non-null value) — until no new tuple can be produced, and
(3) removing subsumed tuples.  This module implements step (2) over integer
coded tuples (:mod:`repro.table.coded`) with value and null postings per
column, so a tuple is only compared with the tuples that agree with it or are
null on its most selective column, plus duplicate elimination so the closure
terminates.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.table.coded import decode_rows, encode_rows, tuple_keys
from repro.table.nulls import is_null
from repro.table.table import CellValue, Provenance, RowValues, Table


class _Posting:
    """Growable array of tuple ids, appended (hence stored) in ascending order."""

    __slots__ = ("ids", "size")

    def __init__(self) -> None:
        self.ids = np.empty(4, dtype=np.int64)
        self.size = 0

    def append(self, tuple_id: int) -> None:
        if self.size == self.ids.shape[0]:
            grown = np.empty(2 * self.size, dtype=np.int64)
            grown[: self.size] = self.ids
            self.ids = grown
        self.ids[self.size] = tuple_id
        self.size += 1

    def below(self, bound: int) -> np.ndarray:
        """The posted ids smaller than ``bound``.

        ``bisect``, not ``searchsorted``: numpy drops the GIL there, and with
        two requests in flight every drop is a thread switch — two per tuple
        doubled the served latency of paper-size requests.
        """
        return self.ids[: bisect_left(self.ids, bound, 0, self.size)]


class ComplementationEngine:
    """Closes a set of same-schema tuples under pairwise complementation.

    The closure runs over the integer coding of :mod:`repro.table.coded`,
    stored column-major — ``data[p]`` is column ``p`` of every known tuple —
    with one posting of tuple ids per (column, code), the code ``-1`` (null)
    included.  A partner ``c`` of a tuple ``t`` holds ``t[p]`` or null at
    *every* non-null position ``p`` of ``t``, so for any single position the
    partners are among ``posting(p, t[p]) ∪ posting(p, null)``; the engine
    picks the position where that union is smallest and tests, on it alone and
    only at the non-null positions of ``t``, "no conflict" and "shares a
    value" — the same pairs ALITE's hash index on shared values finds, from
    far fewer candidates when a column such as ``genres`` is low-cardinality.

    Parameters
    ----------
    max_tuples:
        Safety limit on the number of distinct tuples the closure may create;
        exceeded limits raise ``RuntimeError`` (Full Disjunction results can
        be exponential in pathological inputs, and a hard failure is more
        useful than an apparent hang).
    """

    def __init__(self, max_tuples: int = 5_000_000) -> None:
        self.max_tuples = max_tuples

    def close(
        self,
        rows: Sequence[RowValues],
        provenance: Sequence[Provenance],
        statistics: Dict[str, float] | None = None,
    ) -> Tuple[List[RowValues], List[Provenance]]:
        """Return the complementation closure of ``rows``.

        Duplicate tuples are collapsed, merging their provenance.  The inputs
        themselves are always part of the returned set (subsumption removal is
        the caller's job).
        """
        if not rows:
            return [], []
        codes, values = encode_rows(rows, len(rows[0]))
        closed, closed_provenance = self.close_coded(codes, provenance, statistics)
        return decode_rows(closed, values), closed_provenance

    def close_table(self, table: Table, statistics: Dict[str, float] | None = None) -> Table:
        """Close a whole (outer-unioned) table under complementation."""
        if table.provenance is None:
            table = table.with_default_provenance()
        rows, provenance = self.close(table.rows, table.provenance, statistics)
        return Table(table.name, table.schema, rows, provenance=provenance)

    def close_coded(
        self,
        codes: np.ndarray,
        provenance: Sequence[Provenance],
        statistics: Dict[str, float] | None = None,
    ) -> Tuple[np.ndarray, List[Provenance]]:
        """:meth:`close` over a ``(width, rows)`` code matrix, coded in and out."""
        statistics = statistics if statistics is not None else {}
        width = codes.shape[0]
        data = np.empty((width, max(16, 2 * codes.shape[1])), dtype=np.int32)
        prov: List[Set[str]] = []
        known: Dict[bytes, int] = {}
        postings: List[Dict[int, _Posting]] = [{-1: _Posting()} for _ in range(width)]
        count = 0
        merges = 0
        comparisons = 0

        def add(columns: np.ndarray, sources: Iterable[Iterable[str]]) -> None:
            """Add the ``(width, n)`` coded tuples; a known tuple only gains provenance."""
            nonlocal data, count
            start = count
            fresh = []
            for offset, (key, tuple_sources) in enumerate(zip(tuple_keys(columns), sources)):
                existing = known.get(key)
                if existing is not None:
                    prov[existing] |= tuple_sources
                    continue
                if count >= self.max_tuples:
                    raise RuntimeError(
                        f"complementation closure exceeded {self.max_tuples} tuples; "
                        "the input is pathological for Full Disjunction"
                    )
                known[key] = count
                prov.append(set(tuple_sources))
                for position, code in enumerate(columns[:, offset].tolist()):
                    posting = postings[position].get(code)
                    if posting is None:
                        posting = postings[position][code] = _Posting()
                    posting.append(count)
                fresh.append(offset)
                count += 1
            if count > data.shape[1]:
                grown = np.empty((width, 2 * count), dtype=np.int32)
                grown[:, :start] = data[:, :start]
                data = grown
            if fresh:
                data[:, start:count] = columns[:, fresh]

        add(codes, provenance)

        # Tuples are processed in id order, so when tuple ``b`` is processed
        # every tuple with a smaller id already exists; restricting the scan
        # to candidates with id < b examines each unordered pair exactly once.
        processed = 0
        while processed < count:
            current_id = processed
            processed += 1
            current = data[:, current_id].tolist()
            held = [position for position, code in enumerate(current) if code >= 0]
            if not held:
                continue
            # Selective posting: the position whose value + null postings are smallest.
            selected = min(
                held, key=lambda p: postings[p][current[p]].size + postings[p][-1].size
            )
            agreeing = postings[selected][current[selected]].below(current_id)
            candidates = np.concatenate((agreeing, postings[selected][-1].below(current_id)))
            if candidates.size == 0:
                continue
            comparisons += int(candidates.size)
            # Test the candidates on the other non-null positions only (one
            # gather for all of them: fewer GIL drops than one per position).
            others = [position for position in held if position != selected]
            block = data[np.array(others, dtype=np.intp)[:, None], candidates]
            agrees = block == data[others, current_id, None]
            shares = np.logical_or.reduce(agrees)
            shares[: agreeing.size] = True
            consistent = np.logical_and.reduce(agrees | (block < 0))
            partners = sorted(candidates[shares & consistent].tolist())
            if not partners:
                continue
            merges += len(partners)
            # A partner holds the current tuple's code or null (-1) wherever
            # the current tuple is non-null, so the merge is the larger code.
            merged = np.maximum(data[:, partners], data[:, current_id, None])
            current_sources = frozenset(prov[current_id])
            add(merged, (current_sources | prov[partner] for partner in partners))

        for name, value in (("comparisons", comparisons), ("merges", merges), ("tuples", count)):
            key = f"complementation_{name}"
            statistics[key] = statistics.get(key, 0.0) + float(value)
        return data[:, :count], [frozenset(sources) for sources in prov]


def connected_components(
    rows: Sequence[RowValues],
) -> List[List[int]]:
    """Partition tuple ids into connected components of the value-sharing graph.

    Two tuples are connected when they share a non-null value in the same
    column.  Complementation can never merge tuples across components (a merge
    requires a shared value, and merged tuples only carry values from their
    sources), so each component can be closed independently — this is the key
    optimisation of the incremental and partitioned algorithms.
    """
    from repro.utils.unionfind import UnionFind

    uf = UnionFind(range(len(rows)))
    first_seen: Dict[Tuple[int, CellValue], int] = {}
    for row_id, values in enumerate(rows):
        for position, value in enumerate(values):
            if is_null(value):
                continue
            key = (position, value)
            if key in first_seen:
                uf.union(first_seen[key], row_id)
            else:
                first_seen[key] = row_id
    groups = uf.groups()
    return [sorted(group) for group in groups]
