"""Tuple subsumption.

A tuple *t* subsumes a tuple *s* (over the same schema) when *t* carries at
least the information of *s*: wherever *s* is non-null, *t* has the same
value.  Full Disjunction removes subsumed tuples so that no tuple in the
result is "partial" with respect to another (Galindo-Legaria 1994).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.table.coded import PairPostings, span_blocks
from repro.table.nulls import is_null
from repro.table.relation import Relation, sources
from repro.table.table import RowValues, Table
from repro.utils.sorting import first_of_runs


def subsumes(superior: RowValues, inferior: RowValues) -> bool:
    """Return whether ``superior`` subsumes ``inferior`` (same schema assumed).

    Every tuple subsumes itself.  Labelled nulls are treated as plain nulls
    for subsumption purposes: they carry no information.
    """
    if len(superior) != len(inferior):
        raise ValueError("subsumption is only defined for tuples over the same schema")
    for sup_value, inf_value in zip(superior, inferior):
        if is_null(inf_value):
            continue
        if is_null(sup_value) or sup_value != inf_value:
            return False
    return True


def subsumers(inferior: np.ndarray, superior: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` such that tuple ``j`` of ``superior`` subsumes tuple ``i`` of ``inferior``.

    Both are ``(width, tuples)`` matrices over the same codes.  Pairs come
    sorted by ``i``, then ``j``; fully-null tuples of ``inferior`` (subsumed
    by everything) are left out.  A subsumer holds *all* pairs of the tuple
    it subsumes, so the holders of the tuple's rarest (position, code) pair
    include every one of them: those are the candidates, tested position by
    position in blocks of :data:`~repro.table.coded.PAIR_BLOCK`.
    """
    offered = (superior >= 0).sum(axis=0)
    needed = (inferior >= 0).sum(axis=0)
    rows = np.flatnonzero(needed)
    if not rows.size:
        return rows, rows
    codes_per_column = np.maximum(inferior.max(axis=1), superior.max(axis=1, initial=-1)) + 1
    postings = PairPostings(superior, codes_per_column)
    rarest = postings.selective(inferior[:, rows])
    owners, found = [rows[:0]], [rows[:0]]
    for owner, index in span_blocks(np.arange(rows.size), postings.starts[rarest], postings.held_by[rarest]):
        owner, candidate = rows[owner], postings.holders[index]
        keep = offered[candidate] >= needed[owner]
        owner, candidate = owner[keep], candidate[keep]
        for position in range(len(inferior)):
            mine = inferior[position].take(owner)
            keep = (mine < 0) | (mine == superior[position].take(candidate))
            owner, candidate = owner[keep], candidate[keep]
        owners.append(owner)
        found.append(candidate)
    return np.concatenate(owners), np.concatenate(found)


def reduce_coded(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Subsumption over a ``(width, rows)`` code matrix (:mod:`repro.table.coded`).

    Returns the ids of the surviving rows, in order, and per row the survivor
    that stands for it.  A row survives if it is the first of its duplicates
    and no other row strictly subsumes it.  Any other row is absorbed by its
    first duplicate or else by the first surviving-so-far row, in id order,
    that strictly subsumes it ("surviving so far": later in id order or not
    subsumed itself, which is what processing the rows in id order would
    see), and is stood for by the survivor its chain of absorbers ends at.
    """
    count = codes.shape[1]
    stride = codes.itemsize * codes.shape[0]
    raw = codes.T.tobytes()
    first_of: Dict[bytes, int] = {}
    keys = (raw[index * stride : (index + 1) * stride] for index in range(count))
    absorbed_by = np.array([first_of.setdefault(key, index) for index, key in enumerate(keys)], dtype=np.int64)
    del first_of  # as large as the matrix; the peak of this function comes later
    distinct = np.flatnonzero(absorbed_by == np.arange(count))
    absorbed_by[distinct] = -1
    if distinct.size > 1:
        rows = codes[:, distinct]
        owner, candidate = subsumers(rows, rows)
        keep = owner != candidate
        owner, candidate = owner[keep], candidate[keep]
        subsumed = np.zeros(distinct.size, dtype=bool)
        subsumed[owner] = True
        owner, candidate = first_absorbers(owner, candidate, subsumed)
        absorbed_by[distinct[owner]] = distinct[candidate]
        # A fully-null row is subsumed by any row with information.
        empty = distinct[(rows < 0).all(axis=0)]
        absorbed_by[empty] = np.where(empty == distinct[0], distinct[1], distinct[0])
    stands_for = np.arange(count)
    moving = np.flatnonzero(absorbed_by >= 0)
    while moving.size:
        stands_for[moving] = absorbed_by[stands_for[moving]]
        moving = moving[absorbed_by[stands_for[moving]] >= 0]
    return np.flatnonzero(absorbed_by < 0), stands_for


def first_absorbers(
    owner: np.ndarray, candidate: np.ndarray, subsumed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The absorber of each ``owner`` of the pairs ``(owner, candidate)`` of
    distinct rows, ``candidate`` strictly subsuming ``owner``, sorted by owner,
    then candidate: its first subsumer that is later or not ``subsumed`` itself."""
    keep = (candidate > owner) | ~subsumed[candidate]
    owner, candidate = owner[keep], candidate[keep]
    earliest = first_of_runs(owner)
    return owner[earliest], candidate[earliest]


def survivor(codes: np.ndarray, subsumed: np.ndarray, index: int) -> int:
    """The survivor that the chain of :func:`first_absorbers` from the
    non-null row ``index`` of the distinct rows ``codes`` ends at."""
    while subsumed[index]:
        candidate = subsumers(codes[:, [index]], codes)[1]
        candidate = candidate[candidate != index]
        index = int(first_absorbers(np.full_like(candidate, index), candidate, subsumed)[1][0])
    return index


def remove_subsumed(table: Table) -> Table:
    """Return ``table`` without tuples subsumed by another tuple.

    Exact duplicates collapse to a single representative.  The provenance of
    a removed tuple is folded into the provenance of (one of) the tuples that
    subsume it, so no source tuple id is lost — this is what lets the Fuzzy FD
    output report complete TID sets as in Figure 1 of the paper.
    """
    if table.num_rows <= 1:
        return table
    codes = Relation.encode(table.name, table.schema, table.rows).codes
    kept, stands_for = reduce_coded(codes)
    rows = [table.rows[index] for index in kept.tolist()]
    if table.provenance is None:
        return Table(table.name, table.schema, rows)
    groups = np.searchsorted(kept, stands_for)
    folded = sources(table.provenance, np.arange(table.num_rows), groups, kept.size)
    return Table(table.name, table.schema, rows, provenance=folded)
