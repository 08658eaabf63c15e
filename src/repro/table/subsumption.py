"""Tuple subsumption.

A tuple *t* subsumes a tuple *s* (over the same schema) when *t* carries at
least the information of *s*: wherever *s* is non-null, *t* has the same
value.  Full Disjunction removes subsumed tuples so that no tuple in the
result is "partial" with respect to another (Galindo-Legaria 1994).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.table.coded import encode_rows, tuple_keys
from repro.table.nulls import is_null
from repro.table.table import Provenance, RowValues, Table


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


def _absorbers(codes: np.ndarray) -> np.ndarray:
    """Who absorbs whom among the rows of a ``(width, rows)`` code matrix.

    Returns, per row, ``-1`` if the row survives — it is the first of its
    duplicates and no other row strictly subsumes it — or else the row that
    absorbs it: its first duplicate, or the first surviving-so-far row, in id
    order, among the holders of its rarest (position, code) pair that strictly
    subsumes it.  A row can only be subsumed by rows holding *all* of its
    pairs, so the holders of one pair include every subsumer; "surviving so far"
    means later in id order or not subsumed itself, which is what processing
    the rows in id order would see.
    """
    width, count = codes.shape
    absorbed_by = np.full(count, -1, dtype=np.int64)
    first_of: Dict[bytes, int] = {}
    for index, key in enumerate(tuple_keys(codes)):
        original = first_of.setdefault(key, index)
        if original != index:
            absorbed_by[index] = original
    del first_of  # as large as the matrix; the peak of this function comes later
    distinct = np.flatnonzero(absorbed_by < 0)
    if distinct.size <= 1:
        return absorbed_by
    codes = codes[:, distinct]
    held = codes >= 0
    information = held.sum(axis=0)

    # One number per (position, code) pair, ``nulls`` for every null cell.  One
    # stable sort of all cells then lists the holders of every pair, grouped by
    # pair and in id order: ``holders[starts[pair] : starts[pair] + held_by[pair]]``.
    codes_per_column = codes.max(axis=1) + 1
    nulls = int(codes_per_column.sum())
    pairs = np.where(held, codes + (np.cumsum(codes_per_column) - codes_per_column)[:, None], nulls)
    held_by = np.bincount(pairs.ravel(), minlength=nulls + 1)
    starts = np.cumsum(held_by) - held_by
    holders = np.argsort(pairs.ravel(), kind="stable") % distinct.size
    held_by[nulls] = count + 1  # a null cell is never the rarest pair
    rows = np.flatnonzero(information > 0)
    rarest = pairs[held_by[pairs[:, rows]].argmin(axis=0), rows]
    sizes = held_by[rarest]
    offsets = np.cumsum(sizes) - sizes

    # (row, holder of its rarest pair) in blocks of about 16k, keeping the strict
    # subsumers.  A block starts at the row that owns every 16384th pair.
    owners: List[np.ndarray] = []
    subsumers: List[np.ndarray] = []
    every = np.arange(0, int(sizes.sum()), 1 << 14)
    bounds = np.unique(np.searchsorted(offsets, every, side="right") - 1).tolist()
    for low, high in zip(bounds, bounds[1:] + [rows.size]):
        block = np.repeat(np.arange(low, high), sizes[low:high])
        within = np.arange(block.size) - (offsets[block] - offsets[low])
        owner = rows[block]
        candidate = holders[starts[rarest[block]] + within]
        keep = information[candidate] > information[owner]
        owner, candidate = owner[keep], candidate[keep]
        for position in range(width):
            keep = ~held[position, owner] | (codes[position, owner] == codes[position, candidate])
            owner, candidate = owner[keep], candidate[keep]
        owners.append(owner)
        subsumers.append(candidate)
    owner, candidate = np.concatenate(owners), np.concatenate(subsumers)
    subsumed = np.zeros(distinct.size, dtype=bool)
    subsumed[owner] = True
    keep = (candidate > owner) | ~subsumed[candidate]
    owner, earliest = np.unique(owner[keep], return_index=True)
    absorbed_by[distinct[owner]] = distinct[candidate[keep][earliest]]
    # A fully-null row is subsumed by any row with information.
    empty = distinct[information == 0]
    absorbed_by[empty] = np.where(empty == distinct[0], distinct[1], distinct[0])
    return absorbed_by


def reduce_coded(
    codes: np.ndarray, provenance: Optional[Sequence[Provenance]]
) -> Tuple[np.ndarray, Optional[List[Provenance]]]:
    """Subsumption over a ``(width, rows)`` code matrix (:mod:`repro.table.coded`).

    Returns the ids of the surviving rows, in order, and their provenance:
    the provenance of a removed row is folded into the survivor its chain of
    absorbers ends at, so no source tuple id is lost.
    """
    absorbed_by = _absorbers(codes)
    kept = np.flatnonzero(absorbed_by < 0)
    if provenance is None:
        return kept, None
    target = np.arange(absorbed_by.size)
    removed = np.flatnonzero(absorbed_by >= 0)
    moving = removed
    while moving.size:
        target[moving] = absorbed_by[target[moving]]
        moving = moving[absorbed_by[target[moving]] >= 0]
    folded = list(provenance)
    for index, survivor in zip(removed.tolist(), target[removed].tolist()):
        folded[survivor] = folded[survivor] | provenance[index]
    return kept, [folded[index] for index in kept.tolist()]


def remove_subsumed(table: Table) -> Table:
    """Return ``table`` without tuples subsumed by another tuple.

    Exact duplicates collapse to a single representative.  The provenance of
    a removed tuple is folded into the provenance of (one of) the tuples that
    subsume it, so no source tuple id is lost — this is what lets the Fuzzy FD
    output report complete TID sets as in Figure 1 of the paper.
    """
    if table.num_rows <= 1:
        return table
    codes, _ = encode_rows(table.rows, table.num_columns)
    kept, provenance = reduce_coded(codes, table.provenance)
    rows = [table.rows[index] for index in kept.tolist()]
    return Table(table.name, table.schema, rows, provenance=provenance)
