"""Columnar relations: the form a request takes between its body and its response.

A :class:`Relation` stores every column as ``int32`` codes — row ``p`` of a
``(width, rows)`` matrix, the layout the Full Disjunction kernels read — over
a dictionary of the column's distinct non-null values in first-seen order;
``-1`` codes every flavour of null.  Numbers compare by value (``1`` and
``1.0`` share a code and the first-seen spelling); a boolean is never the
number it equals.  A request is encoded once, at its boundary, and every
stage after that works on codes and dictionaries, provenance included, until
the survivors are decoded, once, when first read: Python work scales with
distinct values, never with cells.
"""

from __future__ import annotations

from itertools import accumulate, compress
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.table.nulls import NULL, is_null
from repro.table.schema import Schema
from repro.table.table import Provenance, RowValues, Table
from repro.utils.sorting import stable_order

#: Dictionary keys of the booleans, which equal (and hash like) ``1`` and ``0``.
_BOOL_KEYS = {False: object(), True: object()}
_BOOLS = {key: value for value, key in _BOOL_KEYS.items()}
#: Cell types whose only nulls are ``None`` and ``NULL``.
_PLAIN_NULLS = {str, int, bool, type(None), type(NULL)}


def cell_key(value: object) -> object:
    """The dictionary key of a cell: the cell, unless it is a boolean."""
    return _BOOL_KEYS[value] if value.__class__ is bool else value


def dictionary(cells: Sequence[object], types: Optional[set] = None, nulls: Tuple = ()) -> Tuple[List[int], List[object]]:
    """The code of every cell over the distinct cells, numbered in first-seen
    order, and those cells; the cells in ``nulls`` are coded ``-1``.
    ``types`` are the cells' types, when the caller has them."""
    bools = bool in (set(map(type, cells)) if types is None else types)
    index: Dict[object, int] = dict.fromkeys(nulls, -1)
    skip = len(nulls)
    codes = [index.setdefault(key, len(index) - skip) for key in (map(cell_key, cells) if bools else cells)]
    found = list(index)[skip:]
    return codes, [_BOOLS.get(key, key) for key in found] if bools else found


def distinct(cells: Sequence[object]) -> List[object]:
    """The distinct cells in first-seen order, as :func:`dictionary` tells them apart."""
    return list(dict.fromkeys(cells)) if bool not in set(map(type, cells)) else dictionary(cells)[1]


def encode(cells: Sequence[object]) -> Tuple[List[int], List[object]]:
    """The codes of a column over its non-null distinct cells (``-1``: null), and those."""
    types = set(map(type, cells))
    if types <= _PLAIN_NULLS:  # the only nulls are None and NULL
        codes, values = dictionary(cells, types, (None, NULL))
    else:
        codes, values = dictionary(cells, types)
        alive = [not is_null(value) for value in values]
        if not all(alive):
            remap = [rank - 1 if live else -1 for rank, live in zip(accumulate(alive), alive)]
            codes, values = list(map(remap.__getitem__, codes)), list(compress(values, alive))
    return codes, values


class Relation:
    """A named relation as code columns over per-column value dictionaries:
    ``values[p][code]`` is the cell a code of column ``p`` stands for.
    ``provenance`` is ``None`` when row ``i`` is the tuple ``"{name}:{i}"``,
    else one set of tuple ids per row; given as a function that derives them,
    it is called on the first read of :attr:`provenance` and its sets kept.
    Operations share unchanged arrays."""

    __slots__ = ("name", "schema", "codes", "values", "_provenance")

    def __init__(self, name: str, columns: Schema | Iterable[str], codes: np.ndarray, values: List[List[object]],
                 provenance: Union[None, List[Provenance], Callable[[], List[Provenance]]] = None) -> None:
        self.name = str(name)
        self.schema = columns if isinstance(columns, Schema) else Schema(columns)
        self.codes, self.values, self._provenance = codes, values, provenance

    @property
    def provenance(self) -> Optional[List[Provenance]]:
        derive = self._provenance  # read once: a thread deriving beside this one may replace it
        if callable(derive):
            self._provenance = derive()
        return self._provenance

    @classmethod
    def encode(cls, name: str, columns: Schema | Iterable[str], rows: Sequence[Sequence[object]],
               provenance: Optional[Iterable[Provenance]] = None) -> "Relation":
        """Code ``rows`` (sequences aligned with ``columns``) column by column."""
        schema = columns if isinstance(columns, Schema) else Schema(columns)
        coded = [encode(cells) for cells in (zip(*rows) if rows else [()] * len(schema))]
        codes = np.array([codes for codes, _ in coded], dtype=np.int32).reshape(len(schema), len(rows))
        return cls(name, schema, codes, [values for _, values in coded], None if provenance is None else list(provenance))

    @classmethod
    def of(cls, table: "Table | Relation") -> "Relation":
        """``table`` coded (a relation is returned as it is)."""
        if isinstance(table, Relation):
            return table
        return cls.encode(table.name, table.schema, table.rows, table.provenance)

    # -- shape and value counts -----------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        return self.schema.columns

    @property
    def num_rows(self) -> int:
        return self.codes.shape[1]

    def counts(self, column: str) -> np.ndarray:
        """How many rows hold each value of ``column``, in dictionary order."""
        position = self.schema.position(column)
        codes = self.codes[position]
        return np.bincount(codes[codes >= 0], minlength=len(self.values[position]))

    # -- transformation and decoding -----------------------------------------------
    def rename(self, mapping: Dict[str, str]) -> "Relation":
        return Relation(self.name, self.schema.renamed(mapping), self.codes, self.values, self.provenance)

    def replace(self, column: str, replacements: Mapping[int, object]) -> "Relation":
        """``column`` with the value of each code in ``replacements`` replaced.  Equal
        values then share a code, and the dictionary stays in first-seen order:
        the old one was, and a merged code first occurs where its first member did."""
        position = self.schema.position(column)
        entries = list(self.values[position])
        for code, value in replacements.items():
            entries[code] = value
        values = list(self.values)
        if len(set(entries)) == len(entries):  # no two are equal, even as True == 1: every code stays
            values[position] = entries
            return Relation(self.name, self.schema, self.codes, values, self.provenance)
        remap, merged = dictionary(entries)
        codes = self.codes.copy()
        codes[position] = np.array(remap + [-1], dtype=np.int32)[codes[position]]
        values[position] = merged
        return Relation(self.name, self.schema, codes, values, self.provenance)

    def decode(self, null: object = NULL) -> List[RowValues]:
        """The rows, each null decoded to ``null``."""
        columns = [list(map((values + [null]).__getitem__, codes.tolist())) for codes, values in zip(self.codes, self.values)]
        return list(zip(*columns)) if columns else [()] * self.num_rows

    def to_table(self) -> Table:
        """The decoded table; its rows are taken as :meth:`decode` builds them."""
        provenance = None if self.provenance is None else list(self.provenance)
        return Table._trusted(self.name, self.schema, self.decode(), provenance)


def outer_union(relations: Sequence[Relation]) -> Tuple[Schema, np.ndarray, List[List[object]]]:
    """The union schema, the codes of every row of ``relations`` over it, and
    one dictionary per output column: the relations' dictionaries merged in
    order, so it is in first-seen order over the concatenated rows.  A column
    of one relation keeps its dictionary and codes as they are."""
    schema = relations[0].schema
    for relation in relations[1:]:
        schema = schema.union(relation.schema)
    offsets = np.cumsum([0] + [relation.num_rows for relation in relations]).tolist()
    codes, values = np.full((len(schema), offsets[-1]), -1, dtype=np.int32), []
    for position, column in enumerate(schema):
        held = [(index, relation.schema.position(column)) for index, relation in enumerate(relations) if column in relation.schema]
        if len(held) == 1:
            (index, at), = held
            codes[position, offsets[index] : offsets[index + 1]] = relations[index].codes[at]
            values.append(relations[index].values[at])
            continue
        remap, merged = dictionary([value for index, at in held for value in relations[index].values[at]])
        start = 0
        for index, at in held:  # the first holder's codes stay as they are
            end, column = start + len(relations[index].values[at]), relations[index].codes[at]
            remapped = np.array(remap[start:end] + [-1], dtype=np.int32)[column] if start else column
            codes[position, offsets[index] : offsets[index + 1]] = remapped
            start = end
        values.append(merged)
    return schema, codes, values


def tuple_ids(relations: Sequence[Relation]) -> List[object]:
    """Per row of the outer union of ``relations``: its tuple id (``"name:row"``)
    or, for a relation that carries provenance, its set of tuple ids."""
    ids: List[object] = []
    for relation in relations:
        if relation.provenance is None:
            ids += map((relation.name + ":").__add__, map(str, range(relation.num_rows)))
        else:
            ids += relation.provenance
    return ids


def sources(ids: Sequence[object], members: np.ndarray, groups: np.ndarray, count: int) -> List[Provenance]:
    """``count`` provenance sets: set ``g`` unites ``ids[members[k]]`` (tuple
    ids or sets of them) over the ``k`` with ``groups[k] == g``."""
    order = stable_order(groups, count)
    flat = list(map(ids.__getitem__, members[order].tolist()))
    bounds = np.searchsorted(groups[order], np.arange(count + 1)).tolist()
    if set(map(type, flat)) <= {str}:
        return [frozenset(flat[start:end]) for start, end in zip(bounds, bounds[1:])]
    flat = [frozenset((item,)) if isinstance(item, str) else item for item in flat]
    return [frozenset().union(*flat[start:end]) for start, end in zip(bounds, bounds[1:])]
