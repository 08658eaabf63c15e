"""The columnar request path (:mod:`repro.table.relation`) against the row path it replaced.

``observe`` integrates a fixed set of inputs — the dataset generators' IMDB
equi-join, Auto-Join and ALITE-EM sets, a small lake over one fuzzy column,
and edge shapes (an empty table, an all-null key column, fully-null rows, a
zero-width table, a single table, and a group whose rewrite merges two values
of one column) — under the ``paper`` and ``scale`` presets.  Per case and setting it keeps
the columns, the rows in order, the provenance, the FD counters,
``rewrites_applied()``, every group's sets and representatives, and the table
of the HTTP response.  ``relation_snapshot.json`` holds what the row path
observed on the same inputs — except ``complementation_comparisons`` of
``incremental``, re-recorded (lower) when each component got
null postings of its own, and, re-recorded when the closure came to meet
input tuples only, the ``rows`` / ``provenance`` / ``served`` digests of the
``imdb`` and ``merging`` cases (the same rows with the same provenance, in
the input-partner loop's order) and the ``complementation_comparisons`` /
``complementation_merges`` of the ``imdb``, ``lake`` and ``merging`` cases
(lower); ``complementation_expanded`` (what the closure expands) was added to
every case's counters, no other value changing; run this file to print the
current observations.  ``partitioned``, once a registry alias of
``incremental``, ran here too until its entries were found equal to their
``incremental`` twins and dropped; the alias itself is gone.  ``incremental``
ran here until ``alite`` came to label components itself where its lists run
long: no case here does, so every ``alite`` entry stayed as it was and the
``incremental`` ones were dropped.

The rest pins the encoding itself: ``Table → Relation → Table`` is the
identity up to the null flavour (every null decodes to ``NULL``) and up to
equal numbers sharing their column's first-seen spelling, booleans keep
their identity, and a rewritten relation is still coded in first-seen order.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IntegrationEngine
from repro.datasets import AliteEmBenchmark, AutoJoinBenchmark, Corruptor, ImdbBenchmark
from repro.datasets import topic_names, topic_vocabulary
from repro.datasets.corruptions import DEFAULT_PROFILES
from repro.service import IntegrationService
from repro.service.http import BadRequest, response_to_json, table_to_json, tables_from_json
from repro.table import NULL, LabeledNull, Table, is_null
from repro.table.relation import Relation

HERE = Path(__file__).resolve().parent
SNAPSHOT = HERE / "relation_snapshot.json"

PRESETS = ("paper", "scale")


def _lake(seed: int = 5, entities: int = 60):
    """Three tables over one fuzzy ``Entity`` column (a small ``lake_mixed``)."""
    rng = random.Random(seed)
    pool = sorted({entity for topic in topic_names() for entity in topic_vocabulary(topic).entities})
    chosen = rng.sample(pool, entities)
    corruptor = Corruptor(seed=seed)
    mixed = next(profile for profile in DEFAULT_PROFILES if profile.name == "mixed")
    surfaces = {entity: corruptor.corrupt_with_profile(entity, mixed, rng)[0] for entity in chosen}
    subset = rng.sample(chosen, entities // 2)
    return [
        Table("lake_a", ["Entity", "Population"], [(e, str(rng.randrange(1_000, 10**6))) for e in chosen]),
        Table("lake_b", ["Entity", "Code"], [(surfaces[e], f"c{rng.randrange(10**5):05d}") for e in chosen]),
        Table("lake_c", ["Entity", "Rating"], [(e, f"{rng.uniform(1, 10):.1f}") for e in subset]),
    ]


def _merging():
    """With ``exact_first=False`` the rewrite of T2's City maps ``Berlin`` and
    ``berlin`` to one representative (and T3's ``Berlin`` / ``berlin`` too)."""
    cities = [
        ["Pariss", "Pariss", "Torontoo", "Pariss", "berlin", "Pariss", "Berln", "Pariss", "Berln", "berlin"],
        ["Torontoo", "Torontoo", "Torontoo", "BERLIN", "Torontoo", "Torontoo"],
        ["Berlinn", "Berlin", "Berlinn", "berlin", "Toronto", "Madrid"],
        ["berlin", "Pariss", "berlin", "Bern", "berlin", "Bern", "berlin", "berlin", "Bern", "Berlin", "BERLIN", "Bern", "Bern"],
    ]
    return [
        Table(f"T{index}", ["City", f"A{index}"], [(city, f"{index}{row}") for row, city in enumerate(column)])
        for index, column in enumerate(cities)
    ]


#: name -> (tables, per-request overrides)
@functools.lru_cache(maxsize=None)
def cases():
    figure = [
        Table("T1", ["City", "Country"], [("Berlinn", "Germany"), ("Toronto", "Canada"), ("New Delhi", "India")]),
        Table("T2", ["Country", "City", "VaxRate"], [("CA", "Toronto", "83%"), ("DE", "Berlin", "63%")]),
    ]
    built = {
        "imdb": (ImdbBenchmark(13).tables(90), {}),
        "lake": (_lake(), {}),
        "empty_table": ([figure[0], Table("E", ["City", "Mayor"], [])], {}),
        "null_key": (
            [figure[0], Table("N", ["City", "Mayor"], [(NULL, "Wegner"), (None, "Chow"), (float("nan"), "Gupta")])],
            {},
        ),
        "null_rows": (
            [
                Table("R1", ["City", "Country"], [(NULL, NULL), ("Berlin", "Germany"), (None, None)]),
                Table("R2", ["City", "Mayor"], [("Berlinn", "Wegner"), (NULL, NULL)]),
            ],
            {},
        ),
        "zero_width": ([Table("Z", [], [(), ()]), figure[1]], {}),
        "single_table": ([figure[1]], {}),
        "merging": (_merging(), {"exact_first": False}),
    }
    for index, item in enumerate(AutoJoinBenchmark(n_sets=3, values_per_column=25, seed=5).generate()):
        built[f"autojoin_{index}"] = (item.tables(), {})
    for index, item in enumerate(AliteEmBenchmark(n_sets=2, entities_per_set=20, seed=3).generate()):
        built[f"alite_em_{index}"] = (item.tables, {})
    return built


def _digest(payload) -> str:
    text = json.dumps(payload, ensure_ascii=False, default=repr)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _served(service: IntegrationService, tables, overrides) -> str:
    """The ``table`` of the HTTP response, as the server writes it."""
    body = json.loads(json.dumps([table_to_json(table) for table in tables]))
    try:
        request = tables_from_json(body)
    except BadRequest as exc:
        return f"400: {exc}"
    response = asyncio.run(service.integrate(request, **overrides))
    assert response.status == "ok", getattr(response, "error", response.status)
    return json.dumps(response_to_json(response)["table"], default=str)


def _observe_one(engine, service, tables, overrides) -> dict:
    result = engine.integrate(tables, **overrides)
    table = result.table
    groups = {
        name: [[[repr(member) for member in match_set.members], repr(match_set.representative)] for match_set in matching.sets]
        for name, matching in result.value_matching.items()
    }
    return {
        "columns": list(table.columns),
        "rows": [len(table.rows), _digest([[repr(cell) for cell in row] for row in table.rows])],
        "provenance": _digest([sorted(sources) for sources in table.provenance]),
        "statistics": dict(sorted(result.fd_result.statistics.items())),
        "rewrites": result.rewrites_applied(),
        "sets": _digest(groups),
        "served": _digest(_served(service, tables, overrides)),
    }


@functools.lru_cache(maxsize=None)
def observe() -> dict:
    """Every case under every preset, keyed ``case/preset/alite``."""
    observed = {}
    for preset in PRESETS:
        with IntegrationEngine(preset) as engine:
            service = IntegrationService(engine)
            for name, (tables, overrides) in cases().items():
                observed[f"{name}/{preset}/alite"] = _observe_one(engine, service, tables, overrides)
    return observed


@pytest.mark.parametrize("name", sorted(cases()))
def test_the_row_path_observed_the_same(name):
    recorded = json.loads(SNAPSHOT.read_text())
    observed = observe()
    keys = [key for key in recorded if key.split("/")[0] == name]
    assert keys and {key: observed[key] for key in keys} == {key: recorded[key] for key in keys}


# -- the encoding --------------------------------------------------------------------
CELLS = st.one_of(
    st.sampled_from([NULL, None, float("nan"), LabeledNull(3), True, False, 0, 1, 2, 0.0, 1.0, 2.5]),
    st.sampled_from(["", "a", "b", "1", "True"]),
)


@st.composite
def tables(draw):
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width).map(tuple), max_size=12))
    provenance = draw(st.none() | st.just([frozenset({f"s{index}", "t"}) for index in range(len(rows))]))
    return Table("t", [f"c{position}" for position in range(width)], rows, provenance=provenance)


def _spelled(column):
    """Each cell of a column as it decodes: every null as NULL, every other cell
    as the first cell before it that equals it and is a boolean just when it is."""
    first = {}
    return [NULL if is_null(cell) else first.setdefault((type(cell) is bool, cell), cell) for cell in column]


@given(table=tables())
@settings(max_examples=200, deadline=None)
def test_table_relation_table_is_the_identity_up_to_spelling(table):
    relation = Relation.of(table)
    decoded = relation.to_table()
    expected = list(zip(*map(_spelled, zip(*table.rows)))) if table.columns else table.rows
    assert repr(decoded.rows) == repr(expected)
    assert (decoded.name, decoded.columns, decoded.provenance) == (table.name, table.columns, table.provenance)
    again = Relation.of(decoded)
    assert np.array_equal(again.codes, relation.codes) and repr(again.values) == repr(relation.values)


@given(table=tables(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_rewritten_relation_is_coded_as_its_decoding_would_be(table, data):
    # Replacing values can merge two codes; the dictionary stays the column's
    # distinct values in first-seen order, as if the rewritten rows were encoded.
    relation = Relation.of(table)
    for position, column in enumerate(relation.columns):
        values = relation.values[position]
        targets = st.sampled_from(values + ["a", "fresh", 1, True]) if values else st.nothing()
        replacements = data.draw(st.dictionaries(st.integers(0, max(len(values) - 1, 0)), targets, max_size=len(values)))
        relation = relation.replace(column, replacements)
    encoded = Relation.of(relation.to_table())
    assert np.array_equal(encoded.codes, relation.codes) and repr(encoded.values) == repr(relation.values)


if __name__ == "__main__":  # prints the observations (the recorded file's format)
    json.dump(observe(), sys.stdout, indent=1, sort_keys=True)
    print()
