"""The four seeded workloads of the pipeline benchmark.

Every workload is a pool of integration requests (each a list of tables)
built from ``repro.datasets`` only, the engine preset that serves it, the
gold value-match sets the generator knows, and one sentence saying why it is
in the benchmark.  ``BENCHMARK.json`` echoes the names and the sentences;
``test_bench_pipeline.py`` keeps the two in sync.

The driver runs every workload on ten different seeds and compares the
spread of each metric with its bound, so a seed may change *which* values a
table holds but never *how much work* a request is: every generator here has
a fixed shape (table count, row counts, column counts).  That is why the
Auto-Join sets come from :func:`autojoin_sets` and not from
``AutoJoinBenchmark`` directly — its topic choice and column count are drawn
from the seed, which moved the cold pass from 0.97 s to 1.86 s across seeds
1–8 (3290–4972 values) when this benchmark was sized — and why the IMDB
tables keep one join structure (:func:`imdb_equi`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.datasets import AliteEmBenchmark, AutoJoinIntegrationSet, Corruptor, ImdbBenchmark
from repro.datasets import topic_names, topic_vocabulary
from repro.datasets.corruptions import DEFAULT_PROFILES
from repro.datasets.vocabularies import SEMANTIC_TOPICS, SURFACE_TOPICS
from repro.table.nulls import is_null
from repro.table.table import Table

ValueKey = Tuple[Hashable, object]
GoldSets = List[Set[ValueKey]]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the committed numbers are measured at."""

    imdb_tuples: int
    autojoin_sets: int
    autojoin_values: int
    lake_entities: int
    em_entities: int


FULL = Sizes(imdb_tuples=1000, autojoin_sets=31, autojoin_values=150, lake_entities=2500, em_entities=50)
SMOKE = Sizes(imdb_tuples=400, autojoin_sets=6, autojoin_values=40, lake_entities=400, em_entities=20)


@dataclass
class Workload:
    """One named set of inputs and how the benchmark drives it.

    ``mode`` is ``"warm"`` (one operation = every request of the pool through
    one warm engine), ``"cold"`` (the same pass in a fresh process on a fresh
    engine) or ``"serve"`` (one operation = one ``POST /integrate`` of the next
    request of the pool against a real ``repro serve`` process).  ``gold[i]``
    holds the gold match sets of ``requests[i]`` or ``None`` when the
    generator knows none.  ``equi`` marks inputs without fuzzy
    inconsistencies, on which fuzzy and regular FD must agree.  ``overrides``
    are per-request config overrides every ``engine.integrate`` call of the
    workload carries.
    """

    name: str
    preset: str
    mode: str
    requests: List[List[Table]]
    gold: List[Optional[GoldSets]] = field(default_factory=list)
    equi: bool = False
    overrides: Dict[str, object] = field(default_factory=dict)

    @property
    def input_tuples(self) -> int:
        """Input tuples of one pass over the pool."""
        return sum(request_tuples(request) for request in self.requests)


def request_tuples(tables: Sequence[Table]) -> int:
    """Input tuples of one request."""
    return sum(table.num_rows for table in tables)


# -- digests ------------------------------------------------------------------------
def _cell(value: object) -> object:
    return None if is_null(value) else value


def input_digest(workload: Workload) -> str:
    """Digest of the generated tables, byte for byte and in order."""
    digest = hashlib.blake2b(digest_size=16)
    for request in workload.requests:
        for table in request:
            payload = [table.name, list(table.columns), [[_cell(c) for c in row] for row in table.rows]]
            digest.update(json.dumps(payload, default=str, ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()


def rows_digest(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Digest of a table's content, insensitive to row and column order.

    ``rows`` hold ``None`` (or any null object) for missing cells, so an
    engine result and the JSON body of a service response digest alike.
    """
    order = sorted(range(len(columns)), key=lambda index: columns[index])
    canonical = sorted(
        json.dumps([_cell(row[index]) for index in order], default=str, ensure_ascii=False)
        for row in rows
    )
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps([columns[index] for index in order]).encode("utf-8"))
    for row in canonical:
        digest.update(row.encode("utf-8"))
    return digest.hexdigest()


def table_digest(table: Table) -> str:
    """:func:`rows_digest` of an integrated :class:`Table`."""
    return rows_digest(list(table.columns), table.rows)


# -- generators ---------------------------------------------------------------------
def _profile(name: str):
    return next(profile for profile in DEFAULT_PROFILES if profile.name == name)


def equi_gold(tables: Sequence[Table]) -> GoldSets:
    """Gold match sets of an equi-join input: equal values of equal headers."""
    holders: Dict[str, List[Table]] = {}
    for table in tables:
        for column in table.columns:
            holders.setdefault(column, []).append(table)
    gold: Dict[Tuple[str, object], Set[ValueKey]] = {}
    for column, members in holders.items():
        if len(members) < 2:
            continue
        for table in members:
            for value in table.distinct_values(column):
                gold.setdefault((column, value), set()).add(((table.name, column), value))
    return list(gold.values())


IMDB_STRUCTURE_SEED = 13


def imdb_equi(seed: int, sizes: Sizes) -> Workload:
    """The IMDB tables with one join structure and seed-chosen values.

    ``ImdbBenchmark`` draws the join fan-out from its seed, and FD work follows
    it: 23.2–30.0 M complementation comparisons (2.6–3.4 s) over seeds 13–22
    at 2000 tuples.  So the structure is always that of
    ``IMDB_STRUCTURE_SEED``; the seed permutes, per header, which value
    stands where (one permutation for all tables holding the header, so equal
    values stay equal) and shuffles each table's rows.
    """
    rng = random.Random(seed)
    base = ImdbBenchmark(IMDB_STRUCTURE_SEED).tables(sizes.imdb_tuples)
    renamed: Dict[str, Dict[object, object]] = {}
    for header in sorted({column for table in base for column in table.columns}):
        values = sorted({value for table in base if header in table.columns for value in table.distinct_values(header)})
        renamed[header] = dict(zip(values, rng.sample(values, len(values))))
    tables = []
    for table in base:
        rows = [
            tuple(cell if is_null(cell) else renamed[column][cell] for column, cell in zip(table.columns, row))
            for row in table.rows
        ]
        rng.shuffle(rows)
        tables.append(Table(table.name, list(table.columns), rows))
    return Workload("imdb_equi", "paper", "warm", [tables], [equi_gold(tables)], equi=True)


def _topic_cycle() -> List[str]:
    """The paper's mix of 11 knowledge-dependent and 6 surface topics, two of
    the first kind for each of the second, in a fixed order (fixed shape)."""
    semantic, surface = list(SEMANTIC_TOPICS[:11]), list(SURFACE_TOPICS[:6])
    cycle: List[str] = []
    while semantic or surface:
        cycle.extend(semantic[:2] + surface[:1])
        del semantic[:2], surface[:1]
    return cycle


AUTOJOIN_TOPICS = _topic_cycle()

_SEMANTIC_PROFILES = ("abbreviations", "synonyms", "mixed")
_SURFACE_PROFILES = ("typos", "casing", "formatting", "mixed")


def autojoin_sets(seed: int, n_sets: int, values_per_column: int) -> List[AutoJoinIntegrationSet]:
    """Auto-Join-style integration sets whose shape does not depend on the seed.

    Same construction as ``AutoJoinBenchmark`` — a canonical first column,
    other columns holding corrupted surfaces of 65 % of its entities plus
    40 % of the spare ones, every third set with a third column — with the
    topic, the column count and the number of values per column fixed by the
    set's index.  The seed picks the entities and the corruptions.
    """
    corruptor = Corruptor(seed=seed)
    sets = []
    for index in range(n_sets):
        rng = random.Random(seed * 1_000_003 + index)
        topic = AUTOJOIN_TOPICS[index % len(AUTOJOIN_TOPICS)]
        names = _SEMANTIC_PROFILES if topic in SEMANTIC_TOPICS else _SURFACE_PROFILES
        profile = _profile(names[index % len(names)])
        entities = topic_vocabulary(topic).entities
        pool = rng.sample(entities, min(len(entities), int(values_per_column * 1.4)))
        first, spare = pool[:values_per_column], pool[values_per_column:]
        set_name = f"autojoin_{index:02d}_{topic}"
        column_ids = [(f"{set_name}_T{column}", "value") for column in range(3 if index % 3 == 2 else 2)]
        columns: Dict[Hashable, List[str]] = {column_ids[0]: list(first)}
        gold: Dict[str, Set[ValueKey]] = {entity: {(column_ids[0], entity)} for entity in first}
        for column_id in column_ids[1:]:
            chosen = rng.sample(first, round(0.65 * len(first))) + rng.sample(spare, round(0.4 * len(spare)))
            used: Set[str] = set()
            columns[column_id] = []
            for entity in chosen:
                # A surface must be new in its column and must not be another
                # entity's canonical form, or the gold would be ambiguous.
                for _ in range(6):
                    surface, _kind = corruptor.corrupt_with_profile(entity, profile, rng)
                    if surface not in used and (surface == entity or surface not in gold):
                        break
                else:
                    surface = entity
                if surface in used:
                    continue
                used.add(surface)
                columns[column_id].append(surface)
                gold.setdefault(entity, set()).add((column_id, surface))
        sets.append(
            AutoJoinIntegrationSet(
                name=set_name, topic=topic, profile=profile.name, columns=columns,
                gold_sets=list(gold.values()),
            )
        )
    return sets


def autojoin_cold(seed: int, sizes: Sizes) -> Workload:
    sets = autojoin_sets(seed, sizes.autojoin_sets, sizes.autojoin_values)
    return Workload(
        "autojoin_cold", "paper", "cold",
        [item.tables() for item in sets], [item.gold_sets for item in sets],
    )


def lake_mixed(seed: int, sizes: Sizes) -> Workload:
    """Three tables over one fuzzy ``Entity`` column, for the ``scale`` preset.

    The requests carry ``max_workers=1``.  The preset's 4 worker threads buy
    nothing on this input (same time with 1, see ``core.preset_workers_s``)
    and on 2 shared vCPUs they have a second mode: for minutes at a time the
    same request took 2.7 s with 4 workers and 1.6 s with 1, while the
    single-threaded reference loop beside it did not move.  More threads
    than cores measure the host's scheduler, not the program.
    """
    rng = random.Random(seed)
    pool = sorted({entity for topic in topic_names() for entity in topic_vocabulary(topic).entities})
    entities = rng.sample(pool, min(sizes.lake_entities, len(pool)))
    corruptor = Corruptor(seed=seed)
    mixed = _profile("mixed")
    canonical = set(entities)
    surfaces: Dict[str, str] = {}
    used: Set[str] = set()
    for entity in entities:
        surface, _kind = corruptor.corrupt_with_profile(entity, mixed, rng)
        if surface in used or (surface != entity and surface in canonical):
            surface = entity
        used.add(surface)
        surfaces[entity] = surface
    subset = rng.sample(entities, len(entities) // 2)
    tables = [
        Table("lake_a", ["Entity", "Population"], [(e, str(rng.randrange(1_000, 10**6))) for e in entities]),
        Table("lake_b", ["Entity", "Code"], [(surfaces[e], f"c{rng.randrange(10**5):05d}") for e in entities]),
        Table("lake_c", ["Entity", "Rating"], [(e, f"{rng.uniform(1, 10):.1f}") for e in subset]),
    ]
    in_subset = set(subset)
    gold = [
        {(("lake_a", "Entity"), e), (("lake_b", "Entity"), surfaces[e])}
        | ({(("lake_c", "Entity"), e)} if e in in_subset else set())
        for e in entities
    ]
    return Workload("lake_mixed", "scale", "warm", [tables], [gold], overrides={"max_workers": 1})


def serve_recurring(seed: int, sizes: Sizes) -> Workload:
    em_sets = AliteEmBenchmark(n_sets=5, entities_per_set=sizes.em_entities, seed=seed).generate()
    join_sets = autojoin_sets(seed, 3, sizes.autojoin_values)
    requests = [item.tables for item in em_sets] + [item.tables() for item in join_sets]
    gold: List[Optional[GoldSets]] = [None] * len(em_sets) + [item.gold_sets for item in join_sets]
    return Workload("serve_recurring", "scale", "serve", requests, gold)


#: name -> (generator, why the workload is in the benchmark)
WORKLOADS: Dict[str, Tuple[Callable[[int, Sizes], Workload], str]] = {
    "imdb_equi": (
        imdb_equi,
        "Fig. 3 setting: 6 equi-join IMDB tables (1000 tuples), paper preset, warm engine; FD (alite) is "
        "~99.5 % of the request, so FD work shows here and matching, embedding and service work must not",
    ),
    "autojoin_cold": (
        autojoin_cold,
        "31 Auto-Join sets on a fresh engine in a process that never embedded (one-shot repro integrate): "
        "cold embedding + dense assignment are ~95 %, FD ~5 %; embeddings written (miss, compute, put)",
    ),
    "lake_mixed": (
        lake_mixed,
        "3 tables over one 2.5k-entity column, scale preset with 1 worker, warm: blocking, ANN, components "
        "and score/assign ~69 %, partitioned FD ~31 %, embeddings only read; opposite of autojoin_cold",
    ),
    "serve_recurring": (
        serve_recurring,
        "real repro serve on a published store, closed loop of 2 clients over 8 paper-size requests: "
        "admission, event loop, thread hand-off, JSON and HTTP outweigh the ~8 ms of engine work",
    ),
}


def build(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    """Generate the named workload from ``seed``."""
    generator, _why = WORKLOADS[name]
    return generator(seed, sizes)
