"""Synthetic Auto-Join benchmark (fuzzy value matching ground truth).

The real Auto-Join benchmark [Zhu, He, Chaudhuri 2017] ships 31 integration
sets over 17 topics; each set contains columns that join fuzzily
(abbreviations, typos, formatting differences) under the clean-clean
assumption, with roughly 150 values per column.  This generator reproduces
that structure: per integration set it picks a topic and a corruption profile,
emits two or three aligning columns whose values are different surface forms
of the same underlying entities, and records the exact ground-truth match
sets.  The Table 1 benchmark measures value-matching precision/recall/F1 of
each embedding model against this ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.value_matching import ColumnValues
from repro.datasets.corruptions import CorruptionProfile, Corruptor, DEFAULT_PROFILES
from repro.datasets.vocabularies import (
    SEMANTIC_TOPICS,
    SURFACE_TOPICS,
    topic_category,
    topic_vocabulary,
)
from repro.table.table import Table

ValueKey = Tuple[Hashable, object]


@dataclass
class AutoJoinIntegrationSet:
    """One integration set: aligning columns plus ground-truth match sets."""

    name: str
    topic: str
    profile: str
    columns: Dict[Hashable, List[str]]
    gold_sets: List[Set[ValueKey]] = field(default_factory=list)

    def column_values(self) -> List[ColumnValues]:
        """The columns in the form the :class:`ValueMatcher` consumes."""
        return [
            ColumnValues(column_id=column_id, values=list(values))
            for column_id, values in self.columns.items()
        ]

    def tables(self) -> List[Table]:
        """The columns as single-column tables named after the column id."""
        tables = []
        for column_id, values in self.columns.items():
            table_name, column_name = column_id
            tables.append(Table(table_name, [column_name], [(value,) for value in values]))
        return tables

    def gold_pairs(self) -> Set[frozenset]:
        """All unordered within-set value pairs of the ground truth."""
        pairs: Set[frozenset] = set()
        for gold_set in self.gold_sets:
            members = sorted(gold_set, key=lambda key: (str(key[0]), str(key[1])))
            for index, left in enumerate(members):
                for right in members[index + 1 :]:
                    pairs.add(frozenset((left, right)))
        return pairs

    @property
    def total_values(self) -> int:
        """Total number of values across the aligning columns."""
        return sum(len(values) for values in self.columns.values())


class AutoJoinBenchmark:
    """Deterministic generator of Auto-Join-style integration sets.

    Parameters
    ----------
    n_sets:
        Number of integration sets (the paper's benchmark has 31).
    values_per_column:
        Approximate number of values per aligning column (the paper reports
        around 150 on average).
    overlap:
        Fraction of entities of the first column that also appear (as a
        possibly-corrupted surface form) in each other column.
    three_column_fraction:
        Fraction of integration sets that get a third aligning column.
    seed:
        RNG seed; the same seed always produces the same benchmark.
    """

    def __init__(
        self,
        n_sets: int = 31,
        values_per_column: int = 150,
        overlap: float = 0.65,
        distractor_fraction: float = 0.4,
        three_column_fraction: float = 0.35,
        seed: int = 42,
    ) -> None:
        if n_sets <= 0:
            raise ValueError("n_sets must be positive")
        if not 0.0 < overlap <= 1.0:
            raise ValueError("overlap must be in (0, 1]")
        self.n_sets = n_sets
        self.values_per_column = values_per_column
        self.overlap = overlap
        self.distractor_fraction = distractor_fraction
        self.three_column_fraction = three_column_fraction
        self.seed = seed
        self._corruptor = Corruptor(seed=seed)

    # -- public API -----------------------------------------------------------------
    def generate(self) -> List[AutoJoinIntegrationSet]:
        """Generate all integration sets."""
        topics = self._topics_cycle()
        sets: List[AutoJoinIntegrationSet] = []
        for index in range(self.n_sets):
            topic = topics[index % len(topics)]
            profile = self._profile_for(topic, index)
            sets.append(self._generate_set(index, topic, profile))
        return sets

    # -- internals -------------------------------------------------------------------
    def _topics_cycle(self) -> List[str]:
        """The paper's 17 topics, interleaving semantic and surface topics.

        The real Auto-Join benchmark mixes integration sets whose joins need
        world knowledge (abbreviations, codes, synonyms) with sets whose joins
        are surface transformations; the cycle alternates the two kinds so
        every prefix of the benchmark keeps roughly the same mix.
        """
        rng = random.Random(self.seed)
        semantic = list(SEMANTIC_TOPICS)
        surface = list(SURFACE_TOPICS)
        rng.shuffle(semantic)
        rng.shuffle(surface)
        chosen_semantic = semantic[:11]
        chosen_surface = surface[:6]
        interleaved: List[str] = []
        while chosen_semantic or chosen_surface:
            if chosen_semantic:
                interleaved.append(chosen_semantic.pop())
            if chosen_semantic:
                interleaved.append(chosen_semantic.pop())
            if chosen_surface:
                interleaved.append(chosen_surface.pop())
        return interleaved

    #: Profiles compatible with each topic category.
    _SEMANTIC_PROFILES = ("abbreviations", "synonyms", "mixed")
    _SURFACE_PROFILES = ("typos", "casing", "formatting", "mixed")

    def _profile_for(self, topic: str, index: int) -> CorruptionProfile:
        """Pick a corruption profile compatible with the topic's category."""
        by_name = {profile.name: profile for profile in DEFAULT_PROFILES}
        if topic_category(topic) == "semantic":
            names = self._SEMANTIC_PROFILES
        else:
            names = self._SURFACE_PROFILES
        return by_name[names[index % len(names)]]

    def _generate_set(
        self, index: int, topic: str, profile: CorruptionProfile
    ) -> AutoJoinIntegrationSet:
        rng = random.Random(self.seed * 1_000_003 + index)
        vocabulary = topic_vocabulary(topic)
        set_name = f"autojoin_{index:02d}_{topic}"

        n_columns = 3 if rng.random() < self.three_column_fraction else 2
        pool_size = min(len(vocabulary), int(self.values_per_column * 1.4))
        entities = vocabulary.sample(pool_size, seed=self.seed + index)
        rng.shuffle(entities)

        column_ids = [(f"{set_name}_T{column}", "value") for column in range(n_columns)]
        columns: Dict[Hashable, List[str]] = {column_id: [] for column_id in column_ids}
        used_per_column: List[Set[str]] = [set() for _ in column_ids]
        gold: Dict[str, Set[ValueKey]] = {}

        first_column_count = min(self.values_per_column, len(entities))
        first_entities = entities[:first_column_count]
        extra_entities = entities[first_column_count:]

        # Column 0 carries the canonical surface forms (the "query" side).
        for entity in first_entities:
            surface = entity
            if surface in used_per_column[0]:
                continue
            columns[column_ids[0]].append(surface)
            used_per_column[0].add(surface)
            gold.setdefault(entity, set()).add((column_ids[0], surface))

        # Other columns carry corrupted surfaces for the overlapping entities
        # plus some entities of their own.
        for column_index in range(1, n_columns):
            column_id = column_ids[column_index]
            overlapping = [entity for entity in first_entities if rng.random() < self.overlap]
            own = [
                entity
                for entity in extra_entities
                if rng.random() < self.distractor_fraction
            ]
            for entity in overlapping + own:
                surface = self._corrupt_unique(
                    entity, profile, rng, used_per_column[column_index], gold
                )
                if surface is None:
                    continue
                columns[column_id].append(surface)
                used_per_column[column_index].add(surface)
                gold.setdefault(entity, set()).add((column_id, surface))

        gold_sets = [members for members in gold.values() if members]
        gold_sets.sort(key=lambda members: sorted(str(member) for member in members))
        return AutoJoinIntegrationSet(
            name=set_name,
            topic=topic,
            profile=profile.name,
            columns=columns,
            gold_sets=gold_sets,
        )

    def _corrupt_unique(
        self,
        entity: str,
        profile: CorruptionProfile,
        rng: random.Random,
        used: Set[str],
        gold: Dict[str, Set[ValueKey]],
    ) -> Optional[str]:
        """Corrupt ``entity`` to a surface not yet used in the column.

        The surface must also not collide with a *different* entity's canonical
        form, otherwise the ground truth would become ambiguous.
        """
        other_canonicals = {other for other in gold if other != entity}
        for _ in range(6):
            surface, _kind = self._corruptor.corrupt_with_profile(entity, profile, rng)
            if surface in used or surface in other_canonicals:
                continue
            return surface
        # Last resort: keep the canonical surface if it is still free.
        if entity not in used and entity not in other_canonicals:
            return entity
        return None
