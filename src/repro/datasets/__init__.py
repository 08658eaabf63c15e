"""Benchmark generators.

The paper evaluates on three public resources that require downloads
unavailable in this environment: the Auto-Join benchmark (31 integration sets
of fuzzily-joinable columns over 17 topics), the ALITE open-data benchmark
(with an entity-matching dataset), and an IMDB-based benchmark (6 tables,
samples of 5K–30K tuples) for runtime.  This package generates seeded,
deterministic stand-ins with the same structure and the same corruption
classes (typos, case changes, abbreviations, synonyms, format changes), each
with exact ground truth.  See ``docs/architecture.md`` ("Supporting layers")
for where each generator is used.
"""

from repro.datasets.corruptions import CorruptionProfile, Corruptor
from repro.datasets.vocabularies import Vocabulary, topic_names, topic_vocabulary
from repro.datasets.autojoin import AutoJoinBenchmark, AutoJoinIntegrationSet
from repro.datasets.alite_em import AliteEmBenchmark, EmIntegrationSet
from repro.datasets.imdb import ImdbBenchmark
from repro.datasets.lake import join_triangle, multi_schema_lake

__all__ = [
    "Vocabulary",
    "topic_names",
    "topic_vocabulary",
    "Corruptor",
    "CorruptionProfile",
    "AutoJoinBenchmark",
    "AutoJoinIntegrationSet",
    "AliteEmBenchmark",
    "EmIntegrationSet",
    "ImdbBenchmark",
    "multi_schema_lake",
    "join_triangle",
]
