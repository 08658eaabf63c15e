"""repro — a full reproduction of "Fuzzy Integration of Data Lake Tables".

The package implements the paper's Fuzzy Full Disjunction operator together
with every substrate it depends on: an in-memory relational table layer, Full
Disjunction algorithms (including the ALITE substrate), simulated cell-value
embedding models, bipartite fuzzy value matching, column alignment by
header name or by a caller-built alignment, a downstream entity-matching
pipeline, and seeded benchmark generators standing in for the Auto-Join,
ALITE and IMDB benchmarks.

Quickstart
----------
>>> from repro import Table, integrate
>>> t1 = Table("t1", ["City", "Country"], [("Berlinn", "Germany")])
>>> t2 = Table("t2", ["City", "Vax"], [("Berlin", "63%")])
>>> result = integrate([t1, t2])          # fuzzy full disjunction
>>> result.table.num_rows
1

For repeated requests (threshold sweeps, ablations, services), hold an
:class:`IntegrationEngine` instead — it resolves the embedder, solver and FD
algorithm once and keeps the embedding cache warm across calls:

>>> engine = IntegrationEngine("paper")   # or a FuzzyFDConfig / dict
>>> engine.integrate([t1, t2], threshold=0.8).table.num_rows
1
"""

from repro.core import (
    FuzzyFDConfig,
    FuzzyIntegrationResult,
    IntegrationEngine,
    ValueMatcher,
    available_presets,
    integrate,
)
from repro.registry import Registry, UnknownNameError
from repro.table import Table, read_csv, write_csv

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "Table",
    "read_csv",
    "write_csv",
    "integrate",
    "FuzzyFDConfig",
    "available_presets",
    "FuzzyIntegrationResult",
    "IntegrationEngine",
    "IntegrationService",
    "ValueMatcher",
    "Registry",
    "UnknownNameError",
]


def __getattr__(name: str):
    # PEP 562: the serving layer loads on first use, so a one-shot
    # ``import repro`` / ``repro integrate`` does not pay for it.
    if name == "IntegrationService":
        from repro.service import IntegrationService

        return IntegrationService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
