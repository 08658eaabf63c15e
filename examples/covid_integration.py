"""The paper's running example (Figures 1 and 2): COVID-19 tables.

Reproduces, step by step, what Section 1 and Section 2 of the paper describe:

* the three input tables T1, T2, T3 about COVID-19 cases in different cities,
* the regular Full Disjunction FD(T1, T2, T3) with its nine partial tuples,
* the Match Values walk-through over the three City columns (Figure 2),
* the Fuzzy Full Disjunction with its five fully integrated tuples.

Run with::

    python examples/covid_integration.py
"""

from __future__ import annotations

from repro import Table
from repro.core import IntegrationEngine, ValueMatcher
from repro.core.value_matching import ColumnValues
from repro.embeddings import MistralEmbedder


def build_tables() -> list[Table]:
    """The three tables of Figure 1 (column headers per the paper)."""
    t1 = Table(
        "T1",
        ["City", "Country"],
        [
            ("Berlinn", "Germany"),
            ("Toronto", "Canada"),
            ("Barcelona", "Spain"),
            ("New Delhi", "India"),
        ],
    )
    t2 = Table(
        "T2",
        ["Country", "City", "Vac. Rate (1+ dose)"],
        [
            ("CA", "Toronto", "83%"),
            ("US", "Boston", "62%"),
            ("DE", "Berlin", "63%"),
            ("ES", "Barcelona", "82%"),
        ],
    )
    t3 = Table(
        "T3",
        ["City", "Total Cases", "Death Rate (per 100k)"],
        [
            ("Berlin", "1.4M", "147"),
            ("barcelona", "2.68M", "275"),
            ("Boston", "263K", "335"),
        ],
    )
    return [t1, t2, t3]


def show_result(title: str, result) -> None:
    print(f"\n=== {title} ===")
    print(result.table.to_pretty_string())
    print("TID sets per output tuple:")
    for index, sources in enumerate(result.table.provenance):
        print(f"  f{index + 1}: {sorted(sources)}")


def main() -> None:
    tables = build_tables()
    print("=== Input tables (Figure 1) ===")
    for table in tables:
        print(f"\n{table.name}:")
        print(table.to_pretty_string())

    # One engine serves both requests (the embedder and its cache stay warm).
    engine = IntegrationEngine()

    # Regular Full Disjunction: 9 tuples, Berlin/Berlinn and Spain/ES stay apart.
    regular = engine.integrate(tables, fuzzy=False)
    show_result("FD(T1, T2, T3) — regular Full Disjunction (9 tuples)", regular)

    # Figure 2: the Match Values component over the three City columns.
    matcher = ValueMatcher(MistralEmbedder(), threshold=0.7)
    city_columns = [
        ColumnValues(("T1", "City"), tables[0].distinct_values("City")),
        ColumnValues(("T2", "City"), tables[1].distinct_values("City")),
        ColumnValues(("T3", "City"), tables[2].distinct_values("City")),
    ]
    matching = matcher.match_columns(city_columns)
    print("\n=== Match Values over the City columns (Figure 2) ===")
    for match_set in matching.sets:
        members = ", ".join(f"{column[0]}:{value!r}" for column, value in match_set.members)
        print(f"  ({members})  ->  representative {match_set.representative!r}")

    # Fuzzy Full Disjunction: 5 tuples, all variants consolidated.
    fuzzy = engine.integrate(tables)
    show_result("Fuzzy FD(T1, T2, T3) — 5 fully integrated tuples", fuzzy)


if __name__ == "__main__":
    main()
