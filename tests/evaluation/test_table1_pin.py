"""The paper pin: Table 1 at the benchmark's default scale.

The simulated embedders exist to reproduce the *ordering* of the paper's
Table 1 (FastText < BERT <= RoBERTa < Llama3 <= Mistral) and this
reproduction's own F1 level per model.  Both are properties of the embedding
family (features, scales, directions — see ``docs/embeddings.md``), so any
change to that family has to pass here: the bands were recorded at the parent
of the change that swapped the direction family (Gaussian directions drawn
from a seeded generator -> +-1 counter-hash directions), before the swap.

CI runs this file by name (``Table 1 paper pin``) so a red pin is labelled.
"""

from __future__ import annotations

import pytest

from repro.embeddings.registry import TABLE1_MODELS
from repro.evaluation.experiments import run_table1_experiment

#: Macro-averaged F1 per model at 31 sets x 100 values, seed 42, theta 0.7,
#: recorded with the Gaussian direction family (commit c89b0bb).
RECORDED_F1 = {
    "fasttext": 0.7068,
    "bert": 0.7985,
    "roberta": 0.8172,
    "llama3": 0.8714,
    "mistral": 0.8779,
}
BAND = 0.03


@pytest.fixture(scope="module")
def table1_f1():
    scores = run_table1_experiment()
    return {model: scores[model].f1 for model in TABLE1_MODELS}


def test_table1_model_ordering(table1_f1):
    f1 = table1_f1
    assert f1["fasttext"] < f1["bert"] <= f1["roberta"] < f1["llama3"] <= f1["mistral"], f1


@pytest.mark.parametrize("model", TABLE1_MODELS)
def test_table1_f1_within_band(table1_f1, model):
    assert table1_f1[model] == pytest.approx(RECORDED_F1[model], abs=BAND), table1_f1
