"""The paper pin for Sec. 3.2: downstream entity matching gains from Fuzzy FD.

The paper integrates the entity-matching tables with regular FD and with
Fuzzy FD and runs the same entity matcher over both: fuzzy integration folds
spelling variants of one entity's values together, so the matcher finds
more of the gold pairs.  ``run_downstream_em_experiment()`` at its defaults
(4 sets of 50 entities, seed 7, match threshold 0.65) must keep Fuzzy FD's
F1 above regular FD's, and each F1 within a band of its recorded value.

CI runs this file by name (``Downstream EM pin``) beside the Table 1 pin.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import run_downstream_em_experiment

#: Macro-averaged F1 per integration method at the experiment's defaults.
RECORDED_F1 = {"regular_fd": 0.9108, "fuzzy_fd": 0.9519}
BAND = 0.02


@pytest.fixture(scope="module")
def em_scores():
    return run_downstream_em_experiment()


def test_fuzzy_fd_beats_regular_fd_downstream(em_scores):
    assert em_scores["fuzzy_fd"].f1 > em_scores["regular_fd"].f1, em_scores
    # The gain is recall: spelling variants no longer split an entity.
    assert em_scores["fuzzy_fd"].recall > em_scores["regular_fd"].recall, em_scores


@pytest.mark.parametrize("method", sorted(RECORDED_F1))
def test_f1_within_band(em_scores, method):
    assert em_scores[method].f1 == pytest.approx(RECORDED_F1[method], abs=BAND), em_scores
