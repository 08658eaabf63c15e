"""Value-matching effectiveness metrics (the quantities of Table 1).

A value-matching prediction and its ground truth are both collections of
disjoint sets of ``(column id, value)`` items; effectiveness is measured
pairwise: a predicted pair (two items placed in the same set) is correct when
the gold clustering also places the two items together.  Per-benchmark results
are macro-averaged over the integration sets, matching the paper's "average
performance ... over 31 sets of aligning columns".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.value_matching import ValueMatchingResult
from repro.matching.clustering import ValueMatchSet

ValueKey = Tuple[object, object]


@dataclass(frozen=True)
class MatchingScores:
    """Precision, recall and F1 of one value-matching run."""

    precision: float
    recall: float
    f1: float
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Scores as a dictionary (used by the report formatter)."""
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


def _pairs_from_sets(sets: Iterable[Iterable[ValueKey]]) -> Set[FrozenSet[ValueKey]]:
    pairs: Set[FrozenSet[ValueKey]] = set()
    for members in sets:
        ordered = sorted(members, key=lambda key: (str(key[0]), str(key[1])))
        for index, left in enumerate(ordered):
            for right in ordered[index + 1 :]:
                if left != right:
                    pairs.add(frozenset((left, right)))
    return pairs


def score_match_sets(
    predicted: Iterable[Iterable[ValueKey]],
    gold: Iterable[Iterable[ValueKey]],
) -> MatchingScores:
    """Pairwise precision/recall/F1 of predicted vs gold value-match sets."""
    predicted_pairs = _pairs_from_sets(predicted)
    gold_pairs = _pairs_from_sets(gold)
    true_positives = len(predicted_pairs & gold_pairs)
    false_positives = len(predicted_pairs - gold_pairs)
    false_negatives = len(gold_pairs - predicted_pairs)
    precision = true_positives / len(predicted_pairs) if predicted_pairs else 1.0
    recall = true_positives / len(gold_pairs) if gold_pairs else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MatchingScores(
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
    )


def score_integration_set(
    result: ValueMatchingResult | Sequence[ValueMatchSet],
    gold_sets: Iterable[Iterable[ValueKey]],
) -> MatchingScores:
    """Score a :class:`ValueMatchingResult` (or raw match sets) against gold sets."""
    if isinstance(result, ValueMatchingResult):
        predicted = [match_set.members for match_set in result.sets]
    else:
        predicted = [match_set.members for match_set in result]
    return score_match_sets(predicted, gold_sets)


def macro_average(scores: Sequence[MatchingScores]) -> MatchingScores:
    """Unweighted mean of per-set scores (the aggregation Table 1 reports),
    of the scores' own type (also :class:`~repro.em.metrics.EntityMatchingScores`)."""
    if not scores:
        return MatchingScores(precision=0.0, recall=0.0, f1=0.0)
    precision = sum(score.precision for score in scores) / len(scores)
    recall = sum(score.recall for score in scores) / len(scores)
    f1 = sum(score.f1 for score in scores) / len(scores)
    return type(scores[0])(
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=sum(score.true_positives for score in scores),
        false_positives=sum(score.false_positives for score in scores),
        false_negatives=sum(score.false_negatives for score in scores),
    )
