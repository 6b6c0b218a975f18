"""Scoring extracted events against gold annotations.

Predictions and gold events are matched one-to-one within each report.
Identity comes from what was trafficked: an event's identity keys are its
species and its product, each when present; an event with neither (an
arrest-only event) has its arrest count as its one key, when present.  A
pair is eligible exactly when the two events share a key: a species, a
product or, between two records with neither, an arrest count.
Matching is greedy on the number of agreeing fields among arrest count,
country, product, species, quantity and weight, with ties broken towards
the earliest prediction and then the earliest gold event.

Matched predictions are FULLY_CORRECT when all six fields agree and
PARTIALLY_CORRECT otherwise; unmatched predictions are UNRELATED and
unmatched gold events are UNDETECTED.  The detection rate is the share of
gold events that were matched at all.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .assembler import TraffickingEvent

__all__ = [
    "COMPARED_FIELDS",
    "EvalOutcome",
    "EvalReport",
    "MatchResult",
    "WEIGHT_TOLERANCE_KG",
    "compute_report",
    "evaluate_corpus",
    "field_agree",
    "match_events",
]

COMPARED_FIELDS = ("arrest_count", "country", "product", "species", "quantity", "weight_kg")

WEIGHT_TOLERANCE_KG = 1e-6


class EvalOutcome(Enum):
    FULLY_CORRECT = "fully_correct"
    PARTIALLY_CORRECT = "partially_correct"
    UNRELATED = "unrelated"
    UNDETECTED = "undetected"


def field_agree(a: object, b: object) -> bool:
    """True when both values are absent, or both present and equal.

    Weights compare within ``WEIGHT_TOLERANCE_KG``; strings and integers
    compare exactly.
    """
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= WEIGHT_TOLERANCE_KG
    return a == b


def _identity_keys(event: TraffickingEvent) -> list[tuple[str, object]]:
    """The keys a pair must share to be eligible for matching."""
    keys = [("species", event.species), ("product", event.product)]
    if event.species is None and event.product is None:
        keys = [("arrest_count", event.arrest_count)]
    return [key for key in keys if key[1] is not None]


def _exact_key(event: TraffickingEvent) -> tuple:
    """The compared fields other than the weight, which compare exactly."""
    return (event.arrest_count, event.country, event.product, event.species, event.quantity)


def pair_score(predicted: TraffickingEvent, gold: TraffickingEvent) -> int:
    """Number of agreeing fields among the six compared ones."""
    return sum(
        1
        for name in COMPARED_FIELDS
        if field_agree(getattr(predicted, name), getattr(gold, name))
    )


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one report's predictions against its gold events."""

    report_id: str
    pairs: tuple[tuple[int, int], ...]
    prediction_outcomes: tuple[EvalOutcome, ...]
    undetected_gold: tuple[int, ...]
    total_gold: int
    field_agreement: Mapping[str, int] = field(default_factory=dict)


def match_events(
    predicted: Sequence[TraffickingEvent],
    gold: Sequence[TraffickingEvent],
) -> MatchResult:
    """Greedy one-to-one matching for a single report."""
    report_ids = {e.report_id for e in predicted} | {e.report_id for e in gold}
    if len(report_ids) > 1:
        raise ValueError(f"match_events got events from several reports: {sorted(report_ids)}")
    report_id = report_ids.pop() if report_ids else ""

    matched_pred: dict[int, int] = {}
    matched_gold: set[int] = set()
    # A pair agreeing on all six fields scores the maximum, so the greedy
    # takes those pairs first: each prediction in index order takes its
    # lowest free gold index.  Gold is bucketed by the five fields compared
    # exactly; the weight is checked within the tolerance.
    exact: dict[tuple, list[int]] = {}
    for gi, g in enumerate(gold):
        exact.setdefault(_exact_key(g), []).append(gi)
    pred_keys = [_identity_keys(p) for p in predicted]
    for pi, p in enumerate(predicted):
        bucket = exact.get(_exact_key(p))
        if not bucket or not pred_keys[pi]:  # an event without identity is never eligible
            continue
        for j, gi in enumerate(bucket):
            if field_agree(p.weight_kg, gold[gi].weight_kg):
                matched_pred[pi] = gi
                matched_gold.add(gi)
                del bucket[j]
                break

    # the rest score below six, through the identity keys
    gold_by_key: dict[tuple[str, object], list[int]] = {}
    for gi, g in enumerate(gold):
        if gi not in matched_gold:
            for key in _identity_keys(g):
                gold_by_key.setdefault(key, []).append(gi)
    candidates: list[tuple[int, int, int]] = []  # (-score, pred idx, gold idx)
    for pi, p in enumerate(predicted):
        if pi in matched_pred:
            continue
        # a set, so a gold event sharing both species and product is scored once
        reached = {gi for key in pred_keys[pi] for gi in gold_by_key.get(key, ())}
        candidates.extend((-pair_score(p, gold[gi]), pi, gi) for gi in reached)
    candidates.sort()

    for _, pi, gi in candidates:
        if pi in matched_pred or gi in matched_gold:
            continue
        matched_pred[pi] = gi
        matched_gold.add(gi)

    agreement = {name: 0 for name in COMPARED_FIELDS}
    outcomes: list[EvalOutcome] = []
    for pi, p in enumerate(predicted):
        if pi not in matched_pred:
            outcomes.append(EvalOutcome.UNRELATED)
            continue
        g = gold[matched_pred[pi]]
        agreeing = [
            name for name in COMPARED_FIELDS if field_agree(getattr(p, name), getattr(g, name))
        ]
        for name in agreeing:
            agreement[name] += 1
        outcomes.append(
            EvalOutcome.FULLY_CORRECT
            if len(agreeing) == len(COMPARED_FIELDS)
            else EvalOutcome.PARTIALLY_CORRECT
        )

    return MatchResult(
        report_id=report_id,
        pairs=tuple(sorted((pi, gi) for pi, gi in matched_pred.items())),
        prediction_outcomes=tuple(outcomes),
        undetected_gold=tuple(gi for gi in range(len(gold)) if gi not in matched_gold),
        total_gold=len(gold),
        field_agreement=agreement,
    )


def evaluate_corpus(
    predicted: Iterable[TraffickingEvent],
    gold: Iterable[TraffickingEvent],
) -> list[MatchResult]:
    """Match report by report; one result per report, sorted by report id.

    Gold may come in any order: it is read once and grouped by report.
    ``predicted`` is read once, and each report's predictions must arrive
    together, as the store and every export yield them: a report is
    matched as soon as its run ends, so the predictions are never all held
    at once.  A report id that comes back after another report's run
    raises ``ValueError``.  Reports with gold and no predictions get a
    result too.
    """
    by_report_gold: dict[str, list[TraffickingEvent]] = {}
    for e in gold:
        by_report_gold.setdefault(e.report_id, []).append(e)
    results = []
    seen: set[str] = set()
    for report_id, run in itertools.groupby(predicted, key=attrgetter("report_id")):
        if report_id in seen:
            raise ValueError(
                f"predictions of report {report_id!r} come after another report's;"
                " each report's predictions must arrive together"
            )
        seen.add(report_id)
        results.append(match_events(list(run), by_report_gold.pop(report_id, [])))
    results.extend(match_events([], events) for events in by_report_gold.values())
    results.sort(key=attrgetter("report_id"))
    return results


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level outcome counts and the detection rate."""

    fully_correct: int
    partially_correct: int
    unrelated: int
    undetected: int
    total_gold: int
    field_agreement: Mapping[str, int] = field(default_factory=dict)

    @property
    def detected_gold(self) -> int:
        return self.total_gold - self.undetected

    @property
    def detection_rate(self) -> float:
        if self.total_gold == 0:
            return 0.0
        return self.detected_gold / self.total_gold

    @property
    def total_predictions(self) -> int:
        return self.fully_correct + self.partially_correct + self.unrelated

    @classmethod
    def from_counts(
        cls,
        fully_correct: int,
        partially_correct: int,
        unrelated: int,
        undetected: int,
        total_gold: int,
    ) -> "EvalReport":
        return cls(fully_correct, partially_correct, unrelated, undetected, total_gold)

    def counts_line(self) -> str:
        return (
            f"fully={self.fully_correct} partial={self.partially_correct}"
            f" unrelated={self.unrelated} undetected={self.undetected}"
            f" total_gold={self.total_gold}"
        )

    def machine_lines(self) -> list[str]:
        lines = [
            f"fully={self.fully_correct}",
            f"partial={self.partially_correct}",
            f"unrelated={self.unrelated}",
            f"undetected={self.undetected}",
            f"total_gold={self.total_gold}",
            f"detected_gold={self.detected_gold}",
            f"detection_rate={self.detection_rate:.6f}",
        ]
        for name in COMPARED_FIELDS:
            if name in self.field_agreement:
                lines.append(f"agree_{name}={self.field_agreement[name]}")
        return lines


def compute_report(results: Iterable[MatchResult]) -> EvalReport:
    """Aggregate per-report match results into one corpus report."""
    outcomes: Counter[EvalOutcome] = Counter()
    undetected = total_gold = 0
    agreement = {name: 0 for name in COMPARED_FIELDS}
    for result in results:
        outcomes.update(result.prediction_outcomes)
        undetected += len(result.undetected_gold)
        total_gold += result.total_gold
        for name, count in result.field_agreement.items():
            agreement[name] = agreement.get(name, 0) + count
    return EvalReport(
        fully_correct=outcomes[EvalOutcome.FULLY_CORRECT],
        partially_correct=outcomes[EvalOutcome.PARTIALLY_CORRECT],
        unrelated=outcomes[EvalOutcome.UNRELATED],
        undetected=undetected,
        total_gold=total_gold,
        field_agreement=agreement,
    )
