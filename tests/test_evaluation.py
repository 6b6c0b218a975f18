"""Scoring: eligibility, greedy matching, outcome taxonomy, aggregate report."""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from brieflens.assembler import TraffickingEvent
from brieflens.evaluation import (
    COMPARED_FIELDS,
    EvalOutcome,
    EvalReport,
    WEIGHT_TOLERANCE_KG,
    compute_report,
    evaluate_corpus,
    field_agree,
    match_events,
    pair_score,
)
from brieflens.store import import_csv

from conftest import GOLD_CSV
from oracles import naive_evaluate_corpus, naive_match_events


def ev(report_id="r-2021-01", **kwargs):
    return TraffickingEvent(report_id=report_id, year=2021, month=1, **kwargs)


class TestFieldAgree:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (None, None, True),
            (None, "gabon", False),
            ("gabon", None, False),
            ("gabon", "gabon", True),
            ("gabon", "togo", False),
            (2, 2, True),
            (2, 3, False),
            (513.0, 513.0, True),
            (513.0, 513.0000005, True),   # inside the weight tolerance
            (513.0, 513.1, False),
            (513.0, 500.0, False),
            (2, 2.0, True),
            (2, 2.0000005, True),   # an int weight compares within the tolerance too
            (1e-6, 2e-6, True),     # a difference of exactly the tolerance agrees
        ],
    )
    def test_pairs(self, a, b, expected):
        assert field_agree(a, b) is expected


def eligible(predicted, gold):
    """Whether a one-by-one match pairs the two events."""
    return match_events([predicted], [gold]).pairs == ((0, 0),)


class TestEligibility:
    def test_species_identity(self):
        assert eligible(ev(species="elephant"), ev(species="elephant"))
        assert not eligible(ev(species="elephant"), ev(species="leopard"))

    def test_product_identity_survives_species_disagreement(self):
        p = ev(species="elephant", product="skin")
        g = ev(species="leopard", product="skin")
        assert eligible(p, g)

    def test_one_sided_species_is_not_identity(self):
        assert not eligible(ev(species="elephant"), ev(product="ivory"))

    def test_arrest_only_fallback(self):
        assert eligible(ev(arrest_count=3), ev(arrest_count=3))
        assert not eligible(ev(arrest_count=3), ev(arrest_count=2))
        # the fallback applies only when neither side names what was trafficked
        assert not eligible(ev(arrest_count=3), ev(species="elephant", arrest_count=3))


# Small pools so that species, products and arrest counts collide often;
# "ivory" is both a species and a product value, and "" is a present value.
POOL_EVENTS = st.builds(
    ev,
    species=st.sampled_from((None, "", "elephant", "ivory")),
    product=st.sampled_from((None, "", "ivory", "skin")),
    arrest_count=st.sampled_from((None, 0, 1, 2)),
    country=st.sampled_from((None, "gabon", "togo")),
    quantity=st.sampled_from((None, 2, 3)),
    weight_kg=st.sampled_from((None, 12.5, 12.5 + 1e-7, 13.0)),
)


# Few distinct values, so that exact pairs and repeated gold events are
# common: weights sit just inside and just outside the tolerance of 12.5 and
# of each other, or are absent, and an event may have no identity key.
TOLERANCE_EVENTS = st.builds(
    ev,
    species=st.sampled_from((None, "elephant")),
    product=st.sampled_from((None, "ivory")),
    arrest_count=st.sampled_from((None, 2)),
    quantity=st.sampled_from((None, 3)),
    weight_kg=st.sampled_from(
        (None, 12.5, 12.5 + 0.9 * WEIGHT_TOLERANCE_KG, 12.5 - 0.9 * WEIGHT_TOLERANCE_KG,
         12.5 + 1.1 * WEIGHT_TOLERANCE_KG)
    ),
)


class TestMatchEventsOracle:
    @settings(max_examples=300)
    @given(
        predicted=st.lists(POOL_EVENTS, max_size=10),
        gold=st.lists(POOL_EVENTS, max_size=10),
    )
    def test_agrees_with_all_pairs_matching(self, predicted, gold):
        assert match_events(predicted, gold) == naive_match_events(predicted, gold)

    @settings(max_examples=300)
    @given(
        predicted=st.lists(TOLERANCE_EVENTS, max_size=8),
        gold=st.lists(TOLERANCE_EVENTS, max_size=5),
        copies=st.integers(1, 3),
    )
    def test_agrees_near_the_tolerance_and_on_repeated_gold(self, predicted, gold, copies):
        gold = [g for g in gold for _ in range(copies)]
        assert match_events(predicted, gold) == naive_match_events(predicted, gold)


class TestMatchEvents:
    def scenario(self):
        gold = [
            ev(species="elephant", product="tusk", country="gabon", quantity=2, arrest_count=3),
            ev(species="pangolin", country="togo", quantity=5),
            ev(product="ivory"),
        ]
        predicted = [
            ev(species="elephant", product="tusk", country="gabon", quantity=2, arrest_count=3),
            ev(species="pangolin", country="togo", quantity=4),
            ev(species="leopard"),
        ]
        return predicted, gold

    def test_four_outcomes(self):
        predicted, gold = self.scenario()
        result = match_events(predicted, gold)
        assert result.report_id == "r-2021-01"
        assert result.pairs == ((0, 0), (1, 1))
        assert result.prediction_outcomes == (
            EvalOutcome.FULLY_CORRECT,
            EvalOutcome.PARTIALLY_CORRECT,
            EvalOutcome.UNRELATED,
        )
        assert result.undetected_gold == (2,)
        assert result.total_gold == 3

    def test_field_agreement_counts(self):
        predicted, gold = self.scenario()
        result = match_events(predicted, gold)
        assert dict(result.field_agreement) == {
            "arrest_count": 2,
            "country": 2,
            "product": 2,
            "species": 2,
            "quantity": 1,
            "weight_kg": 2,
        }

    def test_higher_score_wins_over_position(self):
        gold = [ev(species="elephant", quantity=2)]
        predicted = [ev(species="elephant"), ev(species="elephant", quantity=2)]
        result = match_events(predicted, gold)
        assert result.pairs == ((1, 0),)
        assert result.prediction_outcomes == (
            EvalOutcome.UNRELATED,
            EvalOutcome.FULLY_CORRECT,
        )

    def test_score_tie_prefers_earliest_prediction(self):
        gold = [ev(species="elephant", quantity=2)]
        predicted = [ev(species="elephant"), ev(species="elephant")]
        result = match_events(predicted, gold)
        assert result.pairs == ((0, 0),)

    def test_score_tie_prefers_earliest_gold(self):
        gold = [ev(species="elephant", quantity=2), ev(species="elephant", quantity=3)]
        predicted = [ev(species="elephant")]
        result = match_events(predicted, gold)
        assert result.pairs == ((0, 0),)
        assert result.undetected_gold == (1,)

    def test_mixed_reports_rejected(self):
        with pytest.raises(ValueError, match="several reports"):
            match_events([ev()], [ev(report_id="other-2021-01")])

    def test_no_predictions(self):
        gold = [ev(species="elephant"), ev(product="ivory"), ev(arrest_count=2)]
        result = match_events([], gold)
        assert result.prediction_outcomes == ()
        assert result.undetected_gold == (0, 1, 2)

    def test_empty_both_sides(self):
        result = match_events([], [])
        assert result.report_id == ""
        assert result.total_gold == 0


class TestEvaluateCorpus:
    def test_groups_by_report(self):
        predicted = [ev(species="elephant"), ev(report_id="b-2021-01", species="pangolin")]
        gold = [ev(species="elephant"), ev(report_id="c-2021-01", species="leopard")]
        results = evaluate_corpus(predicted, gold)
        assert [r.report_id for r in results] == ["b-2021-01", "c-2021-01", "r-2021-01"]
        report = compute_report(results)
        assert report.fully_correct == 1  # the elephant report matches itself
        assert report.unrelated == 1      # pangolin report has no gold
        assert report.undetected == 1     # leopard report has no predictions
        assert report.total_gold == 2

    def test_a_report_that_comes_back_is_rejected(self):
        predicted = [ev(species="elephant"), ev(report_id="b-2021-01"), ev(product="ivory")]
        with pytest.raises(ValueError, match="'r-2021-01'"):
            evaluate_corpus(predicted, [])

    @settings(max_examples=200)
    @given(
        events=st.lists(
            st.tuples(st.sampled_from(("a-2021-01", "b-2021-01", "c-2021-01")), POOL_EVENTS),
            max_size=12,
        ),
        gold=st.lists(
            st.tuples(st.sampled_from(("a-2021-01", "b-2021-01", "d-2021-01")), POOL_EVENTS),
            max_size=12,
        ),
        order=st.permutations(("a-2021-01", "b-2021-01", "c-2021-01")),
    )
    def test_agrees_with_grouping_both_sides(self, events, gold, order):
        events = [replace(e, report_id=r) for r, e in events]
        gold = [replace(e, report_id=r) for r, e in gold]
        # each report's predictions together, the reports in any order
        predicted = [e for report_id in order for e in events if e.report_id == report_id]
        assert evaluate_corpus(predicted, gold) == naive_evaluate_corpus(predicted, gold)

    def test_gold_corpus_is_its_own_perfect_prediction(self):
        gold = import_csv(GOLD_CSV)
        assert len(gold) == 7
        report = compute_report(evaluate_corpus(gold, gold))
        assert report.fully_correct == 7
        assert report.partially_correct == report.unrelated == report.undetected == 0
        assert report.detection_rate == 1.0

    def test_self_identity_property(self):
        rng = random.Random(99)
        species = ("elephant", "pangolin", None)
        products = ("ivory", "skin", None)
        events = []
        for i in range(120):
            while True:
                s, p = rng.choice(species), rng.choice(products)
                arrest = rng.choice((None, 0, 3))
                if s or p or arrest is not None:
                    break
            events.append(
                ev(
                    report_id=f"r{i % 7}-2021-01",
                    species=s,
                    product=p,
                    arrest_count=arrest,
                    country=rng.choice(("gabon", None)),
                    quantity=rng.choice((None, 2)),
                    weight_kg=rng.choice((None, 12.5)),
                )
            )
        # evaluate_corpus takes each report's predictions together
        events.sort(key=lambda e: e.report_id)
        report = compute_report(evaluate_corpus(events, events))
        assert report.fully_correct == len(events)
        assert report.undetected == 0 and report.unrelated == 0

    def test_adding_the_missing_prediction_raises_detection(self):
        gold = [ev(species="elephant"), ev(species="pangolin")]
        partial = compute_report(evaluate_corpus([gold[0]], gold))
        full = compute_report(evaluate_corpus(gold, gold))
        assert partial.detected_gold == 1
        assert full.detected_gold == 2
        assert full.detection_rate > partial.detection_rate


# Events that always have an identity key, from pools that never hold
# "planted", "nowhere" or 99, the values the edits below write.
PLANTED_EVENTS = st.builds(
    ev,
    report_id=st.sampled_from(("a-2021-01", "b-2021-01")),
    species=st.sampled_from((None, "elephant", "pangolin")),
    product=st.sampled_from((None, "ivory", "scale")),
    arrest_count=st.sampled_from((None, 0, 2)),
    country=st.sampled_from((None, "gabon", "togo")),
    quantity=st.sampled_from((None, 2)),
    weight_kg=st.sampled_from((None, 12.5)),
).filter(lambda e: e.species is not None or e.product is not None or e.arrest_count is not None)


def only_identity_field(event: TraffickingEvent) -> str | None:
    """The field of the event's one identity key, or None if it has two."""
    if event.species is not None and event.product is not None:
        return None
    if event.species is not None:
        return "species"
    return "product" if event.product is not None else "arrest_count"


def plant_disagreement(
    events: list[TraffickingEvent], kind: str, index: int
) -> tuple[list[TraffickingEvent], dict[str, int]]:
    """Gold equal to ``events`` but for one edit of event ``index``, and its effect.

    The effect maps report counts, and ``agree_<field>`` counts, to how much
    the edit moves them from the all-fully-correct report of ``events``
    scored against themselves.  ``"country"`` moves the country to one no
    event has, which leaves a partial match; ``"delete"`` drops the event,
    so its prediction is unrelated; ``"identity"`` moves the event's only
    identity key to a value no event has, so no prediction is eligible for
    it.
    """
    gold = list(events)
    every_field = {f"agree_{name}": -1 for name in COMPARED_FIELDS}
    if kind == "country":
        gold[index] = replace(gold[index], country="nowhere")
        return gold, {"fully_correct": -1, "partially_correct": 1, "agree_country": -1}
    if kind == "delete":
        del gold[index]
        return gold, {"fully_correct": -1, "unrelated": 1, "total_gold": -1, **every_field}
    field = only_identity_field(gold[index])
    gold[index] = replace(gold[index], **{field: 99 if field == "arrest_count" else "planted"})
    return gold, {"fully_correct": -1, "unrelated": 1, "undetected": 1, **every_field}


def report_counts(report: EvalReport) -> dict[str, int]:
    counts = asdict(report)
    counts.update((f"agree_{name}", n) for name, n in counts.pop("field_agreement").items())
    return counts


class TestPlantedDisagreements:
    @seed(20220406)
    @settings(max_examples=150)
    @given(
        events=st.lists(PLANTED_EVENTS, min_size=1, max_size=12),
        kind=st.sampled_from(("country", "delete", "identity")),
        data=st.data(),
    )
    def test_one_edit_moves_the_report_as_planned(self, events, kind, data):
        # evaluate_corpus takes each report's predictions together
        events.sort(key=lambda e: e.report_id)
        targets = [
            i for i, e in enumerate(events)
            if kind != "identity" or only_identity_field(e) is not None
        ]
        assume(targets)
        index = data.draw(st.sampled_from(targets))
        n = len(events)
        expected = report_counts(EvalReport(n, 0, 0, 0, n, dict.fromkeys(COMPARED_FIELDS, n)))
        assert report_counts(compute_report(evaluate_corpus(events, events))) == expected

        gold, effect = plant_disagreement(events, kind, index)
        for name, delta in effect.items():
            expected[name] += delta
        assert report_counts(compute_report(evaluate_corpus(events, gold))) == expected


class TestEvalReport:
    def test_from_published_counts(self):
        report = EvalReport.from_counts(15, 36, 39, 38, 85)
        assert report.detected_gold == 47
        assert report.total_predictions == 90
        assert abs(report.detection_rate - 0.5529) <= 1e-4
        assert report.counts_line() == (
            "fully=15 partial=36 unrelated=39 undetected=38 total_gold=85"
        )
        assert report.machine_lines() == [
            "fully=15",
            "partial=36",
            "unrelated=39",
            "undetected=38",
            "total_gold=85",
            "detected_gold=47",
            "detection_rate=0.552941",
        ]

    def test_machine_lines_include_field_agreement(self):
        predicted, gold = TestMatchEvents().scenario()
        report = compute_report([match_events(predicted, gold)])
        lines = report.machine_lines()
        assert lines[-len(COMPARED_FIELDS):] == [
            "agree_arrest_count=2",
            "agree_country=2",
            "agree_product=2",
            "agree_species=2",
            "agree_quantity=1",
            "agree_weight_kg=2",
        ]

    def test_partition_identities(self):
        predicted, gold = TestMatchEvents().scenario()
        report = compute_report([match_events(predicted, gold)])
        assert report.detected_gold + report.undetected == report.total_gold
        assert (
            report.fully_correct + report.partially_correct + report.unrelated
            == report.total_predictions
        )
        matched = report.fully_correct + report.partially_correct
        assert matched == report.detected_gold

    def test_zero_gold_rate_is_zero(self):
        assert EvalReport.from_counts(0, 0, 0, 0, 0).detection_rate == 0.0


class TestPairScore:
    def test_counts_agreeing_fields(self):
        a = ev(species="elephant", quantity=2)
        b = ev(species="elephant", quantity=3)
        # arrest, country, product, weight all absent on both sides
        assert pair_score(a, b) == 5
        assert pair_score(a, a) == 6
