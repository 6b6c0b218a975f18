"""Number parsing and weight normalization."""

from __future__ import annotations

import random

import pytest

from brieflens.assembler import HeuristicConfig, detect_arrest_count
from brieflens.corpus import document_from_text, tokenize
from brieflens.matcher import CARDINAL, WEIGHT
from brieflens.measures import (
    MAX_NUMBER,
    format_weight,
    numeric_spans,
    parse_number,
    parse_weights,
)

from oracles import naive_arrest_count, spell_number


CONFIG = HeuristicConfig()
ARREST = {"window": CONFIG.arrest_window, "default": CONFIG.arrest_default}


def sentence_of(text: str):
    doc = document_from_text("m-2021-01", 2021, 1, text)
    assert len(doc.sentences) == 1
    return doc.sentences[0]


class TestParseNumber:
    def test_digit_literal(self):
        assert parse_number(tokenize("12")) == (12, 1)
        assert parse_number(tokenize("tusks 12"), 1) == (12, 2)

    def test_hyphenated_compound(self):
        assert parse_number(tokenize("twenty-five")) == (25, 1)

    def test_comma_separator(self):
        assert parse_number(tokenize("1,200")) == (1200, 3)

    def test_comma_groups_must_be_three_digits(self):
        # "1,20" is not a separated thousand; only "1" parses
        assert parse_number(tokenize("1,20")) == (1, 1)

    def test_comma_groups_join_only_when_written_against_digits(self):
        assert parse_number(tokenize("3, 200")) == (3, 1)
        assert parse_number(tokenize("3 ,200")) == (3, 1)
        for text, values in [
            ("In Gabon, 3, 200 tusks were seized.", ["3", "200"]),
            ("45, 120 and 300 were seen.", ["45", "120", "300"]),
        ]:
            assert [s.canonical for s in numeric_spans(sentence_of(text))] == values

    @pytest.mark.parametrize(
        "text, spans",
        [
            # only a run of at most three digits takes groups
            ("They held 1234,567 tusks.", [(CARDINAL, "1234"), (CARDINAL, "567")]),
            # and a group after a glued unit starts a number of its own
            ("They held 12kg,500 tusks.", [(WEIGHT, "12.0"), (CARDINAL, "500")]),
        ],
    )
    def test_comma_groups_follow_only_short_unitless_digits(self, text, spans):
        assert [(s.label, s.canonical) for s in numeric_spans(sentence_of(text))] == spans

    def test_overflowing_grouped_run_is_no_number(self):
        # no token of the run reads as a number of its own, not even a group
        assert parse_number(tokenize("1,000,000")) is None
        for text in [
            "1,000,000 elephant tusks",
            "2,500,000 kg",
            "1,000,000kg and 1,000,000,000 tusks",
        ]:
            assert numeric_spans(sentence_of(text)) == [], text
        assert parse_number(tokenize("999,999")) == (MAX_NUMBER, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "In Gabon, 1000000.5 kg of ivory was seized.",
            "In Gabon, 1,000,000.5 kg of ivory was seized.",
            "In Gabon, 1000000.5kg of ivory was seized.",
            "In Gabon, 2,500,000.75 tonnes and 1000000.5 tusks were seized.",
        ],
    )
    def test_overflowing_number_takes_its_fraction_with_it(self, text):
        assert numeric_spans(sentence_of(text)) == [], text

    def test_number_after_an_overflowing_decimal_still_parses(self):
        sentence = sentence_of("Police arrested 1000000.5 and 2 men with 3.5 kg of ivory")
        spans = numeric_spans(sentence)
        assert [(s.label, s.canonical) for s in spans] == [(CARDINAL, "2"), (WEIGHT, "3.5")]
        assert detect_arrest_count(sentence, spans[:1], **ARREST) == 2

    def test_hundred_and(self):
        assert parse_number(tokenize("three hundred and six")) == (306, 4)

    def test_thousands(self):
        assert parse_number(tokenize("twelve thousand three hundred and four")) == (12304, 6)

    @pytest.mark.parametrize(
        ("text", "value", "end"),
        [
            # "and" joins only a following number below 100
            ("two hundred and men", 200, 2),
            ("two hundred and", 200, 2),
            ("one thousand and five", 1000, 2),
            # "hundred" follows only a unit, "thousand" only a number above 0
            ("eleven hundred", 11, 1),
            ("zero thousand", 0, 1),
            # the largest number in words is MAX_NUMBER
            ("nine hundred and ninety-nine thousand nine hundred and ninety-nine", MAX_NUMBER, 9),
        ],
    )
    def test_word_number_edges(self, text, value, end):
        assert parse_number(tokenize(text)) == (value, end)

    def test_cap(self):
        assert parse_number(tokenize("1000000")) is None
        assert parse_number(tokenize("999999")) == (MAX_NUMBER, 1)

    def test_no_match(self):
        assert parse_number(tokenize("elephant")) is None
        assert parse_number([]) is None
        # a start outside the tokens is no number, not one counted from the end
        assert parse_number(tokenize("tusks 7"), -1) is None
        assert parse_number(tokenize("tusks 7"), 2) is None

    def test_non_decimal_digits_are_not_numbers(self):
        # str.isdigit accepts superscripts, which int() rejects
        assert parse_number(tokenize("¹")) is None
        assert parse_number(tokenize("1,²³⁴")) == (1, 1)
        assert parse_number(tokenize("٣")) == (3, 1)

    def test_overlong_digit_runs_are_not_numbers(self):
        # int() refuses more than 4,300 digits; leading zeros of any script are not significant
        assert parse_number(tokenize("1" * 5000)) is None
        assert parse_number(tokenize("0" * 5000 + "7")) == (7, 1)
        assert parse_number(tokenize("٠" * 9 + "١٢")) == (12, 1)
        assert parse_number(tokenize("1" + "0" * 6)) is None

    def test_words_exhaustive_to_one_hundred(self):
        for n in range(101):
            for hyphen in (True, False):
                tokens = tokenize(spell_number(n, hyphen=hyphen))
                assert parse_number(tokens) == (n, len(tokens)), (n, hyphen)

    def test_digits_exhaustive_to_ten_thousand(self):
        for n in range(10000):
            assert parse_number(tokenize(str(n))) == (n, 1)

    def test_words_sampled_to_max(self):
        rng = random.Random(52)
        for _ in range(300):
            n = rng.randint(101, MAX_NUMBER)
            tokens = tokenize(spell_number(n))
            assert parse_number(tokens) == (n, len(tokens)), n

    def test_comma_formatting_round_trip(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1000, MAX_NUMBER)
            tokens = tokenize(f"{n:,}")
            assert parse_number(tokens) == (n, len(tokens)), n


class TestParseWeights:
    @pytest.mark.parametrize(
        ("text", "kg"),
        [
            ("513 kg", 513.0),
            ("2 tons", 2000.0),
            ("500 g", 0.5),
            ("3 tonnes", 3000.0),
            ("40 kilograms", 40.0),
            ("two kilos", 2.0),
            ("1,200 kg", 1200.0),
        ],
    )
    def test_exact_conversions(self, text, kg):
        results = parse_weights(sentence_of(text))
        assert len(results) == 1
        span, weight = results[0]
        assert span.label == WEIGHT
        assert weight.value_kg == kg
        assert float(span.canonical) == kg

    def test_pounds_within_tolerance(self):
        (_, weight), = parse_weights(sentence_of("2 lbs"))
        assert abs(weight.value_kg - 0.90718474) < 1e-9

    def test_original_value_and_unit_kept(self):
        (_, weight), = parse_weights(sentence_of("2 tons of ivory"))
        assert (weight.original_value, weight.original_unit) == (2.0, "tons")

    def test_number_without_unit_is_not_a_weight(self):
        assert parse_weights(sentence_of("513 elephants")) == []

    def test_zero_is_not_a_weight(self):
        assert parse_weights(sentence_of("0 kg")) == []

    @pytest.mark.parametrize(
        "text", ["0.0000001 kg", "0.0000001kg", "0.0004 g", "0.0000000001 t", "0.000001 lbs"]
    )
    def test_weight_the_export_renders_as_zero_is_no_number(self, text):
        sentence = sentence_of(f"In Gabon, {text} of ivory was seized by 2 officers.")
        assert parse_weights(sentence) == []
        assert [s.canonical for s in numeric_spans(sentence)] == ["2"]

    def test_least_weight_the_export_carries(self):
        (_, weight), = parse_weights(sentence_of("0.000001 kg"))
        assert format_weight(weight.value_kg) == "0.000001"

    def test_two_weights_in_one_sentence(self):
        results = parse_weights(sentence_of("100 kg of ivory and 2 tons of scales"))
        assert [w.value_kg for _, w in results] == [100.0, 2000.0]

    def test_span_covers_number_and_unit(self):
        text = "about 513 kg of ivory"
        (span, _), = parse_weights(sentence_of(text))
        assert text[span.start_char : span.end_char] == "513 kg"

    @pytest.mark.parametrize(
        ("text", "kg", "original"),
        [
            ("12.5 kg", 12.5, 12.5),
            ("1.5 tonnes", 1500.0, 1.5),
            ("1.1 tonnes", 1100.0, 1.1),
            ("0.5 kg", 0.5, 0.5),
            ("5.5 g", 0.0055, 5.5),
            ("1,200.75 kg", 1200.75, 1200.75),
        ],
    )
    def test_decimal_weights(self, text, kg, original):
        (span, weight), = parse_weights(sentence_of(f"about {text} of ivory"))
        assert (weight.value_kg, weight.original_value) == (kg, original)
        assert float(span.canonical) == kg
        assert f"about {text} of ivory"[span.start_char : span.end_char] == text

    def test_spaced_decimal_point_is_not_a_decimal(self):
        (_, weight), = parse_weights(sentence_of("about 12 . 5 kg of ivory"))
        assert weight.value_kg == 5.0


class TestGluedWeights:
    @pytest.mark.parametrize(
        ("glued", "spaced"),
        [
            ("513kg", "513 kg"),
            ("2t", "2 t"),
            ("500g", "500 g"),
            ("2lbs", "2 lbs"),
            ("12.5kg", "12.5 kg"),
            ("1,200kg", "1,200 kg"),
            ("1,200.75kg", "1,200.75 kg"),
            ("1.5TONNES", "1.5 TONNES"),
        ],
    )
    def test_converts_like_the_spaced_form(self, glued, spaced):
        text = f"about {glued} of ivory"
        (span, weight), = parse_weights(sentence_of(text))
        (_, spaced_weight), = parse_weights(sentence_of(f"about {spaced} of ivory"))
        assert weight == spaced_weight
        assert text[span.start_char : span.end_char] == glued

    def test_kilograms(self):
        (_, weight), = parse_weights(sentence_of("about 513kg of ivory"))
        assert (weight.value_kg, weight.original_value, weight.original_unit) == (
            513.0, 513.0, "kg",
        )
        (_, weight), = parse_weights(sentence_of("about 12.5kg of ivory"))
        assert weight.value_kg == 12.5

    def test_decimal_leaves_no_stray_cardinal(self):
        text = "In Gabon, 12.5kg of ivory was seized."
        spans = numeric_spans(sentence_of(text))
        assert [(s.label, s.canonical, text[s.start_char : s.end_char]) for s in spans] == [
            (WEIGHT, "12.5", "12.5kg"),
        ]
        assert (spans[0].first_token, spans[0].last_token) == (3, 5)

    @pytest.mark.parametrize("text", ["1st", "0kg", "1000000kg", "0.0kg", "5kgs"])
    def test_no_weight(self, text):
        assert parse_weights(sentence_of(f"about {text} of ivory")) == []

    def test_zero_and_overlong_glued_numbers_are_no_numbers(self):
        assert numeric_spans(sentence_of("about 0kg and 1000000kg of ivory")) == []

    def test_zero_glued_to_a_unit_parses_as_zero(self):
        # the number grammar reads it; only the weight rule then skips it
        assert parse_number(tokenize("0kg")) == (0, 1)

    @pytest.mark.parametrize("weight", ["0 kg", "0.0 kg", "0kg", "0.0kg", "zero kg"])
    def test_zero_weight_is_no_number_and_no_arrest_count(self, weight):
        sentence = sentence_of(f"Police arrested smugglers with {weight} of ivory")
        assert numeric_spans(sentence) == []
        assert detect_arrest_count(sentence, [], **ARREST) == 1
        assert naive_arrest_count(sentence, **ARREST) == 1

    def test_thousands_group_never_splits_off(self):
        (_, weight), = parse_weights(sentence_of("about 1,200kg of ivory"))
        assert weight.value_kg == 1200.0

    def test_glued_numbers_are_never_quantities_or_arrest_counts(self):
        sentence = sentence_of("Police arrested smugglers with 3kg of ivory")
        assert [s.label for s in numeric_spans(sentence)] == [WEIGHT]
        assert detect_arrest_count(sentence, [], **ARREST) == 1
        sentence = sentence_of("Two men were arrested with 3.5kg of ivory")
        cardinals = [s for s in numeric_spans(sentence) if s.label == CARDINAL]
        assert detect_arrest_count(sentence, cardinals, **ARREST) == 2


class TestNumericSpans:
    def test_weight_number_never_doubles_as_cardinal(self):
        spans = numeric_spans(sentence_of("513 kg of ivory"))
        assert [s.label for s in spans] == [WEIGHT]

    def test_leftover_numbers_are_cardinals(self):
        spans = numeric_spans(sentence_of("three traffickers moved 513 kg"))
        assert [(s.label, s.canonical) for s in spans] == [
            (CARDINAL, "3"),
            (WEIGHT, "513.0"),
        ]

    def test_decimal_weight_pieces_are_not_cardinals(self):
        text = "In Gabon, 12.5 kg of ivory was seized."
        spans = numeric_spans(sentence_of(text))
        assert [(s.label, s.canonical, text[s.start_char : s.end_char]) for s in spans] == [
            (WEIGHT, "12.5", "12.5 kg"),
        ]
        assert (spans[0].first_token, spans[0].last_token) == (3, 6)

    @pytest.mark.parametrize(
        "text",
        [
            "Police seized 1,200 kg and 12.5kg of ivory.",
            "They carried 12.5 kg of scales.",
            "They found 1,200kg and 3 tons.",
            "Rangers held three hundred and six men.",
            "Twenty-five tusks and forty two skins.",
            "They held 12.5  kg today.",
            "They held 1,200\n kg today.",
            "Rangers found 12\tkg of ivory.",
        ],
    )
    def test_text_is_the_source_slice(self, text):
        spans = numeric_spans(sentence_of(text))
        assert spans
        assert [s.text for s in spans] == [text[s.start_char : s.end_char] for s in spans]

    def test_sorted_by_offset(self):
        spans = numeric_spans(sentence_of("five tusks and 2 tons of meat"))
        starts = [s.start_char for s in spans]
        assert starts == sorted(starts)
