"""Event assembly: pairing, attachment windows and country fallback."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from brieflens.assembler import (
    ARREST_LEXEMES,
    HeuristicConfig,
    assemble,
    detect_arrest_count,
    has_arrest_lexeme,
    load_heuristics,
)
from brieflens.corpus import document_from_text
from brieflens.lexicon import COUNTRY, Lexicon
from brieflens.matcher import CARDINAL, compile_lexicon, find_entities, merge_spans
from brieflens.measures import MAX_NUMBER, numeric_spans
from brieflens.pipeline import extract_document
from brieflens.resources import DATA_DIR

from oracles import naive_arrest_count, spell_number


CONFIG = HeuristicConfig()
ARREST = {"window": CONFIG.arrest_window, "default": CONFIG.arrest_default}


def events_for(make_doc, matcher, text, config=HeuristicConfig()):
    return extract_document(make_doc(text), matcher, config)


def sentence_of(text: str):
    doc = document_from_text("m-2021-01", 2021, 1, text)
    assert len(doc.sentences) == 1
    return doc.sentences[0]


def cardinals_of(sentence):
    return [s for s in numeric_spans(sentence) if s.label == CARDINAL]


def core(event):
    """The six compared fields, for compact assertions."""
    return (
        event.country,
        event.species,
        event.product,
        event.quantity,
        event.weight_kg,
        event.arrest_count,
    )


class TestAssembly:
    def test_full_worked_example(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher,
            "In Gabon, three traffickers were arrested with two elephant tusks.",
        )
        assert [core(e) for e in events] == [("gabon", "elephant", "tusk", 2, None, 3)]

    def test_spaced_comma_does_not_join_a_thousands_group(self, make_doc, shipped_matcher):
        events = events_for(make_doc, shipped_matcher, "In Gabon, 3, 200 tusks were seized.")
        assert [core(e) for e in events] == [("gabon", None, "tusk", 200, None, None)]

    def test_sentence_without_candidates_yields_nothing(self, make_doc, shipped_matcher):
        assert events_for(make_doc, shipped_matcher, "The weather stayed dry all month.") == []

    def test_pairing_and_unpaired_animal(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher, "A leopard skin and a pangolin were seized."
        )
        assert [core(e) for e in events] == [
            (None, "leopard", "skin", None, None, None),
            (None, "pangolin", None, None, None, None),
        ]

    def test_pairing_window_limit(self, make_doc, shipped_matcher):
        # "elephant" sits four tokens before "tusks": outside the window
        events = events_for(
            make_doc, shipped_matcher, "The elephant was found near the tusks."
        )
        assert [core(e) for e in events] == [
            (None, "elephant", None, None, None, None),
            (None, None, "tusk", None, None, None),
        ]

    def test_one_animal_can_modify_two_products(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher, "Both elephant tusks and skins were recovered."
        )
        assert [core(e) for e in events] == [
            (None, "elephant", "tusk", None, None, None),
            (None, "elephant", "skin", None, None, None),
        ]

    def test_arrest_only_sentence(self, make_doc, shipped_matcher):
        events = events_for(make_doc, shipped_matcher, "Four poachers were arrested.")
        assert [core(e) for e in events] == [(None, None, None, None, None, 4)]

    def test_arrest_count_shared_across_events(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher,
            "Two dealers were arrested with ivory and a leopard skin.",
        )
        assert all(e.arrest_count == 2 for e in events)
        assert len(events) == 2

    def test_quantity_window(self, make_doc, shipped_matcher):
        events = events_for(make_doc, shipped_matcher, "Officers seized five fresh pangolins.")
        assert events[0].quantity == 5
        # three tokens away: outside the quantity window
        events = events_for(
            make_doc, shipped_matcher, "Officers counted five very fresh pangolins."
        )
        assert events[0].quantity is None

    def test_product_cardinal_before_species_cardinal(self, make_doc, shipped_matcher):
        # both cardinals sit one token before their span: the product's wins
        events = events_for(make_doc, shipped_matcher, "Officers seized 2 elephant 3 tusks.")
        assert [core(e) for e in events] == [(None, "elephant", "tusk", 3, None, None)]

    def test_each_cardinal_feeds_one_event(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher, "Two pangolins slept while three tusks moved."
        )
        assert [(e.species, e.product, e.quantity) for e in events] == [
            ("pangolin", None, 2),
            (None, "tusk", 3),
        ]

    def test_weight_attaches_to_nearest_event(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher, "100 kg of ivory and 2 tons of scales moved."
        )
        assert [(e.product, e.weight_kg) for e in events] == [
            ("ivory", 100.0),
            ("scale", 2000.0),
        ]

    def test_decimal_weight(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher, "In Gabon, 12.5 kg of ivory was seized."
        )
        assert [core(e) for e in events] == [("gabon", None, "ivory", None, 12.5, None)]

    def test_glued_weights_are_never_quantities_or_arrests(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher,
            "In Gabon, 513kg of ivory and 12.5kg of scales were seized and two men arrested.",
        )
        assert [core(e) for e in events] == [
            ("gabon", None, "ivory", None, 513.0, 2),
            ("gabon", None, "scale", None, 12.5, 2),
        ]

    def test_number_inside_a_lexicon_phrase_is_never_an_arrest_count(self, make_doc):
        # the lexical span owns "five", so only "Two" is a cardinal, and it
        # is the quantity
        matcher = compile_lexicon(Lexicon.from_rows([("big five", "ANIMAL", "")]))
        events = events_for(make_doc, matcher, "Two big five poachers were arrested.")
        assert [core(e) for e in events] == [
            (None, "big five", None, 2, None, CONFIG.arrest_default),
        ]

    def test_weight_tie_goes_to_leftmost(self, make_doc, shipped_matcher):
        events = events_for(make_doc, shipped_matcher, "The ivory , 40 kg , skins were seized.")
        assert [(e.product, e.weight_kg) for e in events] == [
            ("ivory", 40.0),
            ("skin", None),
        ]

    def test_country_nearest_in_sentence(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher,
            "Ivory from Gabon and pangolins from Togo were seized.",
        )
        assert [(e.product or e.species, e.country) for e in events] == [
            ("ivory", "gabon"),
            ("pangolin", "gabon"),  # tie on distance: earlier span wins
        ]

    def test_arrest_only_event_takes_first_country(self, make_doc, shipped_matcher):
        # the event stands for its whole sentence, so "Togo", though nearer
        # the lexeme, does not win
        events = events_for(
            make_doc, shipped_matcher,
            "In Gabon, rangers and officers from Togo arrested 3 suspects.",
        )
        assert [core(e) for e in events] == [("gabon", None, None, None, None, 3)]

    def test_country_paragraph_fallback(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher,
            "Senegal operations continued.\nTwo leopard skins were seized.",
        )
        assert [core(e) for e in events] == [("senegal", "leopard", "skin", 2, None, None)]

    def test_fallback_does_not_cross_paragraphs(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher,
            "Senegal operations continued.\n\nTwo leopard skins were seized.",
        )
        assert events[0].country is None

    def test_date_copied_from_report(self, make_doc, shipped_matcher):
        doc = make_doc("A pangolin was seized.", report_id="west-2020-07", year=2020, month=7)
        event, = extract_document(doc, shipped_matcher, HeuristicConfig())
        assert (event.report_id, event.year, event.month) == ("west-2020-07", 2020, 7)

    def test_sentence_index_provenance(self, make_doc, shipped_matcher):
        events = events_for(
            make_doc, shipped_matcher, "Patrols began early. A pangolin was seized."
        )
        assert [e.sentence_index for e in events] == [1]


def _nearest_left_pairs(animals, products, window):
    """Independent recount of which animals act as product modifiers."""
    modifiers = set()
    for p_first, _ in products:
        best = None
        for idx, (_, a_last) in enumerate(animals):
            if a_last < p_first and p_first - a_last <= window:
                if best is None or a_last > animals[best][1]:
                    best = idx
        if best is not None:
            modifiers.add(best)
    return modifiers


WEIGHT_UNITS = ("kg", "kilos", "t", "tonnes", "g", "lbs", "pounds")

SENTENCE_WORDS = st.one_of(
    st.integers(0, MAX_NUMBER).map(spell_number),
    st.integers(0, 10**7).map(str),
    st.integers(1000, 10**7).map("{:,}".format),
    st.builds("{}{}".format, st.integers(0, 2000), st.sampled_from(WEIGHT_UNITS)),
    st.builds(
        "{}.{}{}{}".format,
        # whole parts above MAX_NUMBER, plain or grouped, take their fraction along
        st.integers(0, 99)
        | st.integers(10**6, 10**7)
        | st.integers(10**6, 10**7).map("{:,}".format),
        st.integers(0, 99),
        st.sampled_from(("", " ")),
        st.sampled_from(("",) + WEIGHT_UNITS),
    ),
    st.sampled_from(WEIGHT_UNITS),
    st.sampled_from(sorted(ARREST_LEXEMES)),
    st.sampled_from(sorted(ARREST_LEXEMES)).map(str.upper),
    st.sampled_from(("men", "were", "with", "of", "ivory", "and", ",")),
)


class TestArrestDetection:
    def test_number_word_within_window(self):
        sentence = sentence_of("Three traffickers were arrested")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 3

    def test_lexeme_without_number_defaults(self):
        sentence = sentence_of("A dealer was arrested with ivory")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 1

    def test_no_lexeme_is_absent(self):
        sentence = sentence_of("Leopard skins were seized")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) is None
        assert not has_arrest_lexeme(sentence)

    def test_all_lexemes_recognised(self):
        for lexeme in ARREST_LEXEMES:
            sentence = sentence_of(f"Two men were {lexeme} yesterday")
            assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 2, lexeme

    def test_nearest_number_wins(self):
        # "two" is 2 tokens from the lexeme, "three" is 3
        sentence = sentence_of("Three traffickers were arrested with two elephant tusks")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 2

    def test_overflowing_grouped_run_is_no_arrest_count(self):
        sentence = sentence_of("Police arrested 1,000,000 men")
        assert cardinals_of(sentence) == []
        assert detect_arrest_count(sentence, [], **ARREST) == 1
        assert naive_arrest_count(sentence, **ARREST) == 1

    def test_overflowing_decimal_is_no_arrest_count(self):
        sentence = sentence_of("Police arrested 1000000.5 men")
        assert cardinals_of(sentence) == []
        assert detect_arrest_count(sentence, [], **ARREST) == 1
        assert naive_arrest_count(sentence, **ARREST) == 1

    def test_spaced_comma_does_not_join_a_thousands_group(self):
        sentence = sentence_of("Police arrested 3, 200 men")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 3
        assert naive_arrest_count(sentence, **ARREST) == 3

    def test_excluded_cardinals_are_skipped(self):
        sentence = sentence_of("Three traffickers were arrested with two elephant tusks")
        cardinals = [s for s in cardinals_of(sentence) if s.canonical != "2"]
        assert detect_arrest_count(sentence, cardinals, **ARREST) == 3

    def test_weight_numbers_are_never_arrest_counts(self):
        sentence = sentence_of("Police arrested smugglers with 513 kg of ivory")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 1

    def test_decimal_weight_numbers_are_never_arrest_counts(self):
        sentence = sentence_of("Two men were arrested with 3.5 kg of ivory")
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 2

    def test_weight_the_export_renders_as_zero_is_no_arrest_count(self):
        sentence = sentence_of("Police arrested smugglers with 0.0000001 kg of ivory")
        assert cardinals_of(sentence) == []
        assert detect_arrest_count(sentence, [], **ARREST) == 1
        assert naive_arrest_count(sentence, **ARREST) == 1

    def test_number_outside_window_ignored(self):
        sentence = sentence_of("Nine rangers on a routine forest patrol were ambushed and arrested")
        # "nine" sits more than five tokens from the lexeme
        assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) == 1

    def test_window_is_configurable(self):
        sentence = sentence_of("Nine rangers on a routine forest patrol were ambushed and arrested")
        cardinals = cardinals_of(sentence)
        assert detect_arrest_count(sentence, cardinals, **{**ARREST, "window": 20}) == 9

    @given(st.lists(st.sampled_from(["rangers", "seized", "five", "skins", "the"]), max_size=8))
    def test_never_fires_without_lexeme(self, words):
        doc = document_from_text("m-2021-01", 2021, 1, " ".join(words) or "quiet")
        for sentence in doc.sentences:
            assert detect_arrest_count(sentence, cardinals_of(sentence), **ARREST) is None

    @settings(max_examples=300)
    @given(
        words=st.lists(SENTENCE_WORDS, max_size=14),
        window=st.integers(0, 8),
        default=st.integers(0, 3),
        data=st.data(),
    )
    def test_agrees_with_reparsing_oracle(self, words, window, default, data):
        doc = document_from_text("m-2021-01", 2021, 1, " ".join(words) or "quiet")
        for sentence in doc.sentences:
            cardinals = cardinals_of(sentence)
            keep = data.draw(st.lists(st.booleans(), min_size=len(cardinals),
                                      max_size=len(cardinals)))
            # in any order: ties go to the leftmost cardinal, not the first passed
            kept = data.draw(st.permutations([c for c, k in zip(cardinals, keep) if k]))
            excluded = [c for c, k in zip(cardinals, keep) if not k]
            assert detect_arrest_count(
                sentence, kept, window=window, default=default
            ) == naive_arrest_count(sentence, window=window, default=default, exclude=excluded)


class TestEventCountFormula:
    VOCAB = (
        "elephant", "pangolin", "leopard", "tusks", "skins", "ivory", "scales",
        "the", "and", "with", "were", "seized", "two", "arrested", "officers",
        "gabon", "moved", "near",
    )

    def test_random_sentences(self, make_doc, shipped_matcher):
        rng = random.Random(4209)
        config = HeuristicConfig()
        for _ in range(300):
            text = " ".join(rng.choice(self.VOCAB) for _ in range(rng.randint(1, 14)))
            doc = make_doc(text)
            events = extract_document(doc, shipped_matcher, config)
            spans = find_entities(doc, shipped_matcher)
            for si, sentence in enumerate(doc.sentences):
                in_sentence = [
                    s for s in spans
                    if sentence.start_char <= s.start_char and s.end_char <= sentence.end_char
                ]

                def token_range(span):
                    covered = [
                        i for i, t in enumerate(sentence.tokens)
                        if t.start_char < span.end_char and span.start_char < t.end_char
                    ]
                    return covered[0], covered[-1]

                animals = [token_range(s) for s in in_sentence if s.label == "ANIMAL"]
                products = [token_range(s) for s in in_sentence if s.label == "PRODUCT"]
                arrest = has_arrest_lexeme(sentence)
                modifiers = _nearest_left_pairs(animals, products, config.pair_window)
                if not animals and not products:
                    expected = 1 if arrest else 0
                else:
                    expected = len(products) + len(animals) - len(modifiers)
                got = sum(1 for e in events if e.sentence_index == si)
                assert got == expected, text


class TestCountryRemovalProperty:
    TEXTS = (
        "In Gabon, three traffickers were arrested with two elephant tusks.",
        "Ivory from Gabon and pangolins from Togo were seized.",
        "Senegal operations continued.\nTwo leopard skins were seized.",
        "A leopard skin and a pangolin were seized in Congo.",
        "Rangers in Cameroon recovered 513 kg of ivory.",
    )

    def test_only_country_field_changes(self, make_doc, shipped_matcher):
        for text in self.TEXTS:
            doc = make_doc(text)
            numeric = [s for sent in doc.sentences for s in numeric_spans(sent)]
            spans = merge_spans(find_entities(doc, shipped_matcher), numeric)
            with_countries = assemble(doc, spans)
            without = assemble(doc, [s for s in spans if s.label != COUNTRY])
            assert len(with_countries) == len(without)
            for a, b in zip(with_countries, without):
                assert b.country is None
                assert replace(a, country=None) == replace(b, country=None)


class TestHeuristicsFile:
    def test_load(self, tmp_path):
        path = tmp_path / "h.cfg"
        path.write_text(
            "# windows\npair_window=4\nquantity_window=1 # inline note\n", encoding="utf-8"
        )
        config = load_heuristics(path)
        assert config == HeuristicConfig(pair_window=4, quantity_window=1,
                                         arrest_window=5, arrest_default=1)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "h.cfg"
        path.write_text("sprocket=3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="h.cfg:1"):
            load_heuristics(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "h.cfg"
        path.write_text("quantity_window=2\n# wider\nquantity_window = 5\n", encoding="utf-8")
        message = r"h\.cfg:3: quantity_window repeated \(first set at line 1\)$"
        with pytest.raises(ValueError, match=message):
            load_heuristics(path)

    def test_byte_order_mark_at_the_start(self, tmp_path):
        plain = DATA_DIR / "heuristics.cfg"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_heuristics(bom) == load_heuristics(plain)
        bom.write_bytes(b"\xef\xbb\xbfquantity_window=2\n")
        assert load_heuristics(bom) == HeuristicConfig(quantity_window=2)

    @pytest.mark.parametrize(
        "text", ["pair_window=4\n\ufeffquantity_window=1\n", "pair_window=\ufeff4\n"]
    )
    def test_byte_order_mark_elsewhere_rejected(self, tmp_path, text):
        path = tmp_path / "h.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="h.cfg"):
            load_heuristics(path)

    def test_shipped_template_equals_defaults(self):
        assert load_heuristics(DATA_DIR / "heuristics.cfg") == HeuristicConfig()

    @pytest.mark.parametrize(
        "key", ["pair_window", "quantity_window", "arrest_window", "arrest_default"]
    )
    def test_negative_value_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match=key):
            HeuristicConfig(**{key: -1})
        path = tmp_path / "h.cfg"
        path.write_text(f"{key}=-1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="h.cfg"):
            load_heuristics(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "h.cfg"
        path.write_text("pair_window=wide\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an integer"):
            load_heuristics(path)

    def test_windows_change_behaviour(self, make_doc, shipped_matcher):
        text = "The elephant was found near the tusks."
        tight = events_for(make_doc, shipped_matcher, text)
        wide = events_for(make_doc, shipped_matcher, text, HeuristicConfig(pair_window=6))
        assert len(tight) == 2 and len(wide) == 1
