"""Tokenization, sentence segmentation and brief loading."""

from __future__ import annotations

import dataclasses
import re
import string
import sys

import pytest
from hypothesis import given, strategies as st

from brieflens.cli import main
from brieflens.corpus import (
    DEFAULT_ABBREVIATIONS,
    ReportDocument,
    ReportEncodingError,
    ReportNamingError,
    SentenceSpan,
    Token,
    document_from_text,
    load_abbreviations,
    load_report,
    segment_sentences,
    tokenize,
)
from brieflens.matcher import EntitySpan
from brieflens.pipeline import extract_document
from brieflens.resources import DATA_DIR
from brieflens.store import EventStore

from oracles import naive_segment_sentences, paragraph_document_from_text


def texts_of(tokens):
    return [t.text for t in tokens]


class TestTokenize:
    def test_digits_and_unit(self):
        tokens = tokenize("513 kg")
        assert texts_of(tokens) == ["513", "kg"]
        assert [(t.start_char, t.end_char) for t in tokens] == [(0, 3), (4, 6)]

    def test_hyphen_joins_letter_runs(self):
        assert texts_of(tokenize("twenty-five tusks")) == ["twenty-five", "tusks"]

    def test_hyphen_does_not_join_digits(self):
        assert texts_of(tokenize("2021-04")) == ["2021", "-", "04"]
        assert texts_of(tokenize("3-5 tusks")) == ["3", "-", "5", "tusks"]

    def test_punctuation_is_isolated(self):
        assert texts_of(tokenize("(arrested)")) == ["(", "arrested", ")"]

    def test_lower_is_casefolded(self):
        tokens = tokenize("Gabon SEIZED")
        assert [t.lower for t in tokens] == ["gabon", "seized"]

    def test_empty_text(self):
        assert tokenize("") == []

    @given(st.text(alphabet=string.ascii_letters + string.digits + " .,()-'", max_size=120))
    def test_offsets_are_lossless(self, text):
        tokens = tokenize(text)
        for tok in tokens:
            assert text[tok.start_char : tok.end_char] == tok.text
        covered = set()
        for tok in tokens:
            span = set(range(tok.start_char, tok.end_char))
            assert not (covered & span), "tokens overlap"
            covered |= span
        for i, ch in enumerate(text):
            if ch.isalnum():
                assert i in covered, f"alphanumeric char {ch!r} at {i} missed"


_TOKEN = Token(4, 9, "Ivory", "ivory")
_RECORDS = [
    (_TOKEN, "start_char", 5),
    (SentenceSpan(4, 9, "Ivory", (_TOKEN,)), "end_char", 10),
    (ReportDocument("a-2021-01", 2021, 1, "The Ivory",
                    (SentenceSpan(4, 9, "Ivory", (_TOKEN,)),), ((0, 1),)),
     "month", 2),
    (EntitySpan(4, 9, "Ivory", "PRODUCT", "ivory", 0, 0), "label", "ANIMAL"),
]


@pytest.mark.parametrize(("record", "field", "other"), _RECORDS,
                         ids=[type(r).__name__ for r, _, _ in _RECORDS])
def test_records_are_slotted_values(record, field, other):
    assert not hasattr(record, "__dict__")
    twin = dataclasses.replace(record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert repr(twin) == repr(record)
    changed = dataclasses.replace(record, **{field: other})
    assert getattr(changed, field) == other and changed != record
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, other)


_SHARED_WORDS = st.sampled_from(["Ivory", "ivory", "IVORY", "Straße", "STRASSE", "İstanbul", "kg", "."])


@given(st.lists(st.one_of(st.text(max_size=8), _SHARED_WORDS), max_size=30).map(" ".join))
def test_equal_token_texts_share_one_string(text):
    sentences = document_from_text("a-2021-01", 2021, 1, text).sentences
    for tokens in (tokenize(text), [t for s in sentences for t in s.tokens]):
        first: dict[str, str] = {}
        for tok in tokens:
            assert tok.lower == tok.text.casefold()
            assert tok.text is first.setdefault(tok.text, tok.text)
            if tok.text.casefold() == tok.text:
                assert tok.lower is tok.text


class TestSegmentation:
    def test_two_sentences(self):
        spans = segment_sentences("Seizure in Cameroon. Three arrested.")
        assert len(spans) == 2
        assert spans[0].start_char == 0 and spans[0].end_char == 20

    def test_abbreviation_suppresses_boundary(self):
        spans = segment_sentences("Mr. Smith was arrested.")
        assert len(spans) == 1

    def test_abbreviation_needs_word_boundary(self):
        # "kg." after a space is the abbreviation; inside "Akg." it is not
        assert len(segment_sentences("Weighed 5 kg. Next item came.")) == 1
        assert len(segment_sentences("Saw the Akg. Next item came.")) == 2
        # at the start of the text, and one letter after it
        assert len(segment_sentences("Mr. Smith")) == 1
        assert len(segment_sentences("Akg. Next item came.")) == 2

    def test_lowercase_after_period_does_not_split(self):
        spans = segment_sentences("Seized at 3. 45 kg followed.")
        # digit after the gap: not an uppercase letter, so no boundary
        assert len(spans) == 1

    def test_exclamation_and_question(self):
        spans = segment_sentences("Stop! Who goes there? Nobody.")
        assert len(spans) == 3

    def test_trailing_text_without_terminator(self):
        spans = segment_sentences("One sentence. trailing fragment")
        assert len(spans) == 1  # lowercase 't' vetoes the boundary
        spans = segment_sentences("One sentence. Trailing fragment")
        assert len(spans) == 2

    def test_custom_abbreviations(self):
        text = "Approx. Five skins."
        assert len(segment_sentences(text, abbreviations=())) == 2
        assert len(segment_sentences(text, abbreviations=("Approx.",))) == 1

    def test_blank_line_ends_sentence(self):
        text = "In Gabon two tusks were seized\n\nRangers in Togo arrested 3 men."
        spans = segment_sentences(text)
        assert [text[s.start_char : s.end_char] for s in spans] == [
            "In Gabon two tusks were seized",
            "Rangers in Togo arrested 3 men.",
        ]

    @pytest.mark.parametrize(
        "gap,count",
        [("\n\n", 2), ("\r\n \r\n", 2), ("\n\t\x0b", 2), ("\x85\u2028", 2), ("\r\r", 2),
         ("\r\n", 1), (" \n ", 1), ("\x1c\t", 1), ("\x1f\x1f", 1)],
    )
    def test_a_whole_blank_line_ends_sentence(self, gap, count):
        assert len(segment_sentences(f"Mr.{gap}lower case")) == count


class TestDocument:
    def test_sentences_ordered_and_in_bounds(self, make_doc):
        doc = make_doc("First sentence. Second one here.\n\nThird in new paragraph.")
        assert len(doc.sentences) == 3
        previous_end = 0
        for sentence in doc.sentences:
            assert previous_end <= sentence.start_char < sentence.end_char
            assert sentence.end_char <= len(doc.raw_text)
            previous_end = sentence.end_char

    def test_paragraphs_split_on_blank_lines(self, make_doc):
        doc = make_doc("Alpha beta.\nGamma delta.\n\nNew paragraph here.\n")
        assert len(doc.sentences) == 3
        assert doc.paragraphs == ((0, 2), (2, 3))

    def test_sentences_never_cross_paragraphs(self, make_doc):
        # no terminator before the blank line: the break still ends the sentence
        doc = make_doc("dangling start\n\nSecond paragraph.")
        assert [doc.raw_text[s.start_char : s.end_char] for s in doc.sentences] == [
            "dangling start",
            "Second paragraph.",
        ]
        assert doc.paragraphs == ((0, 1), (1, 2))

    def test_single_newline_keeps_paragraph(self, make_doc):
        doc = make_doc("Senegal operations continued.\nTwo leopard skins were seized.\n")
        assert len(doc.sentences) == 2
        assert doc.paragraphs == ((0, 2),)

    @pytest.mark.parametrize("text", ["", " \n\n\t", "\u2028"])
    def test_no_text_no_paragraphs(self, make_doc, text):
        doc = make_doc(text)
        assert doc.sentences == () and doc.paragraphs == ()

    def test_abbreviation_with_a_line_break_reaches_across_it(self):
        # abbreviations are matched against the whole text, so this one
        # keeps "x." from ending a sentence, while the blank line still does
        doc = document_from_text("t-2021-01", 2021, 1, "Alpha.\n\nx. Beta", ("\nx.",))
        assert [doc.raw_text[s.start_char : s.end_char] for s in doc.sentences] == [
            "Alpha.",
            "x. Beta",
        ]
        assert doc.paragraphs == ((0, 1), (1, 2))

    def test_token_slices_reconstruct(self, make_doc):
        text = "In Gabon, three traffickers were arrested."
        doc = make_doc(text)
        for sentence in doc.sentences:
            for tok in sentence.tokens:
                assert doc.raw_text[tok.start_char : tok.end_char] == tok.text


class TestLoadReport:
    def test_good_filename(self, tmp_path):
        path = tmp_path / "eastern-2021-04.txt"
        path.write_text("Officials in Togo acted.\n", encoding="utf-8")
        doc = load_report(path)
        assert doc.report_id == "eastern-2021-04"
        assert (doc.year, doc.month) == (2021, 4)
        assert len(doc.sentences) == 1

    def test_source_names_with_dashes(self, tmp_path):
        path = tmp_path / "west-africa-2020-11.txt"
        path.write_text("x\n", encoding="utf-8")
        doc = load_report(path)
        assert doc.report_id == "west-africa-2020-11"
        assert (doc.year, doc.month) == (2020, 11)

    def test_december(self, tmp_path):
        path = tmp_path / "x-2021-12.txt"
        path.write_text("In Gabon, two elephant tusks were seized.\n", encoding="utf-8")
        doc = load_report(path)
        assert (doc.year, doc.month) == (2021, 12)
        assert main(["extract", str(path), "--store", str(tmp_path / "e.db")]) == 0
        with EventStore(tmp_path / "e.db") as store:
            assert store.report_date("x-2021-12") == (2021, 12)
            assert [(e.year, e.month) for e in store.events()] == [(2021, 12)]

    def test_bad_filename(self, tmp_path):
        path = tmp_path / "nodate.txt"
        path.write_text("x\n", encoding="utf-8")
        with pytest.raises(ReportNamingError):
            load_report(path)

    def test_month_out_of_range(self, tmp_path):
        for month in ("00", "13"):
            path = tmp_path / f"demo-2021-{month}.txt"
            path.write_text("x\n", encoding="utf-8")
            with pytest.raises(ReportNamingError):
                load_report(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "demo-2021-01.txt"
        path.write_bytes(b"\xff\xfe broken")
        with pytest.raises(ReportEncodingError, match=r"^\S*demo-2021-01\.txt: not valid UTF-8: "):
            load_report(path)

    def test_byte_order_mark_at_the_start(self, tmp_path, shipped_matcher):
        text = "\n\nIn Gabon, two elephant tusks were seized.\n\nPolice arrested 3 men in Togo.\n"
        loaded = {}
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf"), ("two", b"\xef\xbb\xbf" * 2)):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "x-2021-01.txt"
            path.write_bytes(prefix + text.encode("utf-8"))
            loaded[name] = load_report(path)
        # same text, tokens, offsets and paragraphs, so the same events
        assert loaded["bom"] == loaded["plain"]
        assert extract_document(loaded["bom"], shipped_matcher) == extract_document(
            loaded["plain"], shipped_matcher
        )
        # only one mark is dropped: a second is text
        assert loaded["two"].raw_text == "\ufeff" + text


class TestAbbreviationFile:
    def test_load_skips_comments_and_appends_period(self, tmp_path):
        path = tmp_path / "abbr.txt"
        path.write_text("# comment\nMr.\n\nApprox\n", encoding="utf-8")
        assert load_abbreviations(path) == ("Mr.", "Approx.")

    def test_byte_order_mark_at_the_start(self, tmp_path):
        plain = DATA_DIR / "abbreviations.txt"
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_abbreviations(bom) == load_abbreviations(plain)

    def test_byte_order_mark_elsewhere_is_kept(self, tmp_path):
        path = tmp_path / "abbr.txt"
        path.write_bytes("\ufeffMr.\n\ufeffDr.\nNo\ufeff.\n".encode("utf-8-sig"))
        assert load_abbreviations(path) == ("\ufeffMr.", "\ufeffDr.", "No\ufeff.")

    def test_defaults_are_period_terminated(self):
        assert all(a.endswith(".") for a in DEFAULT_ABBREVIATIONS)

    def test_defaults_match_shipped_file(self):
        assert load_abbreviations(DATA_DIR / "abbreviations.txt") == DEFAULT_ABBREVIATIONS


def test_regex_whitespace_is_str_isspace():
    # segment_sentences reads a gap between tokens as whitespace, which holds
    # only while the tokenizer's regex and str.isspace() agree on whitespace
    whitespace = re.compile(r"\s")
    assert [
        cp for cp in range(sys.maxunicode + 1)
        if (whitespace.match(chr(cp)) is not None) != chr(cp).isspace()
    ] == []


_SEGMENT_PIECES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        [
            ".", "!", "?", "...", "A", "Ä", "Σ", "Д", "Ա", "Ǆ", "ǅ", "ß", "a", "σ", "7",
            " ", "\n", "\t", "\x1c", "\x85", "\u2028", "\u3000", "\u00a0", "\u200b",
            "e.g.", "E.g.", "U.S.", "Mr.", "kg.", "No.", "-", "twenty-five",
        ]
    ),
)
_ABBREVIATION_LISTS = st.one_of(
    st.just(DEFAULT_ABBREVIATIONS),
    st.lists(
        st.one_of(
            st.sampled_from(["e.g.", "i.e.", "U.S.", "a.b.c.", ".", "..", "Mr.", "x."]),
            st.text(max_size=4).map(lambda t: t + "."),
        ),
        max_size=4,
    ),
)


@given(st.lists(_SEGMENT_PIECES, max_size=30).map("".join), _ABBREVIATION_LISTS)
def test_segmentation_matches_the_character_oracle(text, abbreviations):
    assert segment_sentences(text, abbreviations) == naive_segment_sentences(text, abbreviations)


@given(st.lists(_SEGMENT_PIECES, max_size=30).map("".join), _ABBREVIATION_LISTS)
def test_library_and_document_segment_alike(text, abbreviations):
    doc = document_from_text("fuzz-2021-01", 2021, 1, text, abbreviations)
    assert tuple(segment_sentences(text, abbreviations)) == doc.sentences


@given(
    st.lists(
        st.sampled_from(["Rangers acted", "Five skins moved", "Patrols went north"]),
        min_size=1,
        max_size=5,
    )
)
def test_segmentation_idempotent_without_abbreviations(parts):
    text = ". ".join(parts) + "."
    first = segment_sentences(text, abbreviations=())
    rejoined = " ".join(text[s.start_char : s.end_char] for s in first)
    second = segment_sentences(rejoined, abbreviations=())
    assert [rejoined[s.start_char : s.end_char] for s in second] == [
        text[s.start_char : s.end_char] for s in first
    ]


_DOC_PIECES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        [
            "Rangers", "In Gabon", "Côte d'Ivoire", "elephant tusks", "Two pangolins",
            "ivory", "513 kg", "0 kg", "zero", "0", "1,200", "twenty-five", "three hundred",
            "arrested", "Three traffickers were arrested", "Mr.", "İstanbul", "ß", ".", "?",
        ]
    ),
)
# every line boundary of str.splitlines, which decides what a blank line is
_LINE_BREAKS = (
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)


def test_line_breaks_are_every_splitlines_boundary():
    single = [chr(cp) for cp in range(sys.maxunicode + 1) if len(f"a{chr(cp)}b".splitlines()) == 2]
    assert sorted(single + ["\r\n"]) == sorted(_LINE_BREAKS)


@given(
    st.lists(
        st.tuples(
            _DOC_PIECES,
            st.lists(st.sampled_from(_LINE_BREAKS + (" ", "\t", ". ")), max_size=4).map("".join),
        ),
        max_size=30,
    ),
    _ABBREVIATION_LISTS.map(lambda abbrs: tuple(a for a in abbrs if a.splitlines() == [a])),
)
def test_document_matches_the_per_paragraph_reference(parts, abbreviations):
    text = "".join(piece + separator for piece, separator in parts)
    sentences, paragraphs = paragraph_document_from_text(text, abbreviations)
    doc = document_from_text("fuzz-2021-01", 2021, 1, text, abbreviations)
    assert doc.sentences == tuple(sentences)
    assert doc.paragraphs == tuple(paragraphs)


_DOC_SEPARATORS = st.sampled_from(
    ["\r\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85", " ", ". ",
     "\n\n", "\r\n\r\n", "\n \t\n", "\r\r"]
)


@given(st.lists(st.tuples(_DOC_PIECES, _DOC_SEPARATORS), max_size=40))
def test_document_invariants_on_arbitrary_text(shipped_matcher, parts):
    text = "".join(piece + separator for piece, separator in parts)
    doc = document_from_text("fuzz-2021-01", 2021, 1, text)
    for sentence in doc.sentences:
        for token in sentence.tokens:
            assert text[token.start_char : token.end_char] == token.text
    # the paragraphs are non-empty and cover the sentences in order
    bounds = [0] + [end for _, end in doc.paragraphs]
    assert [first for first, _ in doc.paragraphs] == bounds[:-1]
    assert bounds[-1] == len(doc.sentences)
    assert all(first < end for first, end in doc.paragraphs)
    events = extract_document(doc, shipped_matcher)
    with EventStore() as store:
        store.register_report(doc.report_id, doc.year, doc.month)
        assert store.ingest(events) == len(events)
        assert len(store.events()) == len(events)
