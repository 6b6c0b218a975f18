"""Phrase matching against the brute-force leftmost-longest oracle."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from brieflens.corpus import ReportDocument, SentenceSpan, Token, document_from_text, tokenize
from brieflens.lexicon import Lexicon, LexiconError, load_lexicon, merge_lexicons, pluralize
from brieflens.matcher import (
    CARDINAL,
    EntitySpan,
    compile_lexicon,
    find_entities,
    merge_spans,
)
from brieflens.measures import numeric_spans
from brieflens.resources import default_lexicon_paths

from oracles import (
    first_token_lengths,
    naive_leftmost_longest,
    naive_load_lexicon,
    naive_merge_spans,
    random_matcher_case,
    tokenized_phrase_table,
)


def doc_of(text: str):
    return document_from_text("case-2021-01", 2021, 1, text)


class TestCompile:
    def test_empty_lexicon_matches_nothing(self):
        matcher = compile_lexicon(Lexicon.from_rows([]))
        assert find_entities(doc_of("elephant tusks everywhere"), matcher) == []

    def test_case_insensitive(self):
        matcher = compile_lexicon(Lexicon.from_rows([("elephant", "ANIMAL", "")]))
        for text in ("Elephant", "ELEPHANT", "elephant"):
            spans = find_entities(doc_of(text), matcher)
            assert [s.canonical for s in spans] == ["elephant"]

    def test_version_carried(self):
        lexicon = Lexicon.from_rows([("tusk", "PRODUCT", "")])
        assert compile_lexicon(lexicon).lexicon_version == lexicon.version

    def test_shipped_table_matches_tokenize(self, shipped_matcher):
        # the loader oracle keys each shipped surface by its tokenize lowers
        expected = {}
        for path in default_lexicon_paths().values():
            expected.update(naive_load_lexicon(path).entries)
        assert shipped_matcher.phrases == expected
        assert shipped_matcher.first_token_lengths == first_token_lengths(expected)

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=12),
                st.sampled_from(["Sea Turtle", "twenty-five", "3-5", "Côte d'Ivoire",
                                 "İstanbul", "STRAẞE", "a_b", "  ", "rhino  horn"]),
            ),
            max_size=12,
        )
    )
    def test_random_table_matches_tokenize(self, surfaces):
        # one pair per phrase, so surfaces that tokenize alike agree
        rows = [(s, "ANIMAL", phrase_of(s)) for s in surfaces if phrase_of(s)]
        assert_table_matches_tokenize(rows)


def phrase_of(surface: str) -> str:
    """The phrase ``surface`` tokenizes to, written with single spaces."""
    return " ".join(tok.lower for tok in tokenize(surface))


def assert_table_matches_tokenize(rows: list[tuple[str, str, str]]):
    """Build ``rows`` and check the table against the oracle; the lexicon, or None if rejected.

    ``from_rows`` keys each surface by ``match_key``, which must be what
    ``tokenize`` gives, so surfaces match exactly where document tokens do.
    """
    try:
        expected = tokenized_phrase_table(rows)
    except LexiconError as exc:
        with pytest.raises(LexiconError, match=f"^{re.escape(str(exc))}$"):
            Lexicon.from_rows(rows)
        return None
    lexicon = Lexicon.from_rows(rows)
    assert lexicon.entries == expected
    matcher = compile_lexicon(lexicon)
    assert matcher.phrases == expected
    assert matcher.first_token_lengths == first_token_lengths(expected)
    return lexicon


# Phrases of 1-4 tokens that share first tokens, with punctuation, hyphens,
# case folding that changes length ("ß", "İ") and arbitrary Unicode words.
_FIRST_WORDS = st.sampled_from(["sea", "Sea", "big", "côte", "twenty-five", "3", "İ", "ß", "-"])
_LATER_WORDS = st.one_of(
    st.sampled_from(["turtle", "five", "d'ivoire", "-", ",", "horn", "ss", "SS", "3-5", "a_b"]),
    st.text(min_size=1, max_size=4),
)
_PHRASES = st.builds(
    lambda first, rest: " ".join([first, *rest]), _FIRST_WORDS, st.lists(_LATER_WORDS, max_size=3)
)
_SPACES = st.sampled_from([" ", "  ", ". ", ", ", "\n", "-"])


@given(
    st.dictionaries(
        st.one_of(_PHRASES, st.text(max_size=6)),
        st.sampled_from(["ANIMAL", "PRODUCT", "COUNTRY"]),
        min_size=1,
        max_size=10,
    ),
    st.data(),
)
def test_first_token_index_matches_the_oracle(labels, data):
    # the first label drawn for a phrase is every one of its surfaces' label
    label_of: dict[str, str] = {}
    rows = [
        (s, label_of.setdefault(phrase_of(s), label), phrase_of(s))
        for s, label in labels.items()
        if phrase_of(s)
    ]
    lexicon = assert_table_matches_tokenize(rows)
    assume(lexicon is not None)  # two surfaces whose plurals are one phrase
    matcher = compile_lexicon(lexicon)
    pieces = st.one_of(st.sampled_from(sorted(labels)), _FIRST_WORDS, _LATER_WORDS)
    parts = data.draw(st.lists(st.tuples(pieces, _SPACES), max_size=20))
    doc = doc_of("".join(piece + space for piece, space in parts))
    assert find_entities(doc, matcher) == naive_leftmost_longest(doc, lexicon)


class TestPhraseCollisions:
    """Surfaces with one match key are one phrase: load and merge reject them unless they agree."""

    def test_surfaces_differing_in_spacing_collide(self):
        with pytest.raises(LexiconError) as exc:
            Lexicon.from_rows(
                [("sea turtle", "ANIMAL", ""), ("sea  turtle", "PRODUCT", "turtle shell")]
            )
        assert str(exc.value) == (
            "surface 'sea  turtle' maps to both ('ANIMAL', 'sea turtle')"
            " (from row 1, as 'sea turtle') and ('PRODUCT', 'turtle shell') (from row 2)"
        )

    def test_collision_in_a_file_named_by_line(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text(
            "surface,label,canonical\nsea turtle,ANIMAL,\n"
            "# a note\nSea  Turtle,PRODUCT,turtle shell\n",
            encoding="utf-8",
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(path)
        assert str(exc.value) == (
            "surface 'Sea  Turtle' maps to both ('ANIMAL', 'sea turtle')"
            " (from lex.csv:2, as 'sea turtle') and ('PRODUCT', 'turtle shell') (from lex.csv:4)"
        )

    def test_collision_across_files(self):
        animals = Lexicon.from_rows([("sea turtle", "ANIMAL", "")])
        products = Lexicon.from_rows([("sea  turtle", "PRODUCT", "turtle shell")])
        with pytest.raises(LexiconError) as exc:
            merge_lexicons([animals, products])
        assert str(exc.value) == (
            "phrase 'sea turtle' maps to both ('ANIMAL', 'sea turtle')"
            " and ('PRODUCT', 'turtle shell') across lexicons"
        )

    def test_agreeing_surfaces_do_not_collide(self):
        rows = [("côte d'ivoire", "COUNTRY", ""), ("côte  d'ivoire", "COUNTRY", "côte d'ivoire")]
        lexicon = Lexicon.from_rows(rows)
        # the four surfaces, singular and plural, are two phrases
        assert sorted(lexicon.entries) == [
            ("côte", "d", "'", "ivoire"), ("côte", "d", "'", "ivoires")
        ]
        assert merge_lexicons([lexicon, Lexicon.from_rows(rows[::-1])]).entries == lexicon.entries
        matcher = compile_lexicon(lexicon)
        for text in ("in côte d'ivoire", "in Côte  d'Ivoire"):
            spans = find_entities(doc_of(text), matcher)
            assert [(s.label, s.canonical) for s in spans] == [("COUNTRY", "côte d'ivoire")]

    def test_shipped_lists_have_none(self, shipped_lexicon):
        # no phrase of the merged table has another pair in any shipped file
        tables = [naive_load_lexicon(path).entries for path in default_lexicon_paths().values()]
        for key, pair in shipped_lexicon.entries.items():
            assert all(table.get(key, pair) == pair for table in tables)

    @given(
        st.lists(
            st.tuples(
                st.one_of(_PHRASES, st.text(alphabet="aAßs -,.", min_size=1, max_size=6)),
                st.sampled_from(["ANIMAL", "PRODUCT"]),
                st.sampled_from(["x", "y", ""]),
            ),
            max_size=10,
        )
    )
    def test_reported_exactly_when_two_rows_disagree(self, rows):
        assert_table_matches_tokenize(rows)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["sea turtle", "Sea  turtle", "turtle", "sea turtles"]),
                      st.sampled_from(["ANIMAL", "PRODUCT"])),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.sampled_from(["sea  turtle", "turtles", "Turtle", "sea"]),
                      st.sampled_from(["ANIMAL", "PRODUCT"])),
            max_size=4,
        ),
    )
    def test_merge_reports_the_first_phrase_two_files_disagree_on(self, first, second):
        # canonicals given, so rows of one phrase differ only in their label
        files = [[(s, label, phrase_of(s)) for s, label in rows] for rows in (first, second)]
        try:
            tables = [tokenized_phrase_table(rows) for rows in files]
        except LexiconError:
            return  # a file that is rejected alone
        lexicons = [Lexicon.from_rows(rows) for rows in files]
        clashes = [key for key, pair in tables[1].items() if tables[0].get(key, pair) != pair]
        if not clashes:
            assert merge_lexicons(lexicons).entries == {**tables[0], **tables[1]}
            return
        key = clashes[0]
        with pytest.raises(LexiconError) as exc:
            merge_lexicons(lexicons)
        assert str(exc.value) == (
            f"phrase {' '.join(key)!r} maps to both {tables[0][key]} and {tables[1][key]}"
            " across lexicons"
        )


# Letters, marks, digits and punctuation, with spaces between: every
# surface of at least one token.
_UNICODE_SURFACES = st.text(
    st.one_of(st.characters(categories=("L", "M", "N", "P")), st.just(" ")),
    min_size=1,
    max_size=12,
).filter(lambda surface: not surface.isspace())


def _one_sentence(text: str, tokens: list[Token]) -> ReportDocument:
    """A document of one sentence holding ``tokens``, built without segmenting."""
    start, end = tokens[0].start_char, tokens[-1].end_char
    sentence = SentenceSpan(start, end, text[start:end], tuple(tokens))
    return ReportDocument("case-2021-01", 2021, 1, text, (sentence,), ((0, 1),))


@seed(15)
@settings(max_examples=300, deadline=None)
@example("İzmir")  # its casefold adds a combining mark
@given(_UNICODE_SURFACES)
def test_any_surface_matches_its_own_tokens(surface):
    matcher = compile_lexicon(Lexicon.from_rows([(surface, "COUNTRY", "")]))
    tokens = tokenize(surface)
    *head, last = tokens
    cases = [(surface, tokens)]
    if last.lower[0].isalnum():
        # the generated plural is the surface with its last token pluralized
        plural = pluralize(last.lower)
        plural_tokens = [*head, Token(last.start_char, last.start_char + len(plural), plural, plural)]
        cases.append((surface[: last.start_char] + plural, plural_tokens))
    else:
        # a punctuation token is always its own token, so it gets no plural
        assert list(matcher.phrases) == [tuple(tok.lower for tok in tokens)]
    for text, toks in cases:
        spans = find_entities(_one_sentence(text, toks), matcher)
        assert [(s.first_token, s.last_token, s.label, s.canonical) for s in spans] == [
            (0, len(toks) - 1, "COUNTRY", surface.casefold())
        ]


class TestFindEntities:
    def test_longest_phrase_wins(self):
        lexicon = Lexicon.from_rows([("turtle", "ANIMAL", ""), ("sea turtle", "ANIMAL", "")])
        spans = find_entities(doc_of("a sea turtle"), lexicon_matcher := compile_lexicon(lexicon))
        assert [(s.text, s.label) for s in spans] == [("sea turtle", "ANIMAL")]
        # the shorter term still matches on its own
        spans = find_entities(doc_of("a turtle"), lexicon_matcher)
        assert [s.text for s in spans] == ["turtle"]

    def test_adjacent_entities(self, small_lexicon):
        matcher = compile_lexicon(small_lexicon)
        spans = find_entities(doc_of("seized elephant ivory"), matcher)
        assert [(s.text, s.label) for s in spans] == [
            ("elephant", "ANIMAL"),
            ("ivory", "PRODUCT"),
        ]

    def test_surface_whose_casefold_adds_a_mark(self):
        # "İ" casefolds to "i" and a combining dot, which is no letter
        matcher = compile_lexicon(Lexicon.from_rows([("İzmir", "COUNTRY", "")]))
        spans = find_entities(doc_of("Seized in İzmir today."), matcher)
        assert [(s.text, s.label, s.canonical) for s in spans] == [
            ("İzmir", "COUNTRY", "i\u0307zmir")
        ]

    def test_no_match_inside_words(self):
        matcher = compile_lexicon(Lexicon.from_rows([("scale", "PRODUCT", "")]))
        assert find_entities(doc_of("the situation escalates quickly"), matcher) == []

    def test_empty_text(self, small_lexicon):
        assert find_entities(doc_of(""), compile_lexicon(small_lexicon)) == []

    def test_plural_surface_keeps_singular_canonical(self, small_lexicon):
        matcher = compile_lexicon(small_lexicon)
        spans = find_entities(doc_of("two tusks"), matcher)
        assert [(s.text, s.canonical) for s in spans] == [("tusks", "tusk")]

    def test_offsets_slice_raw_text(self, small_lexicon):
        doc = doc_of("Gabon reported elephant ivory")
        for span in find_entities(doc, compile_lexicon(small_lexicon)):
            assert doc.raw_text[span.start_char : span.end_char] == span.text

    def test_spans_sorted_and_disjoint(self, shipped_matcher, make_doc):
        doc = make_doc("Elephant ivory and pangolin scales were found in Gabon.")
        spans = find_entities(doc, shipped_matcher)
        for left, right in zip(spans, spans[1:]):
            assert left.end_char <= right.start_char


class TestOracleEquivalence:
    def test_thousand_random_cases(self):
        rng = random.Random(20210406)
        for _ in range(1000):
            lexicon, text = random_matcher_case(rng)
            doc = doc_of(text)
            fast = find_entities(doc, compile_lexicon(lexicon))
            slow = naive_leftmost_longest(doc, lexicon)
            assert fast == slow

    def test_deterministic(self):
        rng = random.Random(7)
        lexicon, text = random_matcher_case(rng)
        doc = doc_of(text)
        matcher = compile_lexicon(lexicon)
        assert find_entities(doc, matcher) == find_entities(doc, matcher)


class TestMergeSpans:
    def _cardinal(self, start, end, text="3", value="3", tokens=(0, 0)):
        return EntitySpan(start, end, text, CARDINAL, value, *tokens)

    def test_union_with_empty(self):
        numeric = [self._cardinal(0, 1)]
        assert merge_spans([], numeric) == numeric

    def test_lexical_wins_on_overlap(self):
        lexical = [EntitySpan(0, 8, "elephant", "ANIMAL", "elephant", 0, 0)]
        numeric = [self._cardinal(0, 8, "elephant", "8")]
        assert merge_spans(lexical, numeric) == lexical

    def test_disjoint_union_sorted(self):
        lexical = [EntitySpan(10, 14, "tusk", "PRODUCT", "tusk", 2, 2)]
        numeric = [self._cardinal(0, 1)]
        merged = merge_spans(lexical, numeric)
        assert [s.start_char for s in merged] == [0, 10]


# Surfaces that share tokens with the number grammar ("big five", "two
# tusks", "kg bag"), so lexical and numeric spans overlap from either side
# and the merge must drop some.
_FUZZ_MATCHER = compile_lexicon(
    Lexicon.from_rows(
        [
            ("elephant", "ANIMAL", ""),
            ("sea turtle", "ANIMAL", ""),
            ("big five", "ANIMAL", ""),
            ("hundred", "ANIMAL", ""),
            ("ivory", "PRODUCT", ""),
            ("two tusk", "PRODUCT", ""),
            ("kg bag", "PRODUCT", ""),
            ("gabon", "COUNTRY", ""),
            ("côte d'ivoire", "COUNTRY", ""),
        ]
    )
)
_FUZZ_PIECES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        [
            "Elephant", "sea turtle", "Big five", "five hundred", "ivory", "Two tusks",
            "two", "3 kg bag", "kg", "hundred", "and", "twenty-five", "1,200", "0",
            "tons", "Gabon", "Côte d'Ivoire", "arrested", "Mr.", "İstanbul", "ß",
        ]
    ),
)
_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\r\n", "\n\n", "\r\n \r\n", ". ", ", "])


@given(st.lists(st.tuples(_FUZZ_PIECES, _SEPARATORS), max_size=40))
def test_spans_carry_their_token_range(parts):
    doc = doc_of("".join(piece + separator for piece, separator in parts))
    lexical = find_entities(doc, _FUZZ_MATCHER)
    numeric = [span for sentence in doc.sentences for span in numeric_spans(sentence)]
    merged = merge_spans(lexical, numeric)
    for span in lexical + numeric + merged:
        sentence = next(s for s in doc.sentences if s.start_char <= span.start_char < s.end_char)
        assert 0 <= span.first_token <= span.last_token < len(sentence.tokens)
        assert sentence.tokens[span.first_token].start_char == span.start_char
        assert sentence.tokens[span.last_token].end_char == span.end_char
    assert all(left.end_char <= right.start_char for left, right in zip(merged, merged[1:]))
    assert merged == naive_merge_spans(lexical, numeric)


# Lexicon words, digit and word numbers and units, joined by any whitespace,
# not only one space: every span's text must still be its source slice.
_SLICE_PIECES = st.sampled_from(
    [
        "Elephant", "sea", "turtle", "ivory", "kg", "bag", "seized.", "Gabon.", "1,200",
        "12.5", "3", "0", "two", "hundred", "and", "twenty-five", "thousand", "tons", "lbs",
    ]
)
_WHITESPACE = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u202f"])


@given(st.lists(st.tuples(_SLICE_PIECES, _WHITESPACE), max_size=30))
def test_every_span_is_a_source_slice(parts):
    doc = doc_of("".join(piece + separator for piece, separator in parts))
    for sentence in doc.sentences:
        assert sentence.text == doc.raw_text[sentence.start_char : sentence.end_char]
    numeric = [span for sentence in doc.sentences for span in numeric_spans(sentence)]
    for span in find_entities(doc, _FUZZ_MATCHER) + numeric:
        assert span.text == doc.raw_text[span.start_char : span.end_char]
