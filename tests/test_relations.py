"""Relations between the extractor's outputs on related briefs.

The assembler's docstring promises locality: every rule looks only inside
its sentence, except the paragraph-fallback country, and every distance is
counted in tokens.  Each test here edits a generated brief in a way that
promise says is harmless, and checks that the events change exactly as it
says, with no oracle: joining two briefs, reordering paragraphs, inserting
a sentence that holds nothing the extractor reads, and swapping two
one-token surfaces of one label.  A rule that breaks locality breaks one of
these, and a change meant to do so must change the relation too.

Briefs are drawn from the shipped lexicon's surfaces (none holds a
sentence terminator), numbers in digits and words, weight units, arrest
lexemes and filler words.  Every sentence starts with a capital and ends
with "today.", so no abbreviation such as "kg." can keep it from ending,
and ``extract`` checks that the document has the drawn sentences and
paragraphs.
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings, strategies as st

from brieflens.assembler import ARREST_LEXEMES
from brieflens.corpus import document_from_text
from brieflens.lexicon import ANIMAL, COUNTRY, PRODUCT, pluralize
from brieflens.matcher import find_entities
from brieflens.measures import WEIGHT_UNIT_TOKENS, numeric_spans
from brieflens.pipeline import extract_document

from oracles import spell_number

FILLER = ("of", "and", "were", "seized", "in", "from", "with", "police", "at", "the", ",")
# words that match no surface, number, unit or arrest lexeme; each test
# checks that the sentences it builds from them stay that way
NEUTRAL = ("the", "team", "left", "area", "quietly", "after", "dark", "a", "report", "was", "filed")
FIELD = {ANIMAL: "species", PRODUCT: "product", COUNTRY: "country"}


@pytest.fixture(scope="module")
def surfaces(shipped_lexicon):
    """Per label, every shipped key as text."""
    texts = defaultdict(list)
    for key, (label, _) in sorted(shipped_lexicon.entries.items()):
        texts[label].append(" ".join(key))
    return texts


def words(surfaces):
    """One drawn item: a surface of each label as often as a number or a filler word."""
    number = st.integers(0, 2000)
    return st.one_of(
        *(st.sampled_from(surfaces[label]) for label in sorted(FIELD)),
        number.map(str),
        number.map(lambda n: f"{n:,}"),
        st.builds(spell_number, number, st.booleans()),
        st.sampled_from(sorted(WEIGHT_UNIT_TOKENS)),
        st.sampled_from(sorted(ARREST_LEXEMES)),
        st.sampled_from(FILLER),
    )


def briefs(surfaces, extra=()):
    """Paragraphs of sentences of drawn items; half the items are ``extra``, if given."""
    word = st.one_of(st.sampled_from(extra), words(surfaces)) if extra else words(surfaces)
    sentence = st.lists(word, max_size=10)
    return st.lists(st.lists(sentence, min_size=1, max_size=4), min_size=1, max_size=4)


def render(paragraphs):
    return "\n\n".join(
        " ".join(" ".join(["Officers", *sentence, "today."]) for sentence in paragraph)
        for paragraph in paragraphs
    ) + "\n"


def extract(paragraphs, matcher):
    doc = document_from_text("r-2021-01", 2021, 1, render(paragraphs))
    # the generator's sentences and paragraphs are the document's
    assert [b - a for a, b in doc.paragraphs] == [len(p) for p in paragraphs]
    return extract_document(doc, matcher)


def by_paragraph(paragraphs, events):
    """Each paragraph's events, in order, numbered by sentence within it."""
    starts = list(itertools.accumulate(map(len, paragraphs), initial=0))
    groups = [[] for _ in paragraphs]
    last = 0
    for event in events:
        p = bisect.bisect_right(starts, event.sentence_index) - 1
        assert p >= last  # events come in paragraph order
        last = p
        groups[p].append(replace(event, sentence_index=event.sentence_index - starts[p]))
    return groups


def shifted(events, by, from_index=0):
    return [
        replace(e, sentence_index=e.sentence_index + by) if e.sentence_index >= from_index else e
        for e in events
    ]


@seed(181)
@settings(max_examples=45, deadline=None)
@given(data=st.data())
def test_join(data, surfaces, shipped_matcher):
    # two briefs joined by a blank line: A's events, then B's, shifted by A's sentences
    a, b = data.draw(briefs(surfaces)), data.draw(briefs(surfaces))
    a_events, b_events = extract(a, shipped_matcher), extract(b, shipped_matcher)
    n_sentences = sum(map(len, a))
    assert extract(a + b, shipped_matcher) == a_events + shifted(b_events, n_sentences)


@seed(182)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shuffle(data, surfaces, shipped_matcher):
    # reordering paragraphs reorders their events and changes nothing else
    paragraphs = data.draw(briefs(surfaces))
    order = data.draw(st.permutations(range(len(paragraphs))))
    groups = by_paragraph(paragraphs, extract(paragraphs, shipped_matcher))
    shuffled = [paragraphs[i] for i in order]
    assert by_paragraph(shuffled, extract(shuffled, shipped_matcher)) == [groups[i] for i in order]


@seed(183)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_neutral_insert(data, surfaces, shipped_matcher):
    # a sentence with nothing the extractor reads, inserted anywhere, moves
    # only later sentence indices
    paragraphs = data.draw(briefs(surfaces))
    neutral = data.draw(st.lists(st.sampled_from(NEUTRAL), max_size=8))
    doc = document_from_text("n-2021-01", 2021, 1, render([[neutral]]))
    assert not find_entities(doc, shipped_matcher) and not numeric_spans(doc.sentences[0])
    assert not {tok.lower for tok in doc.sentences[0].tokens} & ARREST_LEXEMES
    events = extract(paragraphs, shipped_matcher)
    index = 0
    for p, paragraph in enumerate(paragraphs):
        for at in range(len(paragraph) + 1):
            inserted = [*paragraphs[:p], [*paragraph[:at], neutral, *paragraph[at:]], *paragraphs[p + 1:]]
            assert extract(inserted, shipped_matcher) == shifted(events, 1, from_index=index + at)
        index += len(paragraph)


@pytest.fixture(scope="module")
def renamable(shipped_lexicon):
    """Per label, the canonicals whose every surface is one token in no longer key.

    Each canonical maps to ``(singular, plural)``, its only two keys
    (one when the plural is the singular), so that swapping two of them in
    the text changes no other span.  A surface of two tokens would shift
    every later token distance in its sentence, so it is never drawn.
    """
    forms = defaultdict(set)
    for key, pair in shipped_lexicon.entries.items():
        forms[pair].add(key)
    in_longer_keys = {tok for key in shipped_lexicon.entries if len(key) > 1 for tok in key}
    pools = defaultdict(dict)
    for (label, canonical), keys in sorted(forms.items()):
        singular, plural = canonical, pluralize(canonical)
        if keys != {(singular,), (plural,)}:
            continue
        if {singular, plural} & (in_longer_keys | WEIGHT_UNIT_TOKENS | ARREST_LEXEMES):
            continue
        if any(numeric_spans(document_from_text("w-2021-01", 2021, 1, w).sentences[0])
               for w in (singular, plural)):
            continue
        pools[label][canonical] = (singular, plural)
    assert all(len(pools[label]) >= 2 for label in FIELD)
    return pools


@seed(184)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rename(data, surfaces, renamable, shipped_matcher):
    # swapping two one-token surfaces of one label in the text swaps that
    # field and nothing else; each canonical in the brief is swapped with
    # the next, and the last with a drawn one
    label = data.draw(st.sampled_from(sorted(FIELD)))
    pool = renamable[label]
    paragraphs = data.draw(briefs(surfaces, extra=sorted({w for ws in pool.values() for w in ws})))
    used = {w for paragraph in paragraphs for sentence in paragraph for w in sentence}
    present = [c for c, forms in pool.items() if used & set(forms)]
    drawn = data.draw(st.sampled_from(sorted(pool)))
    events = extract(paragraphs, shipped_matcher)
    field = FIELD[label]
    for a, b in itertools.pairwise(dict.fromkeys([*present, drawn])):
        swap = {}
        for x, y in zip(pool[a], pool[b]):
            swap.setdefault(x, y)
            swap.setdefault(y, x)
        renamed = [[[swap.get(w, w) for w in s] for s in paragraph] for paragraph in paragraphs]
        expected = [
            replace(e, **{field: {a: b, b: a}.get(getattr(e, field), getattr(e, field))})
            for e in events
        ]
        assert extract(renamed, shipped_matcher) == expected, (a, b)
