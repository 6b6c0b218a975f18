"""One digest pins what extraction outputs.

It is taken over a text rendering of the events of every fixture brief,
of ``numeric_spans`` and ``parse_weights`` on seeded random sentences of
digits, thousands groups, decimal points, units, number words and filler
words, and of ``assemble`` on seeded random briefs under random windows,
each corpus led by a few hand-picked edge inputs.  The rendering runs
sentence segmentation, matching against the shipped lexicon, the number
reader and the assembler, so a change to what any of them outputs on
these inputs changes the digest.  A change meant to change extraction
re-records it (the failing assertion prints the new digest) and says so
in CHANGES.md; to see what changed first, diff ``rendering(matcher)`` at
the parent commit against the change.  ``random.Random``
draws alike on every supported Python.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

from brieflens.assembler import HeuristicConfig, assemble
from brieflens.corpus import (
    DEFAULT_ABBREVIATIONS,
    SentenceSpan,
    document_from_text,
    load_report,
    tokenize,
)
from brieflens.matcher import CompiledMatcher, find_entities, merge_spans
from brieflens.measures import WEIGHT_UNIT_TOKENS, numeric_spans, parse_weights
from brieflens.pipeline import extract_document

PINNED = "03541fae3cb2c7a4957827d2f428b2b74f677ec2d4249a4482ec84b7640240ef"

BRIEFS_DIR = Path(__file__).parent / "fixtures" / "briefs"
SEED = 31
SENTENCES = 3000
BRIEFS = 1000

# pieces of a sentence for the number reader, each written against the next
# piece or followed by one space
_DIGITS = "0123456789٣"  # U+0663 is a decimal digit of another script
_GLUED_UNITS = ("kg", "KG", "lbs", "t", "kgs")
_NUMBER_WORDS = ("zero", "five", "twenty", "twenty-five", "hundred", "and", "thousand")
_FILLER = ("tusks", "of", "ivory", "were", "seized", "Gabon")
# the number grammar's edges: an overflow with a fraction, zero weights, a
# glued decimal unit, groups with a fraction, "hundred and" with no number
# after it, "zero thousand" and MAX_NUMBER in words
READER_EDGES = (
    "1,000,000.5 kg",
    "12.5kg and 0.0 KG",
    "In 7.25T",
    "3,200.5 Lbs",
    "two hundred and men",
    "two hundred and",
    "one thousand and five",
    "eleven hundred",
    "zero thousand",
    "nine hundred and ninety-nine thousand nine hundred and ninety-nine",
)

# words of a brief for the assembler
_WORDS = (
    "elephant", "pangolins", "African elephant", "leopard",
    "tusks", "ivory", "skins", "scales", "horn",
    "0", "1", "2", "12", "1,200", "zero", "one", "three",
    "5kg", "12.5kg", "2.5", "kg", "tons",
    "Gabon", "Togo", "Central African Republic",
    "arrested", "detained", ",",
    "and", "of", "the", "with", "were", "seized",
)
# the product's cardinal before the species', and a country for an arrest-only event
ASSEMBLER_EDGES = (
    "Officers seized 2 elephant 3 tusks.",
    "In Gabon, rangers and officers from Togo arrested 3 suspects.",
)


def _digits(rng: random.Random) -> str:
    return "".join(rng.choice(_DIGITS) for _ in range(rng.randint(1, 7)))


def _piece(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return _digits(rng)
    if kind == 1:
        return "".join(rng.choice("0123456789") for _ in range(3))
    if kind == 2:
        return rng.choice(",.")
    if kind == 3:
        return _digits(rng) + rng.choice(_GLUED_UNITS)
    if kind == 4:
        unit = rng.choice(sorted(WEIGHT_UNIT_TOKENS))
        return "".join(rng.choice((c, c.upper())) for c in unit)
    return rng.choice(_NUMBER_WORDS if kind == 5 else _FILLER)


def reader_sentences(rng: random.Random) -> list[str]:
    """The number reader's inputs: the edges, then ``SENTENCES`` random sentences."""
    sentences = list(READER_EDGES)
    for _ in range(SENTENCES):
        pieces = [_piece(rng) + rng.choice(("", " ")) for _ in range(rng.randint(0, 14))]
        sentences.append("".join(pieces))
    return sentences


def assembler_briefs(rng: random.Random) -> list[tuple[str, HeuristicConfig]]:
    """The assembler's inputs: the edges, then ``BRIEFS`` random briefs, each with its windows."""
    briefs = [(text, HeuristicConfig()) for text in ASSEMBLER_EDGES]
    for _ in range(BRIEFS):
        paragraphs = [
            " ".join(
                " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 12))) + "."
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 3))
        ]
        config = HeuristicConfig(*(rng.randint(0, 6) for _ in range(3)), rng.randint(0, 3))
        briefs.append(("\n\n".join(paragraphs), config))
    return briefs


def _row(record: object) -> str:
    return repr(dataclasses.astuple(record))


def rendering(matcher: CompiledMatcher) -> str:
    """The text the digest is taken of: one line per input, then one per output."""
    lines = []
    for path in sorted(BRIEFS_DIR.glob("*.txt")):
        lines.append(f"brief {path.name}")
        lines += map(_row, extract_document(load_report(path), matcher))
    rng = random.Random(SEED)
    for text in reader_sentences(rng):
        sentence = SentenceSpan(0, len(text), text, tuple(tokenize(text)))
        lines.append(f"sentence {text!r}")
        lines += map(_row, numeric_spans(sentence))
        lines += (f"{_row(span)} {_row(weight)}" for span, weight in parse_weights(sentence))
    for text, config in assembler_briefs(rng):
        doc = document_from_text("m-2021-01", 2021, 1, text, DEFAULT_ABBREVIATIONS)
        numeric = [s for sentence in doc.sentences for s in numeric_spans(sentence)]
        spans = merge_spans(find_entities(doc, matcher), numeric)
        lines.append(f"brief {text!r} {config}")
        lines += map(_row, assemble(doc, spans, config))
    return "\n".join(lines) + "\n"


def test_extraction_output_is_pinned(shipped_matcher):
    assert hashlib.sha256(rendering(shipped_matcher).encode("utf-8")).hexdigest() == PINNED
