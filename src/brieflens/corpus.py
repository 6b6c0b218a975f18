"""Loading and segmenting monthly enforcement briefs.

A brief arrives as a plain UTF-8 text file named ``<source>-<YYYY>-<MM>.txt``.
This module turns such a file into a :class:`ReportDocument`.  The text is
tokenized once, and :func:`segment_sentences` cuts the token list into
sentences at every blank line and after period/exclamation/question tokens,
by a rule that an abbreviation list can veto; every sentence carries its own
offset-stable tokens.  A paragraph is a maximal run of sentences with no
blank line between them, kept as a range of sentence indices.  A blank line
is a whole line, as ``str.splitlines`` counts lines, holding only whitespace.
Abbreviations are matched against the whole text, so an entry that holds a
line break can reach back across one.

Offsets are always relative to the raw document text.  A sentence carries
its source slice of that text, and every span produced downstream is cut
from it, so any span can be sliced back out of ``raw_text`` unchanged.

Tokens, sentences and documents are frozen, slotted dataclasses: they hold
no ``__dict__``, compare and hash by value, and change only through
``dataclasses.replace``.  Within one call of :func:`tokenize`, tokens with
equal text share one ``text`` string, and a token's ``lower`` is its
``text`` itself when casefolding leaves the text unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .resources import decode_text

__all__ = [
    "DEFAULT_ABBREVIATIONS",
    "ReportDocument",
    "ReportEncodingError",
    "ReportNamingError",
    "SentenceSpan",
    "TOKEN_RE",
    "Token",
    "document_from_text",
    "load_abbreviations",
    "load_report",
    "match_key",
    "segment_sentences",
    "tokenize",
]

# Periods that end these strings never close a sentence.  The library and
# the CLI both default to this list; data/abbreviations.txt ships the same
# entries as a file to copy and edit for ``--abbreviations``.
DEFAULT_ABBREVIATIONS: tuple[str, ...] = (
    "Mr.", "Mrs.", "Ms.", "Dr.", "Prof.", "St.", "No.", "kg.", "e.g.", "i.e.", "vs.",
)

_FILENAME_RE = re.compile(r"(?P<source>.+)-(?P<year>\d{4})-(?P<month>\d{2})\.txt")

# A token is a maximal run of letters/digits; a hyphen glues two letter runs
# together ("twenty-five") but never joins digits ("3-5" stays three tokens).
# Anything else that is not whitespace becomes a single-character token.
# The pattern has no groups, so ``TOKEN_RE.findall`` lists the token texts.
_ALNUM_RUN = r"[^\W_]+(?:(?<=[^\W\d_])-(?=[^\W\d_])[^\W_]+)*"
TOKEN_RE = re.compile(rf"{_ALNUM_RUN}|\S")

_TERMINATORS = frozenset(".!?")


class ReportNamingError(ValueError):
    """Raised when a brief's filename does not match <source>-<YYYY>-<MM>.txt."""


class ReportEncodingError(ValueError):
    """Raised when a brief is not valid UTF-8."""


@dataclass(frozen=True, slots=True)
class Token:
    """One token with document-relative character offsets."""

    start_char: int
    end_char: int
    text: str
    lower: str


@dataclass(frozen=True, slots=True)
class SentenceSpan:
    """A sentence: a half-open [start_char, end_char) slice, that slice's text, its tokens."""

    start_char: int
    end_char: int
    text: str
    tokens: tuple[Token, ...]


@dataclass(frozen=True, slots=True)
class ReportDocument:
    """A fully segmented brief.

    ``paragraphs`` holds the half-open range of sentence indices of each
    paragraph, in order; together they cover every sentence exactly once.
    """

    report_id: str
    year: int
    month: int
    raw_text: str
    sentences: tuple[SentenceSpan, ...]
    paragraphs: tuple[tuple[int, int], ...]


# A token's text as the matcher compares it: the one fold behind every match key.
_fold = str.casefold


def match_key(text: str) -> tuple[str, ...]:
    """The phrase ``text`` matches as: the folded texts of its tokens."""
    return tuple(map(_fold, TOKEN_RE.findall(text)))


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into offset-stable tokens.

    A token's ``lower`` is its text folded as :func:`match_key` folds it.
    Tokens with equal text share one ``(text, lower)`` pair of strings.
    """
    tokens: list[Token] = []
    # token text -> the (text, lower) pair every token with that text shares
    pairs: dict[str, tuple[str, str]] = {}
    for m in TOKEN_RE.finditer(text):
        piece = m.group()
        pair = pairs.get(piece)
        if pair is None:
            lower = _fold(piece)
            pair = pairs[piece] = (piece, piece if lower == piece else lower)
        start, end = m.span()
        tokens.append(Token(start, end, pair[0], pair[1]))
    return tokens


def _matches_abbreviation(text: str, period_index: int, abbreviations: Iterable[str]) -> bool:
    # True when the text ending at the period (inclusive) is a configured
    # abbreviation preceded by a word boundary.
    end = period_index + 1
    for abbr in abbreviations:
        if not text.endswith(abbr, 0, end):
            continue
        start = end - len(abbr)
        if start == 0 or not text[start - 1].isalnum():
            return True
    return False


def _blank_line_between(text: str, end: int, start: int) -> bool:
    # True when a whole line, as str.splitlines counts lines, lies in the
    # whitespace gap between a token ending at ``end`` and the next token
    # starting at ``start``: then the slice through that token's first
    # character spans more than two lines.
    return start - end > 1 and len(text[end : start + 1].splitlines()) > 2


def segment_sentences(
    text: str,
    abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS,
) -> list[SentenceSpan]:
    """Split ``text`` into sentences cut from its tokens.

    ``text`` is tokenized once and the token list is cut at every blank
    line, and after every '.', '!' or '?' token that is the last token, or
    whose next token starts after whitespace with an uppercase character.
    A '.' that closes a configured abbreviation does not end the sentence.
    Every token lands in exactly one sentence; tokens after the last
    terminator still become a sentence.
    """
    abbreviations = tuple(abbreviations)
    tokens = tokenize(text)
    cuts = [0]
    for i, tok in enumerate(tokens):
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is not None and _blank_line_between(text, tok.end_char, nxt.start_char):
            cuts.append(i + 1)
            continue
        if tok.text not in _TERMINATORS:
            continue
        # Tokens cover every non-whitespace character, and the regex's \s
        # agrees with str.isspace() on every code point, so a gap between two
        # tokens is exactly a run of whitespace: this is the rule "followed by
        # whitespace and an uppercase letter, or by the end of the text".
        if nxt is not None and (nxt.start_char == tok.end_char or not nxt.text[0].isupper()):
            continue
        if tok.text == "." and _matches_abbreviation(text, tok.start_char, abbreviations):
            continue
        cuts.append(i + 1)
    if cuts[-1] < len(tokens):
        cuts.append(len(tokens))
    sentences = []
    for a, b in zip(cuts, cuts[1:]):
        start, end = tokens[a].start_char, tokens[b - 1].end_char
        sentences.append(SentenceSpan(start, end, text[start:end], tuple(tokens[a:b])))
    return sentences


def document_from_text(
    report_id: str,
    year: int,
    month: int,
    text: str,
    abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS,
) -> ReportDocument:
    """Build a :class:`ReportDocument` from already-decoded text.

    The text is segmented once; a paragraph is a maximal run of sentences
    with no blank line between them.
    """
    sentences = segment_sentences(text, abbreviations)
    starts = [0] + [
        i for i in range(1, len(sentences))
        if _blank_line_between(text, sentences[i - 1].end_char, sentences[i].start_char)
    ]
    return ReportDocument(
        report_id=report_id,
        year=year,
        month=month,
        raw_text=text,
        sentences=tuple(sentences),
        paragraphs=tuple(zip(starts, starts[1:] + [len(sentences)])) if sentences else (),
    )


def load_abbreviations(path: str | Path) -> tuple[str, ...]:
    """Read one abbreviation per line; blank lines are skipped.

    A '#' starts a comment anywhere on a line, as in a heuristics file, so
    no abbreviation holds one.  A missing trailing period is added, since
    matching is anchored at the sentence terminator.  Text that is not
    UTF-8 raises ``ValueError``.
    """
    items: list[str] = []
    for raw in decode_text(Path(path).read_bytes(), path, ValueError).splitlines():
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            line += "."
        items.append(line)
    return tuple(items)


def load_report(
    path: str | Path,
    abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS,
) -> ReportDocument:
    """Load one brief from disk.

    The filename must look like ``eastern-2021-04.txt``; the stem becomes the
    report id and the trailing year/month become the report date.  A leading
    byte-order mark is dropped, as from every input, so it changes no token,
    offset or event.  Raises :class:`ReportNamingError` for a bad name or
    month, and :class:`ReportEncodingError` for invalid UTF-8.
    """
    path = Path(path)
    m = _FILENAME_RE.fullmatch(path.name)
    if m is None:
        raise ReportNamingError(
            f"report filename {path.name!r} does not match <source>-<YYYY>-<MM>.txt"
        )
    month = int(m.group("month"))
    if not 1 <= month <= 12:
        raise ReportNamingError(f"report filename {path.name!r} has month {month} outside 1..12")
    return document_from_text(
        report_id=path.name[: -len(".txt")],
        year=int(m.group("year")),
        month=month,
        text=decode_text(path.read_bytes(), path, ReportEncodingError),
        abbreviations=abbreviations,
    )
