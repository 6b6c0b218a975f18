"""Loading and segmenting monthly enforcement briefs.

A brief arrives as a plain UTF-8 text file named ``<source>-<YYYY>-<MM>.txt``.
This module turns such a file into a :class:`ReportDocument`: paragraphs are
maximal runs of non-empty lines, each paragraph is tokenized once, and its
token list is cut into sentences after period/exclamation/question tokens
by a rule that an abbreviation list can veto, so every sentence carries its
own offset-stable tokens.

Offsets are always relative to the raw document text, so any span produced
downstream can be sliced back out of ``raw_text`` unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

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


@dataclass(frozen=True)
class Token:
    """One token with document-relative character offsets."""

    start_char: int
    end_char: int
    text: str
    lower: str


@dataclass(frozen=True)
class SentenceSpan:
    """A sentence as a half-open [start_char, end_char) slice plus its tokens."""

    start_char: int
    end_char: int
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class ReportDocument:
    """A fully segmented brief.

    ``paragraphs`` holds half-open character ranges; every sentence lies
    inside exactly one paragraph.
    """

    report_id: str
    year: int
    month: int
    raw_text: str
    sentences: tuple[SentenceSpan, ...]
    paragraphs: tuple[tuple[int, int], ...]


def tokenize(text: str, offset: int = 0) -> list[Token]:
    """Split ``text`` into offset-stable tokens.

    Offsets are shifted by ``offset`` so callers can tokenize a slice of a
    larger document and keep document-relative positions.
    """
    tokens: list[Token] = []
    for m in TOKEN_RE.finditer(text):
        piece = m.group()
        tokens.append(
            Token(
                start_char=offset + m.start(),
                end_char=offset + m.end(),
                text=piece,
                lower=piece.casefold(),
            )
        )
    return tokens


def _matches_abbreviation(text: str, period_index: int, abbreviations: Iterable[str]) -> bool:
    # True when the text ending at the period (inclusive) is a configured
    # abbreviation preceded by a word boundary.
    end = period_index + 1
    for abbr in abbreviations:
        start = end - len(abbr)
        if start < 0:
            continue
        if text[start:end] != abbr:
            continue
        if start == 0 or not text[start - 1].isalnum():
            return True
    return False


def segment_sentences(
    text: str,
    abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS,
    offset: int = 0,
) -> list[SentenceSpan]:
    """Split ``text`` into sentences cut from its tokens.

    ``text`` is tokenized once and the token list is cut after every '.',
    '!' or '?' token that is the last token, or whose next token starts
    after whitespace with an uppercase character.  A '.' that closes a
    configured abbreviation does not end the sentence.  Every token lands
    in exactly one sentence; tokens after the last terminator still become
    a sentence.
    """
    abbreviations = tuple(abbreviations)
    tokens = tokenize(text, offset)
    cuts = [0]
    for i, tok in enumerate(tokens):
        if tok.text not in _TERMINATORS:
            continue
        # Tokens cover every non-whitespace character, and the regex's \s
        # agrees with str.isspace() on every code point, so a gap between two
        # tokens is exactly a run of whitespace: this is the rule "followed by
        # whitespace and an uppercase letter, or by the end of the text".
        if i + 1 < len(tokens):
            nxt = tokens[i + 1]
            if nxt.start_char == tok.end_char or not nxt.text[0].isupper():
                continue
        if tok.text == "." and _matches_abbreviation(text, tok.start_char - offset, abbreviations):
            continue
        cuts.append(i + 1)
    if cuts[-1] < len(tokens):
        cuts.append(len(tokens))
    return [
        SentenceSpan(tokens[a].start_char, tokens[b - 1].end_char, tuple(tokens[a:b]))
        for a, b in zip(cuts, cuts[1:])
    ]


def _find_paragraphs(text: str) -> list[tuple[int, int]]:
    # A paragraph is a maximal run of non-blank lines; blank means empty or
    # whitespace-only.  The range covers the first through last line content.
    paragraphs: list[tuple[int, int]] = []
    pos = 0
    current_start: int | None = None
    current_end = 0
    for line in text.splitlines(keepends=True):
        stripped = line.rstrip("\r\n")
        if stripped.strip():
            if current_start is None:
                current_start = pos
            current_end = pos + len(stripped)
        else:
            if current_start is not None:
                paragraphs.append((current_start, current_end))
                current_start = None
        pos += len(line)
    if current_start is not None:
        paragraphs.append((current_start, current_end))
    return paragraphs


def document_from_text(
    report_id: str,
    year: int,
    month: int,
    text: str,
    abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS,
) -> ReportDocument:
    """Build a :class:`ReportDocument` from already-decoded text.

    Sentences are segmented per paragraph, so no sentence ever crosses a
    paragraph break.
    """
    abbreviations = tuple(abbreviations)
    paragraphs = _find_paragraphs(text)
    sentences: list[SentenceSpan] = []
    for start, end in paragraphs:
        sentences.extend(segment_sentences(text[start:end], abbreviations, offset=start))
    return ReportDocument(
        report_id=report_id,
        year=year,
        month=month,
        raw_text=text,
        sentences=tuple(sentences),
        paragraphs=tuple(paragraphs),
    )


def load_abbreviations(path: str | Path) -> tuple[str, ...]:
    """Read one abbreviation per line; '#' comments and blank lines skipped.

    A missing trailing period is added, since matching is anchored at the
    sentence terminator.  Text that is not UTF-8 raises ``ValueError``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    items: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
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
    report id and the trailing year/month become the report date.  Raises
    :class:`ReportNamingError` for a bad name or month, and
    :class:`ReportEncodingError` for invalid UTF-8.
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
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReportEncodingError(f"report {path.name!r} is not valid UTF-8: {exc}") from exc
    return document_from_text(
        report_id=path.name[: -len(".txt")],
        year=int(m.group("year")),
        month=month,
        text=text,
        abbreviations=abbreviations,
    )
