"""Loading and segmenting monthly enforcement briefs.

A brief arrives as a plain UTF-8 text file named ``<source>-<YYYY>-<MM>.txt``.
This module turns such a file into a :class:`ReportDocument`: paragraphs are
maximal runs of non-empty lines, sentences are found inside each paragraph
with a period/exclamation/question rule that an abbreviation list can veto,
and every sentence carries its own offset-stable tokens.

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
_ALNUM_RUN = r"[^\W_]+(?:(?<=[^\W\d_])-(?=[^\W\d_])[^\W_]+)*"
_TOKEN_RE = re.compile(rf"{_ALNUM_RUN}|\S")

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

    def __post_init__(self) -> None:
        if self.end_char <= self.start_char:
            raise ValueError("token span must be non-empty")


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
    for m in _TOKEN_RE.finditer(text):
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


def _is_sentence_boundary(text: str, i: int, abbreviations: Iterable[str]) -> bool:
    nxt = i + 1
    if nxt < len(text):
        if not text[nxt].isspace():
            return False
        j = nxt
        while j < len(text) and text[j].isspace():
            j += 1
        if j < len(text) and not text[j].isupper():
            return False
    if text[i] == "." and _matches_abbreviation(text, i, abbreviations):
        return False
    return True


def segment_sentences(
    text: str,
    abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS,
    offset: int = 0,
) -> list[SentenceSpan]:
    """Split ``text`` into sentences.

    A sentence ends at '.', '!' or '?' when followed by whitespace and an
    uppercase letter, or by the end of the text.  A terminator that closes a
    configured abbreviation does not end the sentence.  Every non-whitespace
    character lands in exactly one sentence; a trailing chunk without a
    terminator still becomes a sentence.
    """
    abbreviations = tuple(abbreviations)
    spans: list[SentenceSpan] = []
    start: int | None = None
    for i, ch in enumerate(text):
        if start is None:
            if ch.isspace():
                continue
            start = i
        if ch in _TERMINATORS and _is_sentence_boundary(text, i, abbreviations):
            spans.append(_make_span(text, start, i + 1, offset))
            start = None
    if start is not None:
        end = len(text)
        while end > start and text[end - 1].isspace():
            end -= 1
        spans.append(_make_span(text, start, end, offset))
    return spans


def _make_span(text: str, start: int, end: int, offset: int) -> SentenceSpan:
    return SentenceSpan(
        start_char=offset + start,
        end_char=offset + end,
        tokens=tuple(tokenize(text[start:end], offset=offset + start)),
    )


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
    sentence terminator.
    """
    items: list[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
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
