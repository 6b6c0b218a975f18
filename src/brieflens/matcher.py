"""Token-aligned phrase matching over lexicon surfaces.

Surfaces are compiled to case-folded token sequences, so "scales" never
fires inside "escalates" and multi-word surfaces such as "sea turtle" are
matched as phrases.  Overlaps are resolved leftmost-longest: the candidate
starting earliest wins, and among candidates sharing a start the longest
wins.  The result is always a sorted, non-overlapping list of spans.

Every span records both its character offsets and the token range it
covers, so later stages measure token distances without re-scanning the
sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import TOKEN_RE, ReportDocument
from .lexicon import Lexicon

__all__ = [
    "CARDINAL",
    "WEIGHT",
    "CompiledMatcher",
    "EntitySpan",
    "compile_lexicon",
    "find_entities",
    "merge_spans",
]

# Numeric span labels; lexical labels live in the lexicon module.
CARDINAL = "CARDINAL"
WEIGHT = "WEIGHT"


@dataclass(frozen=True)
class EntitySpan:
    """A labeled span of one sentence, in characters and in tokens.

    ``start_char`` and ``end_char`` are document-relative character offsets.
    ``first_token`` and ``last_token`` are the inclusive range of the tokens
    it covers, as indices into its sentence's ``tokens``: the span starts
    where token ``first_token`` starts and ends where token ``last_token``
    ends.  Spans never cross a sentence boundary.
    """

    start_char: int
    end_char: int
    text: str
    label: str
    canonical: str
    first_token: int
    last_token: int


@dataclass(frozen=True)
class CompiledMatcher:
    """Phrase table keyed by case-folded token tuples.

    Matching behaviour is a pure function of the lexicon the matcher was
    compiled from; ``lexicon_version`` records which one that was.
    """

    phrases: Mapping[tuple[str, ...], tuple[str, str]]
    max_len: int
    lexicon_version: str


def compile_lexicon(lexicon: Lexicon) -> CompiledMatcher:
    """Compile every lexicon surface into the token-tuple phrase table."""
    phrases: dict[tuple[str, ...], tuple[str, str]] = {}
    # sorted iteration keeps compilation deterministic if two distinct
    # surfaces collapse to the same token sequence
    for surface in sorted(lexicon.entries):
        pair = lexicon.entries[surface]
        key = tuple(piece.casefold() for piece in TOKEN_RE.findall(surface))
        if key:
            phrases.setdefault(key, pair)
    max_len = max((len(key) for key in phrases), default=0)
    return CompiledMatcher(phrases=phrases, max_len=max_len, lexicon_version=lexicon.version)


def find_entities(doc: ReportDocument, matcher: CompiledMatcher) -> list[EntitySpan]:
    """Find all lexicon matches in ``doc``, sentence by sentence.

    The scan is greedy left to right within each sentence: at every position
    the longest matching phrase is taken and the scan resumes after it,
    which realises the leftmost-longest rule.
    """
    spans: list[EntitySpan] = []
    if matcher.max_len == 0:
        return spans
    for sentence in doc.sentences:
        tokens = sentence.tokens
        lowers = [tok.lower for tok in tokens]
        n = len(tokens)
        i = 0
        while i < n:
            found = None
            for length in range(min(matcher.max_len, n - i), 0, -1):
                pair = matcher.phrases.get(tuple(lowers[i : i + length]))
                if pair is not None:
                    found = (length, pair)
                    break
            if found is None:
                i += 1
                continue
            length, (label, canonical) = found
            start = tokens[i].start_char
            end = tokens[i + length - 1].end_char
            spans.append(
                EntitySpan(
                    start_char=start,
                    end_char=end,
                    text=doc.raw_text[start:end],
                    label=label,
                    canonical=canonical,
                    first_token=i,
                    last_token=i + length - 1,
                )
            )
            i += length
    return spans


def merge_spans(
    lexical: Iterable[EntitySpan], numeric: Iterable[EntitySpan]
) -> list[EntitySpan]:
    """Union lexical and numeric spans; on overlap the lexical span wins.

    Each input must be sorted by offset and free of overlaps, as
    ``find_entities`` and ``numeric_spans`` return them.  The result is
    sorted and non-overlapping.  One merge of the two sorted lists: a
    numeric span can only overlap the first lexical span that ends after
    the numeric span starts.
    """
    kept = list(lexical)
    merged: list[EntitySpan] = []
    i = 0
    for span in numeric:
        while i < len(kept) and kept[i].end_char <= span.start_char:
            merged.append(kept[i])
            i += 1
        if i == len(kept) or span.end_char <= kept[i].start_char:
            merged.append(span)
    merged.extend(kept[i:])
    return merged
