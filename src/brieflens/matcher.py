"""Token-aligned phrase matching over lexicon surfaces.

The lexicon is keyed by phrases, ``corpus.match_key(surface)``: the
casefolded texts of a surface's tokens, folded as each document token's
``lower`` is.  So "scales" never fires inside "escalates", and multi-word
surfaces such as "sea turtle" are matched as phrases.  Overlaps are
resolved leftmost-longest: the candidate starting earliest wins, and
among candidates sharing a start the longest wins.  The result is always
a sorted, non-overlapping list of spans.

The phrase table is indexed by first token: each token that starts a
phrase maps to the lengths of the phrases starting with it, longest first.
The scan looks each token up once and tries only those lengths, so tokens
that start no phrase cost one dictionary lookup.  At a few hundred surfaces
this index is enough, and an Aho-Corasick automaton is not needed.

Every span records both its character offsets and the token range it
covers, so later stages measure token distances without re-scanning the
sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import ReportDocument, SentenceSpan
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


@dataclass(frozen=True, slots=True)
class EntitySpan:
    """A labeled span of one sentence, in characters and in tokens.

    ``start_char`` and ``end_char`` are document-relative character offsets.
    ``text`` is the source slice ``raw_text[start_char:end_char]``: every
    span, lexical or numeric, is built by :meth:`cut`.
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

    @classmethod
    def cut(
        cls, sentence: SentenceSpan, first: int, last: int, label: str, canonical: str
    ) -> EntitySpan:
        """The span of ``sentence``'s tokens ``first`` to ``last``, cut from ``sentence.text``."""
        start, end = sentence.tokens[first].start_char, sentence.tokens[last].end_char
        text = sentence.text[start - sentence.start_char : end - sentence.start_char]
        return cls(start, end, text, label, canonical, first, last)


@dataclass(frozen=True)
class CompiledMatcher:
    """The lexicon's phrase table, indexed by first token.

    ``phrases`` is the lexicon's ``entries``: match keys, the casefolded
    token tuples that ``find_entities`` compares with a sentence's token
    ``lower`` values.  ``first_token_lengths`` maps each token that starts
    a phrase to the lengths of the phrases starting with it, longest
    first, so the scan tries only those lengths at that token and skips
    every other token after one lookup.  Matching behaviour is a pure
    function of ``phrases``, so the lexicon's ``version`` names it.
    """

    phrases: Mapping[tuple[str, ...], tuple[str, str]]
    first_token_lengths: Mapping[str, tuple[int, ...]]


def compile_lexicon(lexicon: Lexicon) -> CompiledMatcher:
    """Index the lexicon's phrases by first token."""
    lengths: dict[str, set[int]] = {}
    for key in lexicon.entries:
        lengths.setdefault(key[0], set()).add(len(key))
    return CompiledMatcher(
        phrases=lexicon.entries,
        first_token_lengths={
            first: tuple(sorted(ns, reverse=True)) for first, ns in lengths.items()
        },
    )


def find_entities(doc: ReportDocument, matcher: CompiledMatcher) -> list[EntitySpan]:
    """Find all lexicon matches in ``doc``, sentence by sentence.

    The scan is greedy left to right within each sentence: at every token
    that starts a phrase it tries that token's phrase lengths, longest
    first, takes the first that matches and resumes after it, which
    realises the leftmost-longest rule.
    """
    spans: list[EntitySpan] = []
    phrases = matcher.phrases
    starts = matcher.first_token_lengths
    for sentence in doc.sentences:
        tokens = sentence.tokens
        lowers = [tok.lower for tok in tokens]
        n = len(tokens)
        resume = 0
        for i, lower in enumerate(lowers):
            if i < resume or lower not in starts:
                continue
            for length in starts[lower]:
                if i + length <= n:
                    pair = phrases.get(tuple(lowers[i : i + length]))
                    if pair is not None:
                        break
            else:
                continue
            last = i + length - 1
            spans.append(EntitySpan.cut(sentence, i, last, *pair))
            resume = last + 1
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
