"""Independent reference implementations used to cross-check the package.

Everything in this module is written from the documented contracts alone,
deliberately using the dumbest correct algorithm available: the sentence
segmenter walks the text one character at a time, the paragraph
reference finds paragraphs by their lines before it segments each one,
the phrase matcher oracle tries every surface at every position and
resolves overlaps with an explicit sweep, the span merger tests every numeric span against every
lexical span, the arrest counter re-reads every number of the sentence
instead of taking the assembler's cardinals, the event matcher tests
every predicted event against every gold event with a pairwise predicate,
the corpus evaluator groups both whole sides by report before matching,
and the number speller is a plain lookup-table composition.  Keep these
naive; their value is that they share no code with the implementations
they check.  The two exceptions are frozen copies of earlier code, kept
so that a rewrite is checked against the exact output it replaced:
``reference_numeric_spans`` and ``reference_parse_weights``, the number
reader that ``measures`` replaced, and ``reference_assemble``, the
assembler of one search loop per rule that ``assembler`` replaced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
import unicodedata
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Sequence

from brieflens.assembler import ARREST_LEXEMES, HeuristicConfig, TraffickingEvent
from brieflens.corpus import ReportDocument, SentenceSpan, Token, tokenize
from brieflens.evaluation import (
    COMPARED_FIELDS,
    EvalOutcome,
    MatchResult,
    field_agree,
    pair_score,
)
from brieflens.lexicon import (
    ANIMAL,
    COUNTRY,
    LEXICON_HEADER,
    LEXICON_LABELS,
    PRODUCT,
    Lexicon,
    LexiconError,
    pluralize,
)
from brieflens.matcher import CARDINAL, WEIGHT, EntitySpan
from brieflens.measures import (
    MAX_NUMBER,
    WEIGHT_UNIT_TOKENS,
    NumberMatch,
    Weight,
    format_weight,
    parse_number,
    parse_weights,
)


def _closes_abbreviation(text: str, i: int, abbreviations: tuple[str, ...]) -> bool:
    # the text ending at the period is an abbreviation at a word boundary
    for abbr in abbreviations:
        start = i + 1 - len(abbr)
        if start >= 0 and text[start : i + 1] == abbr and (
            start == 0 or not text[start - 1].isalnum()
        ):
            return True
    return False


def _ends_sentence(text: str, i: int, abbreviations: tuple[str, ...]) -> bool:
    j = i + 1
    if j < len(text):
        if not text[j].isspace():
            return False
        while j < len(text) and text[j].isspace():
            j += 1
        if j < len(text) and not text[j].isupper():
            return False
    return not (text[i] == "." and _closes_abbreviation(text, i, abbreviations))


def naive_segment_sentences(text: str, abbreviations: Iterable[str]) -> list[SentenceSpan]:
    """Character-by-character segmenter, tokenizing each sentence slice.

    A '.', '!' or '?' ends a sentence when followed by whitespace and an
    uppercase letter, or by nothing but whitespace, unless the '.' closes
    an abbreviation; a whitespace-only line of ``str.splitlines`` ends the
    open sentence; a trailing chunk without a terminator is a sentence.
    """
    abbreviations = tuple(abbreviations)
    bounds: list[tuple[int, int]] = []
    start = None
    last = 0  # one past the open sentence's last non-space character
    pos = 0
    for line in text.splitlines(keepends=True):
        if not line.strip() and start is not None:
            bounds.append((start, last))
            start = None
        for i in range(pos, pos + len(line)):
            ch = text[i]
            if ch.isspace():
                continue
            if start is None:
                start = i
            last = i + 1
            if ch in ".!?" and _ends_sentence(text, i, abbreviations):
                bounds.append((start, i + 1))
                start = None
        pos += len(line)
    if start is not None:
        bounds.append((start, last))
    return [SentenceSpan(a, b, text[a:b], _shifted(tokenize(text[a:b]), a)) for a, b in bounds]


def _shifted(tokens: Iterable[Token], offset: int) -> tuple[Token, ...]:
    return tuple(
        replace(tok, start_char=tok.start_char + offset, end_char=tok.end_char + offset)
        for tok in tokens
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


def paragraph_document_from_text(
    text: str, abbreviations: Iterable[str]
) -> tuple[list[SentenceSpan], list[tuple[int, int]]]:
    """Find the paragraphs by their lines first, then segment each one apart.

    Returns the sentences and each paragraph's half-open range of sentence
    indices.  Abbreviations are matched inside a paragraph only.
    """
    sentences: list[SentenceSpan] = []
    paragraphs: list[tuple[int, int]] = []
    for start, end in _find_paragraphs(text):
        first = len(sentences)
        sentences.extend(
            SentenceSpan(
                s.start_char + start, s.end_char + start, s.text, _shifted(s.tokens, start)
            )
            for s in naive_segment_sentences(text[start:end], abbreviations)
        )
        paragraphs.append((first, len(sentences)))
    return sentences, paragraphs


@dataclass(frozen=True)
class _LexiconRow:
    surface: str
    label: str
    canonical: str
    origin: str = ""


def _naive_lexicon_rows(text: str, origin: str) -> list[_LexiconRow]:
    rows: list[_LexiconRow] = []
    header_seen = False
    reader = csv.reader(io.StringIO(text))
    for lineno, row in enumerate(reader, start=1):
        if not row or not any(cell.strip() for cell in row):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        cells = [cell.strip() for cell in row]
        if not header_seen:
            if tuple(cells[:3]) != LEXICON_HEADER:
                raise LexiconError(
                    f"{origin}:{lineno}: expected header "
                    f"{','.join(LEXICON_HEADER)!r}, got {','.join(cells)!r}"
                )
            header_seen = True
            continue
        if len(cells) < 2 or not cells[0]:
            raise LexiconError(f"{origin}:{lineno}: need at least surface and label")
        surface, label = cells[0], cells[1]
        canonical = cells[2] if len(cells) > 2 else ""
        rows.append(_LexiconRow(surface, label, canonical, origin=f"{origin}:{lineno}"))
    return rows


def _naive_lexicon_table(rows: list[_LexiconRow], version: str) -> Lexicon:
    explicit: dict[str, tuple[str, str]] = {}
    origin_of: dict[str, str] = {}
    for entry in rows:
        if entry.label not in LEXICON_LABELS:
            raise LexiconError(
                f"unknown label {entry.label!r} for surface {entry.surface!r}"
                + (f" at {entry.origin}" if entry.origin else "")
            )
        key = entry.surface.casefold()
        canonical = (entry.canonical or entry.surface).casefold()
        pair = (entry.label, canonical)
        if key in explicit and explicit[key] != pair:
            raise LexiconError(
                f"surface {entry.surface!r} maps to both {explicit[key]} "
                f"(from {origin_of[key] or 'earlier row'}) and {pair}"
                + (f" (from {entry.origin})" if entry.origin else "")
            )
        explicit[key] = pair
        origin_of.setdefault(key, entry.origin)

    table = dict(explicit)
    for key, pair in explicit.items():
        plural = pluralize(key)
        if plural == key or plural in explicit:
            continue
        if plural in table and table[plural] != pair:
            raise LexiconError(
                f"auto-generated plural {plural!r} is ambiguous: {table[plural]} vs {pair}"
            )
        table[plural] = pair
    return Lexicon(entries=table, version=version, n_rows=len(rows))


def naive_load_lexicon(path: Path) -> Lexicon:
    """Read every row of a lexicon file into a record, then build the table from them."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        rows = _naive_lexicon_rows(text, origin=path.name)
    except csv.Error as exc:
        raise LexiconError(f"{path.name}: {exc}") from exc
    return _naive_lexicon_table(rows, hashlib.sha256(data).hexdigest()[:16])


def tokenized_phrase_table(lexicon: Lexicon) -> dict[tuple[str, ...], tuple[str, str]]:
    """Each surface's ``tokenize`` lowers as a key; the first surface in sorted order wins."""
    surface_keys: dict[tuple[str, ...], tuple[str, str]] = {}
    for surface in sorted(lexicon.entries):
        key = tuple(tok.lower for tok in tokenize(surface))
        if key and key not in surface_keys:
            surface_keys[key] = lexicon.entries[surface]
    return surface_keys


def first_token_lengths(
    phrases: Iterable[tuple[str, ...]],
) -> dict[str, tuple[int, ...]]:
    """Each phrase's first token -> the lengths of the phrases it starts, longest first."""
    lengths: dict[str, set[int]] = {}
    for phrase in phrases:
        lengths.setdefault(phrase[0], set()).add(len(phrase))
    return {first: tuple(sorted(ns, reverse=True)) for first, ns in lengths.items()}


def naive_leftmost_longest(doc: ReportDocument, lexicon: Lexicon) -> list[EntitySpan]:
    """Brute-force matcher: all candidates, then a leftmost-longest sweep."""
    surface_keys = tokenized_phrase_table(lexicon)
    chosen: list[EntitySpan] = []
    for sentence in doc.sentences:
        tokens = sentence.tokens
        lowers = [t.lower for t in tokens]
        candidates = []
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens) + 1):
                pair = surface_keys.get(tuple(lowers[i:j]))
                if pair is not None:
                    candidates.append((i, j, pair))
        # leftmost start first; longer candidate first on equal starts
        candidates.sort(key=lambda c: (c[0], -c[1]))
        taken_until = -1
        for i, j, (label, canonical) in candidates:
            if i <= taken_until:
                continue
            start = tokens[i].start_char
            end = tokens[j - 1].end_char
            chosen.append(
                EntitySpan(
                    start_char=start,
                    end_char=end,
                    text=doc.raw_text[start:end],
                    label=label,
                    canonical=canonical,
                    first_token=i,
                    last_token=j - 1,
                )
            )
            taken_until = j - 1
    return chosen


def naive_merge_spans(
    lexical: Iterable[EntitySpan], numeric: Iterable[EntitySpan]
) -> list[EntitySpan]:
    """Quadratic merge: drop every numeric span overlapping any lexical one."""
    kept = sorted(lexical, key=lambda s: (s.start_char, s.end_char))
    intervals = [(s.start_char, s.end_char) for s in kept]
    merged = list(kept)
    for span in numeric:
        if any(span.start_char < end and start < span.end_char for start, end in intervals):
            continue
        merged.append(span)
    merged.sort(key=lambda s: (s.start_char, s.end_char))
    return merged


_ARREST_WORDS = frozenset(
    {"arrest", "arrests", "arrested", "apprehended", "detained", "jailed"}
)


def _group_digits(text: str) -> str | None:
    """The three digits of a thousands group; a unit may be glued to them."""
    if text[:3].isdecimal() and (len(text) == 3 or text[3:].lower() in WEIGHT_UNIT_TOKENS):
        return text[:3]
    return None


def _between(tokens: Sequence[Token], j: int, text: str) -> bool:
    """Whether token ``j`` is ``text`` written against both of its neighbours."""
    return (
        0 < j < len(tokens) - 1
        and tokens[j].text == text
        and tokens[j - 1].end_char == tokens[j].start_char
        and tokens[j].end_char == tokens[j + 1].start_char
    )


def _fraction_digits(text: str) -> bool:
    """Digits, with or without a unit glued to them."""
    k = 0
    while k < len(text) and text[k].isdecimal():
        k += 1
    return k > 0 and (k == len(text) or text[k:].lower() in WEIGHT_UNIT_TOKENS)


def _overflowing_run(tokens: Sequence[Token], i: int) -> int:
    """Length of the digit number at ``i`` if it reads above MAX_NUMBER, else 0.

    The number is one digit token, or one to three digits followed by
    thousands groups, each a "," written against both neighbours and then
    three digits; a group with a glued unit ends it.  A "." written against
    its last plain digits and followed by digits comes with it.
    """
    if not tokens[i].text.isdecimal():
        return 0
    digits = tokens[i].text
    j = i + 1
    while (
        len(tokens[i].text) <= 3
        and _between(tokens, j, ",")
        and (group := _group_digits(tokens[j + 1].text)) is not None
    ):
        digits += group
        j += 2
        if tokens[j - 1].text != group:
            break
    # Decimal, unlike int, reads any number of digits
    if Decimal(digits) <= MAX_NUMBER:
        return 0
    if (
        tokens[j - 1].text.isdecimal()
        and _between(tokens, j, ".")
        and _fraction_digits(tokens[j + 1].text)
    ):
        j += 2
    return j - i


_KG_PER_UNIT = {
    **dict.fromkeys(("kg", "kilogram", "kilograms", "kilo", "kilos"), Decimal(1)),
    **dict.fromkeys(("t", "ton", "tons", "tonne", "tonnes"), Decimal(1000)),
    **dict.fromkeys(("g", "gram", "grams"), Decimal("0.001")),
    **dict.fromkeys(("lb", "lbs", "pound", "pounds"), Decimal("0.45359237")),
}


def _unit_after(tokens: Sequence[Token], last: int) -> str:
    """The unit glued to the digits of token ``last``, else the next token, lowercased."""
    glued = re.fullmatch(r"\d+(\D+)", tokens[last].text)
    if glued:
        return glued[1].lower()
    return tokens[last + 1].text.lower() if last + 1 < len(tokens) else ""


def _zero_weight_run(tokens: Sequence[Token], i: int) -> int:
    """Length of the weight at ``i`` if it renders as 0 kg, zero included, else 0.

    Its number is what ``parse_number`` reads at ``i``, extended over a
    fraction when a unit follows that: a "." written against both
    neighbours after plain digits, then digits.  Its unit is glued to the
    number's last token or is the token after it.
    """
    m = parse_number(tokens, i)
    if m is None:
        return 0
    value, end = Decimal(m.value), m.end
    if tokens[end - 1].text.isdecimal() and _between(tokens, end, "."):
        fraction = re.fullmatch(r"(\d+)\D*", tokens[end + 1].text)
        if fraction and _unit_after(tokens, end + 1) in _KG_PER_UNIT:
            value, end = Decimal(f"{m.value}.{fraction[1]}"), end + 2
    unit = _unit_after(tokens, end - 1)
    if unit not in _KG_PER_UNIT:
        return 0
    return end - i if format_weight(float(value * _KG_PER_UNIT[unit])) == "0" else 0


def naive_arrest_count(
    sentence: SentenceSpan,
    *,
    window: int,
    default: int,
    exclude: Iterable[EntitySpan] = (),
) -> int | None:
    """Arrest count from a fresh read of every number in the sentence.

    Candidates are the numbers ``parse_number`` reads left to right, except
    those sharing a token with a weight or with a span in ``exclude``; a
    digit number above MAX_NUMBER is skipped whole, with its fraction, and
    so is a weight that the export renders as 0 kg, zero included.  The
    nearest within ``window`` tokens of an arrest word wins, ties going to
    the leftmost; an arrest word with none in range gives ``default``, and
    a sentence without one gives None.
    """
    tokens = sentence.tokens
    positions = [i for i, tok in enumerate(tokens) if tok.lower in _ARREST_WORDS]
    if not positions:
        return None
    skip = {
        i
        for span in [w for w, _ in parse_weights(sentence)] + list(exclude)
        for i in range(span.first_token, span.last_token + 1)
    }
    best = None  # (distance, first token, value)
    i = 0
    while i < len(tokens):
        run = _overflowing_run(tokens, i) or _zero_weight_run(tokens, i)
        if run:
            i += run
            continue
        m = parse_number(tokens, i)
        if m is None:
            i += 1
            continue
        if not skip.intersection(range(m.start, m.end)):
            for pos in positions:
                distance = max(m.start - pos, pos - (m.end - 1), 0)
                if distance <= window and (best is None or (distance, m.start, m.value) < best):
                    best = (distance, m.start, m.value)
        i = m.end
    return default if best is None else best[2]


# Reference copies of the number reader that `measures` used before its
# fraction, unit and skip rules were folded into one reader: a sentence
# must give the same spans and weights through both.  They keep that
# reader's shape (two fraction helpers, three unit helpers, two span
# builders) on purpose and share no private code with `measures`.

_REF_UNITS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9,
}
_REF_TEENS = {
    "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_REF_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}
_REF_SMALL = {"zero": 0, **_REF_UNITS, **_REF_TEENS}
_REF_KG_UNITS = frozenset({"kg", "kilogram", "kilograms", "kilo", "kilos"})
_REF_TON_UNITS = frozenset({"t", "ton", "tons", "tonne", "tonnes"})
_REF_GRAM_UNITS = frozenset({"g", "gram", "grams"})
_REF_POUND_UNITS = frozenset({"lb", "lbs", "pound", "pounds"})
_REF_WEIGHT_UNITS = _REF_KG_UNITS | _REF_TON_UNITS | _REF_GRAM_UNITS | _REF_POUND_UNITS
_REF_MAX_DIGITS = len(str(MAX_NUMBER))


def _ref_split_unit(tok: str) -> tuple[str, str] | None:
    if tok.isdecimal():
        return tok, ""
    if not tok[:1].isdecimal():
        return None
    end = 1
    while tok[end].isdecimal():
        end += 1
    return (tok[:end], tok[end:]) if tok[end:] in _REF_WEIGHT_UNITS else None


def _ref_touches(tokens: Sequence[Token], i: int) -> bool:
    return (
        tokens[i - 1].end_char == tokens[i].start_char
        and tokens[i].end_char == tokens[i + 1].start_char
    )


def _ref_parse_digits(
    tokens: Sequence[Token], texts: Sequence[str], i: int
) -> NumberMatch | None:
    tok = texts[i]
    if not tok[:1].isdecimal():
        return None
    split = _ref_split_unit(tok)
    if split is None:
        return None
    digits, unit = split
    if len(digits) > _REF_MAX_DIGITS and any(
        unicodedata.decimal(ch) for ch in digits[:-_REF_MAX_DIGITS]
    ):
        value = MAX_NUMBER + 1
    else:
        value = int(digits[-_REF_MAX_DIGITS:])
    length = 1
    if not unit and len(digits) <= 3:
        j = i + 1
        while j + 1 < len(texts) and texts[j] == "," and _ref_touches(tokens, j):
            group = _ref_split_unit(texts[j + 1])
            if group is None or len(group[0]) != 3:
                break
            value = min(value * 1000 + int(group[0]), MAX_NUMBER + 1)
            length += 2
            j += 2
            unit = group[1]
            if unit:
                break
    return NumberMatch(value=value, start=i, length=length)


def _ref_below_hundred(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    tok = texts[i]
    if tok in _REF_SMALL:
        return _REF_SMALL[tok], 1
    if tok in _REF_TENS:
        if i + 1 < len(texts) and texts[i + 1] in _REF_UNITS:
            return _REF_TENS[tok] + _REF_UNITS[texts[i + 1]], 2
        return _REF_TENS[tok], 1
    if "-" in tok:
        tens, _, unit = tok.partition("-")
        if tens in _REF_TENS and unit in _REF_UNITS:
            return _REF_TENS[tens] + _REF_UNITS[unit], 1
    return None


def _ref_below_thousand(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    tok = texts[i]
    if tok in _REF_UNITS and i + 1 < len(texts) and texts[i + 1] == "hundred":
        value = _REF_UNITS[tok] * 100
        length = 2
        j = i + 2
        if j < len(texts) and texts[j] == "and":
            rest = _ref_below_hundred(texts, j + 1) if j + 1 < len(texts) else None
            if rest is not None:
                return value + rest[0], length + 1 + rest[1]
            return value, length
        rest = _ref_below_hundred(texts, j) if j < len(texts) else None
        if rest is not None:
            return value + rest[0], length + rest[1]
        return value, length
    return _ref_below_hundred(texts, i)


def _ref_parse_words(texts: Sequence[str], i: int) -> NumberMatch | None:
    below = _ref_below_thousand(texts, i)
    if below is None:
        return None
    value, length = below
    j = i + length
    if j < len(texts) and texts[j] == "thousand" and value > 0:
        value *= 1000
        length += 1
        j += 1
        rest = _ref_below_thousand(texts, j) if j < len(texts) else None
        if rest is not None:
            value += rest[0]
            length += rest[1]
    if value > MAX_NUMBER:
        return None
    return NumberMatch(value=value, start=i, length=length)


def _ref_fraction(
    tokens: Sequence[Token], texts: Sequence[str], m: NumberMatch
) -> tuple[str, str] | None:
    dot = m.end
    if not (
        dot + 1 < len(texts)
        and texts[dot] == "."
        and texts[dot - 1].isdecimal()
        and _ref_touches(tokens, dot)
    ):
        return None
    return _ref_split_unit(texts[dot + 1])


def _ref_decimal_weight(
    tokens: Sequence[Token], texts: Sequence[str], m: NumberMatch
) -> NumberMatch | None:
    fraction = _ref_fraction(tokens, texts, m)
    if fraction is None:
        return None
    digits, unit = fraction
    dot = m.end
    if not unit and not (dot + 2 < len(texts) and texts[dot + 2] in _REF_WEIGHT_UNITS):
        return None
    value = Decimal(f"{m.value}.{digits}")
    return NumberMatch(value=value, start=m.start, length=m.length + 2)


def _ref_to_kg(value: int | Decimal, unit: str) -> float:
    if unit in _REF_KG_UNITS:
        return float(value)
    if unit in _REF_TON_UNITS:
        return float(value * 1000)
    if unit in _REF_GRAM_UNITS:
        return float(value / 1000)
    if unit in _REF_POUND_UNITS:
        return float(value) * 0.45359237
    raise ValueError(f"unknown weight unit {unit!r}")


def _ref_weight_unit(texts: Sequence[str], m: NumberMatch) -> tuple[int, str] | None:
    last = texts[m.end - 1]
    if not last.isdecimal() and (glued := _ref_split_unit(last)) is not None:
        return m.end - 1, glued[1]
    if m.end < len(texts) and texts[m.end] in _REF_WEIGHT_UNITS:
        return m.end, texts[m.end]
    return None


def _ref_iter_numbers(
    tokens: Sequence[Token], texts: Sequence[str]
) -> list[tuple[NumberMatch, tuple[int, str] | None]]:
    numbers: list[tuple[NumberMatch, tuple[int, str] | None]] = []
    i = 0
    while i < len(texts):
        m = _ref_parse_digits(tokens, texts, i)
        if m is None:
            m = _ref_parse_words(texts, i)
            if m is None:
                i += 1
                continue
        elif m.value > MAX_NUMBER:
            i = m.end + 2 if _ref_fraction(tokens, texts, m) else m.end
            continue
        else:
            m = _ref_decimal_weight(tokens, texts, m) or m
        unit = _ref_weight_unit(texts, m)
        if unit is None or format_weight(_ref_to_kg(m.value, unit[1])) != "0":
            numbers.append((m, unit))
        i = m.end
    return numbers


def _ref_join_text(tokens: Sequence[Token], start: int, end: int) -> str:
    text = tokens[start].text
    for prev, tok in zip(tokens[start : end - 1], tokens[start + 1 : end]):
        text += " " + tok.text if tok.start_char > prev.end_char else tok.text
    return text


def _ref_weight(tokens: Sequence[Token], m: NumberMatch, unit: tuple[int, str]) -> EntitySpan:
    unit_index, unit_text = unit
    return EntitySpan(
        start_char=tokens[m.start].start_char,
        end_char=tokens[unit_index].end_char,
        text=_ref_join_text(tokens, m.start, unit_index + 1),
        label=WEIGHT,
        canonical=repr(_ref_to_kg(m.value, unit_text)),
        first_token=m.start,
        last_token=unit_index,
    )


def _ref_cardinal(tokens: Sequence[Token], m: NumberMatch) -> EntitySpan:
    return EntitySpan(
        start_char=tokens[m.start].start_char,
        end_char=tokens[m.end - 1].end_char,
        text=_ref_join_text(tokens, m.start, m.end),
        label=CARDINAL,
        canonical=str(m.value),
        first_token=m.start,
        last_token=m.end - 1,
    )


def reference_parse_weights(sentence: SentenceSpan) -> list[tuple[EntitySpan, Weight]]:
    """``measures.parse_weights`` as it was before the one-reader rewrite."""
    tokens = sentence.tokens
    texts = [t.lower for t in tokens]
    weights = []
    for m, unit in _ref_iter_numbers(tokens, texts):
        if unit is not None:
            unit_index, unit_text = unit
            original_unit = tokens[unit_index].text[len(texts[unit_index]) - len(unit_text) :]
            weight = Weight(_ref_to_kg(m.value, unit_text), float(m.value), original_unit)
            weights.append((_ref_weight(tokens, m, unit), weight))
    return weights


def reference_numeric_spans(sentence: SentenceSpan) -> list[EntitySpan]:
    """``measures.numeric_spans`` as it was before the one-reader rewrite."""
    tokens = sentence.tokens
    texts = [t.lower for t in tokens]
    return [
        _ref_cardinal(tokens, m) if unit is None else _ref_weight(tokens, m, unit)
        for m, unit in _ref_iter_numbers(tokens, texts)
    ]


class _RefShell:
    __slots__ = ("species_span", "product_span", "anchor", "quantity", "weight_kg", "country")

    def __init__(
        self,
        species_span: EntitySpan | None = None,
        product_span: EntitySpan | None = None,
    ) -> None:
        self.species_span = species_span
        self.product_span = product_span
        spans = [s for s in (species_span, product_span) if s]
        self.anchor: tuple[int, int] | None = None
        if spans:
            self.anchor = (min(s.first_token for s in spans), max(s.last_token for s in spans))
        self.quantity: int | None = None
        self.weight_kg: float | None = None
        self.country: str | None = None


def _ref_interval_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[1] < b[0]:
        return b[0] - a[1]
    if b[1] < a[0]:
        return a[0] - b[1]
    return 0


def _ref_build_shells(
    animals: list[EntitySpan], products: list[EntitySpan], pair_window: int
) -> list[_RefShell]:
    shells: list[_RefShell] = []
    modifier_animals: set[EntitySpan] = set()
    for product in products:
        p_first = product.first_token
        best: EntitySpan | None = None
        best_last = -1
        for animal in animals:
            a_last = animal.last_token
            if a_last < p_first and p_first - a_last <= pair_window and a_last > best_last:
                best = animal
                best_last = a_last
        if best is not None:
            modifier_animals.add(best)
        shells.append(_RefShell(species_span=best, product_span=product))
    for animal in animals:
        if animal not in modifier_animals:
            shells.append(_RefShell(species_span=animal))
    shells.sort(key=lambda shell: shell.anchor[0])
    return shells


def _ref_attach_quantities(
    shells: list[_RefShell], cardinals: list[EntitySpan], quantity_window: int
) -> list[EntitySpan]:
    used: set[EntitySpan] = set()
    for shell in shells:
        best: EntitySpan | None = None
        best_last = -1
        for anchor in (shell.species_span, shell.product_span):
            if anchor is None:
                continue
            a_first = anchor.first_token
            for cardinal in cardinals:
                if cardinal in used or int(cardinal.canonical) < 1:
                    continue
                c_last = cardinal.last_token
                gap = a_first - c_last
                if 1 <= gap <= quantity_window and c_last > best_last:
                    best = cardinal
                    best_last = c_last
        if best is not None:
            shell.quantity = int(best.canonical)
            used.add(best)
    return [c for c in cardinals if c not in used]


def _ref_arrest_count(
    sentence: SentenceSpan, cardinals: Iterable[EntitySpan], window: int, default: int
) -> int | None:
    lexemes = [(i, i) for i, tok in enumerate(sentence.tokens) if tok.lower in ARREST_LEXEMES]
    if not lexemes:
        return None
    in_range = []
    for cardinal in cardinals:
        span = (cardinal.first_token, cardinal.last_token)
        distance = min(_ref_interval_distance(span, lexeme) for lexeme in lexemes)
        if distance <= window:
            in_range.append((distance, cardinal.first_token, int(cardinal.canonical)))
    return min(in_range)[2] if in_range else default


def _ref_attach_weights(shells: list[_RefShell], weights: list[EntitySpan]) -> None:
    for weight in weights:
        w_range = (weight.first_token, weight.last_token)
        best: _RefShell | None = None
        best_distance: int | None = None
        for shell in shells:
            if shell.weight_kg is not None:
                continue
            anchor = shell.anchor
            distance = 0 if anchor is None else _ref_interval_distance(w_range, anchor)
            if best_distance is None or distance < best_distance:
                best = shell
                best_distance = distance
        if best is not None:
            best.weight_kg = float(weight.canonical)


def _ref_attach_countries(shells: list[_RefShell], countries: list[EntitySpan]) -> None:
    if not countries:
        return
    for shell in shells:
        anchor = shell.anchor
        if anchor is None:
            shell.country = countries[0].canonical
            continue
        best = min(
            countries,
            key=lambda c: (
                _ref_interval_distance((c.first_token, c.last_token), anchor),
                c.first_token,
            ),
        )
        shell.country = best.canonical


def reference_assemble(
    doc: ReportDocument, spans: Iterable[EntitySpan], config: HeuristicConfig
) -> list[TraffickingEvent]:
    """``assembler.assemble`` as it was before the one-chooser rewrite."""
    by_sentence: list[list[EntitySpan]] = [[] for _ in doc.sentences]
    si = 0
    for span in spans:
        while doc.sentences[si].end_char <= span.start_char:
            si += 1
        by_sentence[si].append(span)

    events: list[TraffickingEvent] = []
    for first, end in doc.paragraphs:
        paragraph_country = next(
            (s.canonical for group in by_sentence[first:end] for s in group if s.label == COUNTRY),
            None,
        )
        for si in range(first, end):
            sentence, sentence_spans = doc.sentences[si], by_sentence[si]
            animals = [s for s in sentence_spans if s.label == ANIMAL]
            products = [s for s in sentence_spans if s.label == PRODUCT]
            cardinals = [s for s in sentence_spans if s.label == CARDINAL]
            weights = [s for s in sentence_spans if s.label == WEIGHT]
            countries = [s for s in sentence_spans if s.label == COUNTRY]

            has_lexeme = any(tok.lower in ARREST_LEXEMES for tok in sentence.tokens)
            if not animals and not products and not has_lexeme:
                continue

            shells = _ref_build_shells(animals, products, config.pair_window)
            if not shells:
                shells = [_RefShell()]

            unconsumed = _ref_attach_quantities(shells, cardinals, config.quantity_window)
            _ref_attach_weights(shells, weights)
            _ref_attach_countries(shells, countries)
            arrest = _ref_arrest_count(
                sentence, unconsumed, config.arrest_window, config.arrest_default
            )

            fallback = None if countries else paragraph_country
            for shell in shells:
                events.append(
                    TraffickingEvent(
                        report_id=doc.report_id,
                        year=doc.year,
                        month=doc.month,
                        country=shell.country or fallback,
                        species=shell.species_span.canonical if shell.species_span else None,
                        product=shell.product_span.canonical if shell.product_span else None,
                        quantity=shell.quantity,
                        weight_kg=shell.weight_kg,
                        arrest_count=arrest,
                        sentence_index=si,
                    )
                )
    return events


def _both_equal(a: object, b: object) -> bool:
    return a is not None and b is not None and field_agree(a, b)


def default_eligibility(predicted: TraffickingEvent, gold: TraffickingEvent) -> bool:
    """Whether a pair may be matched at all.

    Identity comes from what was trafficked; for records with no species
    and no product on either side, the arrest count takes over that role.
    """
    if _both_equal(predicted.species, gold.species):
        return True
    if _both_equal(predicted.product, gold.product):
        return True
    if (
        predicted.species is None
        and predicted.product is None
        and gold.species is None
        and gold.product is None
    ):
        return _both_equal(predicted.arrest_count, gold.arrest_count)
    return False


def naive_match_events(
    predicted: Sequence[TraffickingEvent],
    gold: Sequence[TraffickingEvent],
) -> MatchResult:
    """Greedy one-to-one matching that tests every predicted×gold pair."""
    report_ids = {e.report_id for e in predicted} | {e.report_id for e in gold}
    if len(report_ids) > 1:
        raise ValueError(f"match_events got events from several reports: {sorted(report_ids)}")
    report_id = report_ids.pop() if report_ids else ""

    candidates: list[tuple[int, int, int]] = []  # (-score, pred idx, gold idx)
    for pi, p in enumerate(predicted):
        for gi, g in enumerate(gold):
            if default_eligibility(p, g):
                candidates.append((-pair_score(p, g), pi, gi))
    candidates.sort()

    matched_pred: dict[int, int] = {}
    matched_gold: set[int] = set()
    for _, pi, gi in candidates:
        if pi in matched_pred or gi in matched_gold:
            continue
        matched_pred[pi] = gi
        matched_gold.add(gi)

    agreement = {name: 0 for name in COMPARED_FIELDS}
    outcomes: list[EvalOutcome] = []
    for pi, p in enumerate(predicted):
        if pi not in matched_pred:
            outcomes.append(EvalOutcome.UNRELATED)
            continue
        g = gold[matched_pred[pi]]
        agreeing = [
            name for name in COMPARED_FIELDS if field_agree(getattr(p, name), getattr(g, name))
        ]
        for name in agreeing:
            agreement[name] += 1
        outcomes.append(
            EvalOutcome.FULLY_CORRECT
            if len(agreeing) == len(COMPARED_FIELDS)
            else EvalOutcome.PARTIALLY_CORRECT
        )

    return MatchResult(
        report_id=report_id,
        pairs=tuple(sorted((pi, gi) for pi, gi in matched_pred.items())),
        prediction_outcomes=tuple(outcomes),
        undetected_gold=tuple(gi for gi in range(len(gold)) if gi not in matched_gold),
        total_gold=len(gold),
        field_agreement=agreement,
    )


def naive_evaluate_corpus(
    predicted: Iterable[TraffickingEvent],
    gold: Iterable[TraffickingEvent],
) -> list[MatchResult]:
    """Group both sides by report id in full, then match report by report."""
    by_report_pred: dict[str, list[TraffickingEvent]] = {}
    by_report_gold: dict[str, list[TraffickingEvent]] = {}
    for e in predicted:
        by_report_pred.setdefault(e.report_id, []).append(e)
    for e in gold:
        by_report_gold.setdefault(e.report_id, []).append(e)
    return [
        naive_match_events(by_report_pred.get(report_id, []), by_report_gold.get(report_id, []))
        for report_id in sorted(by_report_pred.keys() | by_report_gold.keys())
    ]


_ONES = [
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen",
]
_TENS = ["", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety"]


def spell_number(n: int, hyphen: bool = True) -> str:
    """Spell 0..999,999 in words, composed from per-range lookup tables."""
    if not 0 <= n <= 999_999:
        raise ValueError(f"{n} outside 0..999999")
    if n < 20:
        return _ONES[n]
    if n < 100:
        tens, rest = divmod(n, 10)
        if rest == 0:
            return _TENS[tens]
        joiner = "-" if hyphen else " "
        return f"{_TENS[tens]}{joiner}{_ONES[rest]}"
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        head = f"{_ONES[hundreds]} hundred"
        return head if rest == 0 else f"{head} and {spell_number(rest, hyphen)}"
    thousands, rest = divmod(n, 1000)
    head = f"{spell_number(thousands, hyphen)} thousand"
    return head if rest == 0 else f"{head} {spell_number(rest, hyphen)}"


# Word atoms for random matcher lexicons.  None end in s/x/z/ch/sh/y/f, so
# every auto-plural is just the atom plus "s" and never collides with
# another atom or plural.
MATCHER_ATOMS = (
    "kiru", "lobo", "menda", "perro", "quona", "ronta", "silva", "tagon",
    "umbra", "velda", "wopin", "zerta",
)
NOISE_WORDS = ("the", "and", "near", "was", "seen", "while", "moving", "12", ",", ".")
MATCHER_LABELS = ("ANIMAL", "PRODUCT", "COUNTRY")


def random_matcher_case(rng: random.Random) -> tuple[Lexicon, str]:
    """One randomized (lexicon <= 20 surfaces, text <= 200 tokens) case."""
    n_surfaces = rng.randint(1, 20)
    surfaces = set()
    while len(surfaces) < n_surfaces:
        words = rng.randint(1, 3)
        surfaces.add(" ".join(rng.choice(MATCHER_ATOMS) for _ in range(words)))
    rows = [(surface, rng.choice(MATCHER_LABELS), "") for surface in sorted(surfaces)]
    lexicon = Lexicon.from_rows(rows)

    vocabulary = list(MATCHER_ATOMS) + [f"{atom}s" for atom in MATCHER_ATOMS]
    vocabulary += list(NOISE_WORDS)
    n_tokens = rng.randint(0, 200)
    words = [rng.choice(vocabulary) for _ in range(n_tokens)]
    # occasional capitalisation exercises case folding
    words = [w.capitalize() if rng.random() < 0.2 else w for w in words]
    return lexicon, " ".join(words)
