"""Parsing counts and weights out of token streams.

Numbers come in two shapes: digit strings with optional thousands
separators ("1,200") and English number words composed from units, teens,
tens and the hundred/thousand multipliers ("twenty-five", "three hundred
and six").  Values outside 0..999,999 are not recognised.  Thousands
groups are written without spaces: "3, 200" is the two numbers 3 and 200.
A number above 999,999 ("1000000", "1,000,000") is no number, and none
of its groups, nor a ".<digits>" fraction written against it, reads as a
number of its own.

Weights are a number immediately followed by a unit token and are always
normalised to kilograms.  A weight's number may also be a decimal written
without spaces ("12.5 kg"): the tokenizer splits it into "12", "." and
"5", and the three tokens are read back as one value, so none of them
becomes a cardinal of its own.  The unit may also be glued to the last
digits ("513kg", "12.5kg", "1,200kg"), which the tokenizer keeps as one
token: that token reads as its digits with the unit, so it is a weight
and never a cardinal.  A weight that the interchange format renders as
0 kg is skipped whole, whether it is zero ("0 kg", "0kg", "zero kg",
"0.0 kg") or too small to carry ("0.0000001 kg"): none of its pieces
reads as a number of its own, so none becomes a quantity or an arrest
count.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

from .corpus import SentenceSpan, Token
from .matcher import CARDINAL, WEIGHT, EntitySpan

__all__ = [
    "MAX_NUMBER",
    "NumberMatch",
    "Weight",
    "format_weight",
    "numeric_spans",
    "parse_number",
    "parse_weights",
]

MAX_NUMBER = 999_999
_MAX_DIGITS = len(str(MAX_NUMBER))

_UNITS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9,
}
_TEENS = {
    "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}
_SMALL = {"zero": 0, **_UNITS, **_TEENS}

# unit token -> kilograms per unit
_KG_UNITS = frozenset({"kg", "kilogram", "kilograms", "kilo", "kilos"})
_TON_UNITS = frozenset({"t", "ton", "tons", "tonne", "tonnes"})
_GRAM_UNITS = frozenset({"g", "gram", "grams"})
_POUND_UNITS = frozenset({"lb", "lbs", "pound", "pounds"})
WEIGHT_UNIT_TOKENS = _KG_UNITS | _TON_UNITS | _GRAM_UNITS | _POUND_UNITS

_POUND_KG = 0.45359237


@dataclass(frozen=True, slots=True)
class NumberMatch:
    """A parsed number and the token span it consumed.

    The value is a Decimal only for a decimal weight; every other number is
    an int.
    """

    value: int | Decimal
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class Weight:
    """A weight normalised to kilograms, keeping the surface value and unit."""

    value_kg: float
    original_value: float
    original_unit: str


def format_weight(kg: float) -> str:
    """Render a weight with at most six decimals, trailing zeros trimmed."""
    text = f"{kg:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def _texts(tokens: Sequence[Token]) -> list[str]:
    return [t.lower for t in tokens]


def _split_unit(tok: str) -> tuple[str, str] | None:
    """("513", "") for a digit token, ("513", "kg") for digits glued to a unit."""
    # isdecimal, not isdigit: int() rejects digits such as "¹" that isdigit accepts
    if tok.isdecimal():
        return tok, ""
    if not tok[:1].isdecimal():
        return None
    end = 1
    while tok[end].isdecimal():
        end += 1
    return (tok[:end], tok[end:]) if tok[end:] in WEIGHT_UNIT_TOKENS else None


def _touches(tokens: Sequence[Token], i: int) -> bool:
    """Whether token ``i`` is written against both of its neighbours."""
    return (
        tokens[i - 1].end_char == tokens[i].start_char
        and tokens[i].end_char == tokens[i + 1].start_char
    )


def _parse_digits(tokens: Sequence[Token], texts: Sequence[str], i: int) -> NumberMatch | None:
    """The number written in digits at ``i``, with its thousands groups.

    Its value may exceed MAX_NUMBER; callers then skip the number.
    """
    tok = texts[i]
    if not tok[:1].isdecimal():  # most tokens are words
        return None
    split = _split_unit(tok)
    if split is None:
        return None
    digits, unit = split
    # int() refuses strings of more than 4,300 digits, so a token with more
    # significant digits than MAX_NUMBER overflows without converting; the
    # leading zeros may come from any script
    if len(digits) > _MAX_DIGITS and any(
        unicodedata.decimal(ch) for ch in digits[:-_MAX_DIGITS]
    ):
        value = MAX_NUMBER + 1
    else:
        value = int(digits[-_MAX_DIGITS:])
    length = 1
    if not unit and len(digits) <= 3:
        j = i + 1
        while j + 1 < len(texts) and texts[j] == "," and _touches(tokens, j):
            group = _split_unit(texts[j + 1])
            if group is None or len(group[0]) != 3:
                break
            # capped, so that a long overflowing run costs no big-integer arithmetic
            value = min(value * 1000 + int(group[0]), MAX_NUMBER + 1)
            length += 2
            j += 2
            unit = group[1]
            if unit:
                break
    return NumberMatch(value=value, start=i, length=length)


def _parse_below_hundred(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    tok = texts[i]
    if tok in _SMALL:
        return _SMALL[tok], 1
    if tok in _TENS:
        if i + 1 < len(texts) and texts[i + 1] in _UNITS:
            return _TENS[tok] + _UNITS[texts[i + 1]], 2
        return _TENS[tok], 1
    if "-" in tok:
        tens, _, unit = tok.partition("-")
        if tens in _TENS and unit in _UNITS:
            return _TENS[tens] + _UNITS[unit], 1
    return None


def _parse_below_thousand(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    tok = texts[i]
    if tok in _UNITS and i + 1 < len(texts) and texts[i + 1] == "hundred":
        value = _UNITS[tok] * 100
        length = 2
        j = i + 2
        if j < len(texts) and texts[j] == "and":
            rest = _parse_below_hundred(texts, j + 1) if j + 1 < len(texts) else None
            if rest is not None:
                return value + rest[0], length + 1 + rest[1]
            return value, length
        rest = _parse_below_hundred(texts, j) if j < len(texts) else None
        if rest is not None:
            return value + rest[0], length + rest[1]
        return value, length
    return _parse_below_hundred(texts, i)


def _parse_words(texts: Sequence[str], i: int) -> NumberMatch | None:
    below = _parse_below_thousand(texts, i)
    if below is None:
        return None
    value, length = below
    j = i + length
    if j < len(texts) and texts[j] == "thousand" and value > 0:
        value *= 1000
        length += 1
        j += 1
        rest = _parse_below_thousand(texts, j) if j < len(texts) else None
        if rest is not None:
            value += rest[0]
            length += rest[1]
    if value > MAX_NUMBER:
        return None
    return NumberMatch(value=value, start=i, length=length)


def parse_number(tokens: Sequence[Token], start: int = 0) -> NumberMatch | None:
    """Parse a number starting exactly at ``start``; None when nothing matches."""
    texts = _texts(tokens)
    if not 0 <= start < len(texts):
        return None
    m = _parse_digits(tokens, texts, start) or _parse_words(texts, start)
    return m if m is None or m.value <= MAX_NUMBER else None


def _fraction(
    tokens: Sequence[Token], texts: Sequence[str], m: NumberMatch
) -> tuple[str, str] | None:
    """The digits and glued unit of a ``.<digits>`` written against ``m``'s plain digits."""
    dot = m.end
    if not (
        dot + 1 < len(texts)
        and texts[dot] == "."
        and texts[dot - 1].isdecimal()
        and _touches(tokens, dot)
    ):
        return None
    return _split_unit(texts[dot + 1])


def _decimal_weight(
    tokens: Sequence[Token], texts: Sequence[str], m: NumberMatch
) -> NumberMatch | None:
    """``m`` extended over its fraction when a unit follows.

    The unit is the next token or is glued to the fraction's digits.
    """
    fraction = _fraction(tokens, texts, m)
    if fraction is None:
        return None
    digits, unit = fraction
    dot = m.end
    if not unit and not (dot + 2 < len(texts) and texts[dot + 2] in WEIGHT_UNIT_TOKENS):
        return None
    value = Decimal(f"{m.value}.{digits}")
    return NumberMatch(value=value, start=m.start, length=m.length + 2)


def _iter_numbers(
    tokens: Sequence[Token], texts: Sequence[str]
) -> list[tuple[NumberMatch, tuple[int, str] | None]]:
    """Each number of the sentence, with its unit's token index and text if it is a weight.

    An overflowing number is skipped whole, with its fraction, and so is a
    weight that ``format_weight`` renders as ``0``.
    """
    numbers: list[tuple[NumberMatch, tuple[int, str] | None]] = []
    i = 0
    while i < len(texts):
        m = _parse_digits(tokens, texts, i)
        if m is None:
            m = _parse_words(texts, i)
            if m is None:
                i += 1
                continue
        elif m.value > MAX_NUMBER:
            i = m.end + 2 if _fraction(tokens, texts, m) else m.end
            continue
        else:
            m = _decimal_weight(tokens, texts, m) or m
        unit = _weight_unit(texts, m)
        if unit is None or format_weight(_to_kg(m.value, unit[1])) != "0":
            numbers.append((m, unit))
        i = m.end
    return numbers


def _join_text(tokens: Sequence[Token], start: int, end: int) -> str:
    """The tokens' text as written, with one space where the source has whitespace.

    Every character between two tokens is whitespace, so for single-spaced
    text this is the source slice.
    """
    text = tokens[start].text
    for prev, tok in zip(tokens[start : end - 1], tokens[start + 1 : end]):
        text += " " + tok.text if tok.start_char > prev.end_char else tok.text
    return text


def _to_kg(value: int | Decimal, unit: str) -> float:
    # exact arithmetic rounded once, so 1.1 tonnes is 1100.0 kg
    if unit in _KG_UNITS:
        return float(value)
    if unit in _TON_UNITS:
        return float(value * 1000)
    if unit in _GRAM_UNITS:
        return float(value / 1000)
    if unit in _POUND_UNITS:
        return float(value) * _POUND_KG
    raise ValueError(f"unknown weight unit {unit!r}")


def _weight_unit(texts: Sequence[str], m: NumberMatch) -> tuple[int, str] | None:
    """The token index and unit of a number glued to or followed by a unit."""
    last = texts[m.end - 1]
    if not last.isdecimal() and (glued := _split_unit(last)) is not None:
        return m.end - 1, glued[1]
    if m.end < len(texts) and texts[m.end] in WEIGHT_UNIT_TOKENS:
        return m.end, texts[m.end]
    return None


def _weight(tokens: Sequence[Token], m: NumberMatch, unit: tuple[int, str]) -> EntitySpan:
    unit_index, unit_text = unit
    return EntitySpan(
        start_char=tokens[m.start].start_char,
        end_char=tokens[unit_index].end_char,
        text=_join_text(tokens, m.start, unit_index + 1),
        label=WEIGHT,
        canonical=repr(_to_kg(m.value, unit_text)),
        first_token=m.start,
        last_token=unit_index,
    )


def _cardinal(tokens: Sequence[Token], m: NumberMatch) -> EntitySpan:
    return EntitySpan(
        start_char=tokens[m.start].start_char,
        end_char=tokens[m.end - 1].end_char,
        text=_join_text(tokens, m.start, m.end),
        label=CARDINAL,
        canonical=str(m.value),
        first_token=m.start,
        last_token=m.end - 1,
    )


def parse_weights(sentence: SentenceSpan) -> list[tuple[EntitySpan, Weight]]:
    """Find every ``<number> <unit>`` weight in the sentence.

    The span covers the number tokens plus the unit token, or ends at the
    token the unit is glued to; the canonical is the exact kilogram value
    via ``repr`` so it survives a string round trip without loss.
    """
    tokens = sentence.tokens
    texts = _texts(tokens)
    weights = []
    for m, unit in _iter_numbers(tokens, texts):
        if unit is not None:
            unit_index, unit_text = unit
            # digits never change under casefolding, so the unit starts at the
            # same position in the token's text as in its casefolded form
            original_unit = tokens[unit_index].text[len(texts[unit_index]) - len(unit_text) :]
            weight = Weight(_to_kg(m.value, unit_text), float(m.value), original_unit)
            weights.append((_weight(tokens, m, unit), weight))
    return weights


def numeric_spans(sentence: SentenceSpan) -> list[EntitySpan]:
    """All numeric spans of a sentence, sorted: weights and cardinals.

    A number followed by a unit is a WEIGHT and never doubles as a
    CARDINAL; neither do the pieces of a decimal weight.  No unit token
    parses as a number, so one pass of the number grammar finds every
    weight and every cardinal.
    """
    tokens = sentence.tokens
    texts = _texts(tokens)
    return [
        _cardinal(tokens, m) if unit is None else _weight(tokens, m, unit)
        for m, unit in _iter_numbers(tokens, texts)
    ]
