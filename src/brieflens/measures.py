"""Parsing counts and weights out of token streams.

Numbers come in two shapes: digit strings with optional thousands
separators ("1,200") and English number words composed from units, teens,
tens and the hundred/thousand multipliers ("twenty-five", "three hundred
and six").  Values outside 0..999,999 are not recognised.  Thousands
groups are written without spaces: "3, 200" is the two numbers 3 and 200.

One reader takes each number of a sentence, in this order:

1. The number itself, in digits with their thousands groups or in words.
2. Its fraction: a "." and digits written against its last plain digits.
   The tokenizer splits "12.5" into "12", "." and "5", and the reader puts
   them back together as one value.
3. Its unit, glued to the last digits ("513kg", "12.5kg", "1,200kg",
   which the tokenizer keeps as one token) or the next token.  A number
   with a unit is a weight, normalised to kilograms, and never a cardinal.
   The fraction belongs to the number only when a unit follows it, so
   "12.5 tusks" is the two cardinals 12 and 5.
4. The skips.  A number above 999,999 ("1000000", "1,000,000") is no
   number: it is skipped with its fraction, so none of its groups and
   none of its fraction's digits reads as a number of its own.  A weight
   that the interchange format renders as 0 kg is skipped whole, whether
   it is zero ("0 kg", "0kg", "zero kg", "0.0 kg") or too small to carry
   ("0.0000001 kg"), so none of its pieces becomes a quantity or an
   arrest count.

Each reader, ``parse_number`` included, takes the index of a number's
first token and returns its value with the index after its last token,
where the next read resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator, Sequence

from .corpus import SentenceSpan, Token
from .matcher import CARDINAL, WEIGHT, EntitySpan

__all__ = [
    "MAX_NUMBER",
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
# every word that begins a number: the words below 100, "twenty-five" included
_BELOW_HUNDRED = {
    "zero": 0, **_UNITS, **_TEENS, **_TENS,
    **{f"{tens}-{unit}": _TENS[tens] + _UNITS[unit] for tens in _TENS for unit in _UNITS},
}

_POUND_KG = 0.45359237
# unit token -> its conversion to kilograms, exact arithmetic rounded once,
# so 1.1 tonnes is 1100.0 kg
_TO_KG = {
    unit: convert
    for units, convert in [
        (("kg", "kilogram", "kilograms", "kilo", "kilos"), lambda value: float(value)),
        (("t", "ton", "tons", "tonne", "tonnes"), lambda value: float(value * 1000)),
        (("g", "gram", "grams"), lambda value: float(value / 1000)),
        (("lb", "lbs", "pound", "pounds"), lambda value: float(value) * _POUND_KG),
    ]
    for unit in units
}
WEIGHT_UNIT_TOKENS = frozenset(_TO_KG)


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


def _parse_digits(tokens: Sequence[Token], texts: Sequence[str], i: int) -> tuple[int, int] | None:
    """The number written in digits at ``i``, with its thousands groups, and the index after it.

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
    if len(digits) > _MAX_DIGITS and any(int(ch) for ch in digits[:-_MAX_DIGITS]):
        value = MAX_NUMBER + 1
    else:
        value = int(digits[-_MAX_DIGITS:])
    j = i + 1
    if not unit and len(digits) <= 3:
        while j + 1 < len(texts) and texts[j] == "," and _touches(tokens, j):
            group = _split_unit(texts[j + 1])
            if group is None or len(group[0]) != 3:
                break
            # capped, so that a long overflowing run costs no big-integer arithmetic
            value = min(value * 1000 + int(group[0]), MAX_NUMBER + 1)
            j += 2
            unit = group[1]
            if unit:
                break
    return value, j


def _word(texts: Sequence[str], j: int) -> str:
    """Token ``j``, or "" past the sentence's end, which no rule reads as a number."""
    return texts[j] if j < len(texts) else ""


def _parse_below_hundred(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    """The number below 100 written in words at ``i``, and the index after it."""
    tok = _word(texts, i)
    if tok not in _BELOW_HUNDRED:
        return None
    if tok in _TENS and _word(texts, i + 1) in _UNITS:
        return _TENS[tok] + _UNITS[texts[i + 1]], i + 2
    return _BELOW_HUNDRED[tok], i + 1


def _parse_below_thousand(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    """The number below 1000 written in words at ``i``, and the index after it."""
    if _word(texts, i) not in _UNITS or _word(texts, i + 1) != "hundred":
        return _parse_below_hundred(texts, i)
    hundreds, j = _UNITS[texts[i]] * 100, i + 2
    # "and" joins only a number below 100 that follows it
    rest = _parse_below_hundred(texts, j + (_word(texts, j) == "and"))
    return (hundreds + rest[0], rest[1]) if rest else (hundreds, j)


def _parse_words(texts: Sequence[str], i: int) -> tuple[int, int] | None:
    """The number written in words at ``i``, and the index after it."""
    # one lookup, as this runs at every word token; a token that passes it
    # begins a number, so the reader below finds one
    if texts[i] not in _BELOW_HUNDRED:
        return None
    value, j = _parse_below_thousand(texts, i)
    if value and _word(texts, j) == "thousand":
        rest = _parse_below_thousand(texts, j + 1)
        value, j = (value * 1000 + rest[0], rest[1]) if rest else (value * 1000, j + 1)
    # the largest, "nine hundred and ninety-nine thousand nine hundred and
    # ninety-nine", is MAX_NUMBER: a number in words never overflows
    return value, j


def parse_number(tokens: Sequence[Token], start: int = 0) -> tuple[int, int] | None:
    """The number starting exactly at ``start`` and the index after it; None when none does."""
    texts = _texts(tokens)
    if not 0 <= start < len(texts):
        return None
    read = _parse_digits(tokens, texts, start) or _parse_words(texts, start)
    return None if read is None or read[0] > MAX_NUMBER else read


def _read_number(
    tokens: Sequence[Token], texts: Sequence[str], value: int, end: int
) -> tuple[int | Decimal | None, int, str]:
    """``value``, read up to ``end``, read on over its fraction and unit in the module's order.

    Returns the value, the index after the last token read (a weight's
    unit token) and the unit, "" for a cardinal.  The value is None when
    the number is skipped up to that index.
    """
    unit, fraction = "", None
    if texts[end - 1].isdecimal():
        if end + 1 < len(texts) and texts[end] == "." and _touches(tokens, end):
            fraction = _split_unit(texts[end + 1])
    elif (glued := _split_unit(texts[end - 1])) is not None:  # None for a number word
        unit = glued[1]
    tail = end + 2 if fraction else end  # the index after the last digits read
    if value > MAX_NUMBER:
        return None, tail, ""
    if fraction:
        unit = fraction[1]
    if not unit and tail < len(texts) and texts[tail] in WEIGHT_UNIT_TOKENS:
        unit = texts[tail]
        tail += 1
    if not unit:
        # a fraction is read only for a weight: "12.5 tusks" is 12, then 5
        return value, end, ""
    if fraction:
        value = Decimal(f"{value}.{fraction[0]}")
    if format_weight(_TO_KG[unit](value)) == "0":
        return None, tail, ""
    return value, tail, unit


def _iter_numbers(
    tokens: Sequence[Token], texts: Sequence[str]
) -> Iterator[tuple[int | Decimal, int, int, str]]:
    """Each number of the sentence: value, first token, index after it, and unit ("" for none)."""
    i = 0
    while i < len(texts):
        read = _parse_digits(tokens, texts, i) or _parse_words(texts, i)
        if read is None:
            i += 1
            continue
        value, end, unit = _read_number(tokens, texts, *read)
        if value is not None:
            yield value, i, end, unit
        i = end


def _span(sentence: SentenceSpan, number: tuple[int | Decimal, int, int, str]) -> EntitySpan:
    """The span of a number from ``_iter_numbers``: a WEIGHT if it has a unit, else a CARDINAL."""
    value, start, end, unit = number
    label, canonical = (WEIGHT, repr(_TO_KG[unit](value))) if unit else (CARDINAL, str(value))
    return EntitySpan.cut(sentence, start, end - 1, label, canonical)


def parse_weights(sentence: SentenceSpan) -> list[tuple[EntitySpan, Weight]]:
    """Find every ``<number> <unit>`` weight in the sentence.

    The span covers the number tokens plus the unit token, or ends at the
    token the unit is glued to, and its text is their source slice, spaces
    as written; the canonical is the exact kilogram value via ``repr`` so
    it survives a string round trip without loss.
    """
    tokens = sentence.tokens
    texts = _texts(tokens)
    weights = []
    for number in _iter_numbers(tokens, texts):
        value, _, end, unit = number
        if unit:
            # digits never change under casefolding, so the unit starts at the
            # same position in the token's text as in its casefolded form
            original_unit = tokens[end - 1].text[len(texts[end - 1]) - len(unit) :]
            weight = Weight(_TO_KG[unit](value), float(value), original_unit)
            weights.append((_span(sentence, number), weight))
    return weights


def numeric_spans(sentence: SentenceSpan) -> list[EntitySpan]:
    """All numeric spans of a sentence, sorted: weights and cardinals, cut from its text.

    A number followed by a unit is a WEIGHT and never doubles as a
    CARDINAL; neither do the pieces of a decimal weight.  No unit token
    parses as a number, so one pass of the number grammar finds every
    weight and every cardinal.
    """
    tokens = sentence.tokens
    texts = _texts(tokens)
    return [_span(sentence, number) for number in _iter_numbers(tokens, texts)]
