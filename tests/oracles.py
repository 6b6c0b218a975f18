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
they check, except the package functions below.  A fault in one of those
shows on both sides of a comparison, so only that function's own tests
can catch it:

- the segmenter and lexicon oracles call ``corpus.tokenize``, checked by
  ``tests/test_corpus.py::TestTokenize`` and
  ``::test_equal_token_texts_share_one_string``;
- the lexicon oracle calls ``lexicon.pluralize``, checked by
  ``tests/test_lexicon.py::test_pluralize`` and
  ``::test_shipped_lists_round_trip``;
- ``naive_arrest_count`` calls ``measures.parse_number``, checked by
  ``tests/test_measures.py::TestParseNumber``, ``measures.parse_weights``,
  checked by ``::TestParseWeights`` and ``::TestGluedWeights``, and
  ``measures.format_weight``, checked by
  ``tests/test_store.py::TestCsvExport::test_format_weight``;
- the evaluation oracles call ``evaluation.field_agree``, checked by
  ``tests/test_evaluation.py::TestFieldAgree``, and
  ``evaluation.pair_score``, checked by ``::TestPairScore``;
- ``random_matcher_case`` builds its table with ``Lexicon.from_rows``,
  which the lexicon oracle checks.

They also take the package's constants (``LEXICON_HEADER``,
``LEXICON_LABELS``, ``MAX_NUMBER``, ``WEIGHT_UNIT_TOKENS``,
``COMPARED_FIELDS``) and record types as they are.
"""

from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Sequence

from brieflens.assembler import TraffickingEvent
from brieflens.corpus import ReportDocument, SentenceSpan, Token, tokenize
from brieflens.evaluation import (
    COMPARED_FIELDS,
    EvalOutcome,
    MatchResult,
    field_agree,
    pair_score,
)
from brieflens.lexicon import (
    LEXICON_HEADER,
    LEXICON_LABELS,
    Lexicon,
    LexiconError,
    pluralize,
)
from brieflens.matcher import EntitySpan
from brieflens.measures import (
    MAX_NUMBER,
    WEIGHT_UNIT_TOKENS,
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
    origin: str


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


def _tokenized_key(surface: str) -> tuple[str, ...]:
    # the documented match key: the lowers of the tokens a document holding
    # the surface would have
    return tuple(tok.lower for tok in tokenize(surface))


def _naive_lexicon_table(rows: list[_LexiconRow]) -> Lexicon:
    explicit: dict[tuple[str, ...], tuple[str, str]] = {}
    first_of: dict[tuple[str, ...], _LexiconRow] = {}
    for entry in rows:
        if entry.label not in LEXICON_LABELS:
            raise LexiconError(
                f"unknown label {entry.label!r} for surface {entry.surface!r} at {entry.origin}"
            )
        key = _tokenized_key(entry.surface)
        if key == ():
            raise LexiconError(f"{entry.origin}: surface {entry.surface!r} has no tokens")
        canonical = (entry.canonical or entry.surface).casefold()
        pair = (entry.label, canonical)
        if key in explicit and explicit[key] != pair:
            first = first_of[key]
            named = "" if first.surface == entry.surface else f", as {first.surface!r}"
            raise LexiconError(
                f"surface {entry.surface!r} maps to both {explicit[key]} "
                f"(from {first.origin}{named}) and {pair} (from {entry.origin})"
            )
        explicit[key] = pair
        first_of.setdefault(key, entry)

    table = dict(explicit)
    for key, pair in explicit.items():
        if not re.match(r"[^\W_]", key[-1]):
            continue  # a punctuation token: its plural is never one token
        plural = key[:-1] + (pluralize(key[-1]),)
        if plural == key or plural in explicit:
            continue
        if plural in table and table[plural] != pair:
            written = " ".join(plural)
            raise LexiconError(
                f"auto-generated plural {written!r} is ambiguous: {table[plural]} vs {pair}"
            )
        table[plural] = pair
    return Lexicon(entries=table, n_rows=len(rows))


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
    return _naive_lexicon_table(rows)


def tokenized_phrase_table(
    rows: Iterable[tuple[str, str, str]],
) -> dict[tuple[str, ...], tuple[str, str]]:
    """The table ``Lexicon.from_rows`` documents for ``(surface, label, canonical)`` rows.

    Each surface is keyed by its ``tokenize`` lowers, and each key whose last
    token is a letter or digit run gives a plural with that token
    pluralized; errors are raised as the loader oracle raises them, with
    each row named by its 1-based position.
    """
    entries = [
        _LexiconRow(surface, label, canonical, origin=f"row {n}")
        for n, (surface, label, canonical) in enumerate(rows, start=1)
    ]
    return dict(_naive_lexicon_table(entries).entries)


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
    surface_keys = lexicon.entries
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
    read = parse_number(tokens, i)
    if read is None:
        return 0
    number, end = read
    value = Decimal(number)
    if tokens[end - 1].text.isdecimal() and _between(tokens, end, "."):
        fraction = re.fullmatch(r"(\d+)\D*", tokens[end + 1].text)
        if fraction and _unit_after(tokens, end + 1) in _KG_PER_UNIT:
            value, end = Decimal(f"{number}.{fraction[1]}"), end + 2
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
        read = parse_number(tokens, i)
        if read is None:
            i += 1
            continue
        value, end = read
        if not skip.intersection(range(i, end)):
            for pos in positions:
                distance = max(i - pos, pos - (end - 1), 0)
                if distance <= window and (best is None or (distance, i, value) < best):
                    best = (distance, i, value)
        i = end
    return default if best is None else best[2]


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
