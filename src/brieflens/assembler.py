"""Assembling trafficking events from annotated sentences.

Each candidate sentence (one with an animal or product span, or an arrest
mention) contributes events by five proximity rules.  Every rule takes the
nearest span, or event, that it may choose, ties going to the leftmost:

1. every PRODUCT span pairs with the nearest ANIMAL span that ends before
   it within the pairing window; a paired product and its animal become
   one event, while animals that modified no product and products with no
   nearby animal each become their own event, and a sentence with only an
   arrest mention yields a single event with no species or product;
2. an event's quantity is the nearest CARDINAL of at least 1, not taken by
   an earlier event, that ends before its product within the quantity
   window, and only when there is none the one before its species: the
   product's cardinal comes first, so "2 elephant 3 tusks" counts 3;
3. each WEIGHT span attaches to the nearest event that still lacks one;
4. in a sentence with an arrest lexeme, the arrest count is the CARDINAL
   span nearest to any lexeme within the arrest window that no event took
   as a quantity, or the arrest default when none is in range; CARDINAL
   spans are those left after merging, so a number inside a lexicon phrase
   never counts; the count lands on every event of the sentence;
5. the country is the nearest COUNTRY span in the sentence, falling back to
   the first COUNTRY span of the surrounding paragraph; an event with
   neither species nor product stands for its whole sentence, so it takes
   the sentence's first COUNTRY span, not the one nearest the lexeme.

All distances are token distances, read from each span's token range, so
the procedure is deterministic for a given document, span list and
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

from .corpus import ReportDocument, SentenceSpan
from .lexicon import ANIMAL, COUNTRY, PRODUCT
from .matcher import CARDINAL, WEIGHT, EntitySpan
from .resources import decode_text

__all__ = [
    "ARREST_LEXEMES",
    "HeuristicConfig",
    "TraffickingEvent",
    "assemble",
    "detect_arrest_count",
    "has_arrest_lexeme",
    "load_heuristics",
]

_T = TypeVar("_T")

ARREST_LEXEMES = frozenset(
    {"arrest", "arrested", "arrests", "apprehended", "detained", "jailed"}
)


@dataclass(frozen=True)
class HeuristicConfig:
    """Window sizes (in tokens) and the arrest default used by assembly."""

    pair_window: int = 3
    quantity_window: int = 2
    arrest_window: int = 5
    arrest_default: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValueError(f"{f.name} must not be negative, got {value}")


_HEURISTIC_KEYS = tuple(f.name for f in fields(HeuristicConfig))


def load_heuristics(path: str | Path) -> HeuristicConfig:
    """Read a key=value heuristics file.

    Text that is not UTF-8, unknown or repeated keys and negative values
    raise ``ValueError`` naming the file.
    """
    text = decode_text(Path(path).read_bytes(), path, ValueError)
    values: dict[str, int] = {}
    set_at: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _HEURISTIC_KEYS:
            raise ValueError(f"{path}:{lineno}: expected one of {_HEURISTIC_KEYS}, got {raw!r}")
        if key in set_at:
            raise ValueError(f"{path}:{lineno}: {key} repeated (first set at line {set_at[key]})")
        set_at[key] = lineno
        try:
            values[key] = int(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {value.strip()!r} is not an integer") from exc
    try:
        return HeuristicConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class TraffickingEvent:
    """One extracted event; dated by its report's year and month.

    At least one of species, product or arrest_count is always present.
    Events are slotted (no ``__dict__``), so a loaded set of tens of
    thousands of them costs what its fields hold.
    """

    report_id: str
    year: int
    month: int
    country: str | None = None
    species: str | None = None
    product: str | None = None
    quantity: int | None = None
    weight_kg: float | None = None
    arrest_count: int | None = None
    sentence_index: int = 0


class _Range(NamedTuple):
    """Inclusive token indices within one sentence, with the field names of a span's."""

    first_token: int
    last_token: int


@dataclass(slots=True)
class _Shell:
    """An event of one sentence under construction."""

    species: EntitySpan | None
    product: EntitySpan | None
    # the tokens it covers: its span, both spans, or the whole sentence without one
    anchor: EntitySpan | _Range
    quantity: EntitySpan | None = None
    weight: EntitySpan | None = None


def _apart(a: EntitySpan | _Range, b: EntitySpan | _Range) -> int:
    """Token distance between two token ranges; 0 when they overlap."""
    return max(0, b.first_token - a.last_token, a.first_token - b.last_token)


def _ends_before(anchor: EntitySpan | None) -> Callable[[EntitySpan], int | None]:
    """Distance to ``anchor`` of a span that ends before it; otherwise, or with no anchor, None."""
    # ``anchor`` and ``span`` are two merged spans of one sentence, which are
    # disjoint, so ``<`` and ``<=`` decide alike here
    return lambda span: (
        _apart(span, anchor) if anchor and span.last_token < anchor.first_token else None
    )


def _nearest(
    items: Iterable[_T],
    distance: Callable[[_T], int | None],
    window: int | None = None,
) -> _T | None:
    """The first item at the least distance, or None.

    An item whose ``distance`` is None, or above ``window``, is never chosen.
    """
    best, best_distance = None, None
    for item in items:
        d = distance(item)
        if d is None or (window is not None and d > window):
            continue
        if best_distance is None or d < best_distance:
            best, best_distance = item, d
    return best


def assemble(
    doc: ReportDocument,
    spans: Iterable[EntitySpan],
    config: HeuristicConfig = HeuristicConfig(),
) -> list[TraffickingEvent]:
    """Turn annotated spans into events, sentence order then left to right.

    ``spans`` are spans of ``doc``'s sentences sorted by offset, as
    ``merge_spans`` returns them, each carrying its token range within its
    sentence (see :class:`EntitySpan`).
    """
    by_sentence: list[list[EntitySpan]] = [[] for _ in doc.sentences]
    si = 0
    for span in spans:
        # a span lies inside its sentence and sentences are cut at whitespace, so
        # no span starts at a sentence's end_char: ``<=`` and ``<`` walk alike here
        while doc.sentences[si].end_char <= span.start_char:
            si += 1
        by_sentence[si].append(span)

    events: list[TraffickingEvent] = []
    for first, end in doc.paragraphs:
        # paragraph fallback for country attribution
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

            if not animals and not products and not has_arrest_lexeme(sentence):
                continue

            shells = []
            for product in products:
                # rule 1: the nearest animal ending before the product
                animal = _nearest(animals, _ends_before(product), config.pair_window)
                anchor = _Range(animal.first_token, product.last_token) if animal else product
                shells.append(_Shell(animal, product, anchor))
            paired = {shell.species for shell in shells}
            shells += [_Shell(animal, None, animal) for animal in animals if animal not in paired]
            # stable: shells anchored at the same token keep their order
            shells.sort(key=lambda shell: shell.anchor.first_token)
            if not shells:
                shells = [_Shell(None, None, _Range(0, len(sentence.tokens) - 1))]

            countable = [c for c in cardinals if int(c.canonical) >= 1]
            for shell in shells:
                # rule 2: the product's cardinal, else the species' cardinal
                shell.quantity = _nearest(
                    countable, _ends_before(shell.product), config.quantity_window
                ) or _nearest(countable, _ends_before(shell.species), config.quantity_window)
                if shell.quantity:
                    countable.remove(shell.quantity)

            for weight in weights:
                # rule 3: the nearest event without a weight
                shell = _nearest(shells, lambda s: None if s.weight else _apart(weight, s.anchor))
                if shell:
                    shell.weight = weight

            arrest = detect_arrest_count(
                sentence,
                # the cardinals no event took: the zeros and those still countable
                [c for c in cardinals if int(c.canonical) < 1] + countable,
                window=config.arrest_window,
                default=config.arrest_default,
            )

            for shell in shells:
                # rule 5: the nearest country in the sentence, else the paragraph's
                country = _nearest(countries, lambda c: _apart(c, shell.anchor))
                events.append(
                    TraffickingEvent(
                        report_id=doc.report_id,
                        year=doc.year,
                        month=doc.month,
                        country=country.canonical if country else paragraph_country,
                        species=shell.species.canonical if shell.species else None,
                        product=shell.product.canonical if shell.product else None,
                        quantity=int(shell.quantity.canonical) if shell.quantity else None,
                        weight_kg=float(shell.weight.canonical) if shell.weight else None,
                        arrest_count=arrest,
                        sentence_index=si,
                    )
                )
    return events


def has_arrest_lexeme(sentence: SentenceSpan) -> bool:
    """True when any token of the sentence is an arrest lexeme."""
    return any(tok.lower in ARREST_LEXEMES for tok in sentence.tokens)


def detect_arrest_count(
    sentence: SentenceSpan,
    cardinals: Iterable[EntitySpan],
    *,
    window: int,
    default: int,
) -> int | None:
    """Arrest count for a sentence, or None when no arrest lexeme occurs.

    The count is the value of the cardinal nearest to an arrest lexeme
    within ``window`` tokens, ties going to the leftmost; a lexeme with no
    cardinal in range yields ``default``.  ``cardinals`` are CARDINAL spans
    of ``sentence``, in any order.
    """
    tokens = sentence.tokens
    lexemes = [_Range(i, i) for i, tok in enumerate(tokens) if tok.lower in ARREST_LEXEMES]
    if not lexemes:
        return None
    # rule 4: the nearest cardinal to any lexeme; sorted, so ties go to the leftmost
    cardinal = _nearest(
        sorted(cardinals, key=lambda c: c.first_token),
        lambda c: min(_apart(c, lexeme) for lexeme in lexemes),
        window,
    )
    return int(cardinal.canonical) if cardinal else default
