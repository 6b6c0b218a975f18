"""Assembling trafficking events from annotated sentences.

Each candidate sentence (one with an animal or product span, or an arrest
mention) contributes events by a fixed proximity procedure:

1. every PRODUCT span pairs with the nearest ANIMAL span to its left within
   the pairing window; a paired product and its animal become one event,
   while animals that modified no product and products with no nearby
   animal each become their own event;
2. a CARDINAL immediately before an event's species or product span (within
   the quantity window) becomes that event's quantity, each cardinal
   feeding at most one event;
3. weight spans attach to the nearest event that still lacks a weight, ties
   going to the leftmost event;
4. in a sentence with an arrest lexeme, the arrest count is the nearest
   CARDINAL span within the arrest window that no event consumed as a
   quantity, or the arrest default when none is in range; CARDINAL spans
   are those left after merging, so a number inside a lexicon phrase never
   counts; the count lands on every event of the sentence, and a sentence
   with only an arrest mention yields a single event with no species or
   product;
5. the country is the nearest COUNTRY span in the sentence, falling back to
   the first COUNTRY span of the surrounding paragraph.

All distances are token distances, read from each span's token range, so
the procedure is deterministic for a given document, span list and
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

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


class _Shell:
    """Mutable event under construction for a single sentence."""

    __slots__ = ("species_span", "product_span", "anchor", "quantity", "weight_kg", "country")

    def __init__(
        self,
        species_span: EntitySpan | None = None,
        product_span: EntitySpan | None = None,
    ) -> None:
        self.species_span = species_span
        self.product_span = product_span
        spans = [s for s in (species_span, product_span) if s]
        # the token range covering both spans; None for a shell with neither
        self.anchor: tuple[int, int] | None = None
        if spans:
            self.anchor = (min(s.first_token for s in spans), max(s.last_token for s in spans))
        self.quantity: int | None = None
        self.weight_kg: float | None = None
        self.country: str | None = None


def _interval_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    # token distance between two inclusive index ranges; 0 when they touch
    if a[1] < b[0]:
        return b[0] - a[1]
    if b[1] < a[0]:
        return a[0] - b[1]
    return 0


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

            shells = _build_shells(animals, products, config.pair_window)
            if not shells:
                shells = [_Shell()]

            unconsumed = _attach_quantities(shells, cardinals, config.quantity_window)
            _attach_weights(shells, weights)
            _attach_countries(shells, countries)

            arrest = detect_arrest_count(
                sentence,
                unconsumed,
                window=config.arrest_window,
                default=config.arrest_default,
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


def _build_shells(
    animals: list[EntitySpan],
    products: list[EntitySpan],
    pair_window: int,
) -> list[_Shell]:
    shells: list[_Shell] = []
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
        shells.append(_Shell(species_span=best, product_span=product))
    for animal in animals:
        if animal not in modifier_animals:
            shells.append(_Shell(species_span=animal))
    # stable: shells anchored at the same token keep their order
    shells.sort(key=lambda shell: shell.anchor[0])
    return shells


def _attach_quantities(
    shells: list[_Shell],
    cardinals: list[EntitySpan],
    quantity_window: int,
) -> list[EntitySpan]:
    """Attach item counts; returns the cardinals not consumed as quantities."""
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
    of ``sentence``.
    """
    lexemes = [(i, i) for i, tok in enumerate(sentence.tokens) if tok.lower in ARREST_LEXEMES]
    if not lexemes:
        return None
    in_range = []
    for cardinal in cardinals:
        span = (cardinal.first_token, cardinal.last_token)
        distance = min(_interval_distance(span, lexeme) for lexeme in lexemes)
        if distance <= window:
            in_range.append((distance, cardinal.first_token, int(cardinal.canonical)))
    return min(in_range)[2] if in_range else default


def _attach_weights(shells: list[_Shell], weights: list[EntitySpan]) -> None:
    for weight in weights:
        w_range = (weight.first_token, weight.last_token)
        best: _Shell | None = None
        best_distance: int | None = None
        for shell in shells:
            if shell.weight_kg is not None:
                continue
            anchor = shell.anchor
            distance = 0 if anchor is None else _interval_distance(w_range, anchor)
            if best_distance is None or distance < best_distance:
                best = shell
                best_distance = distance
        if best is not None:
            best.weight_kg = float(weight.canonical)


def _attach_countries(shells: list[_Shell], countries: list[EntitySpan]) -> None:
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
                _interval_distance((c.first_token, c.last_token), anchor),
                c.first_token,
            ),
        )
        shell.country = best.canonical
