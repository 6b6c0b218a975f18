"""Gazetteer lexicons for animals, products and countries.

A lexicon maps each surface's ``corpus.match_key``, the casefolded texts
of its tokens, to a ``(label, canonical)`` pair, where the canonical form
is always lowercase and singular; "Sea  Turtle" has the key ``("sea",
"turtle")``.  Files are plain CSV with a ``surface,label,canonical``
header; the canonical column may be left empty to default to the
casefolded surface.  Loading auto-generates a plural for every key whose
last token is a letter or digit run, with that token pluralized, so that
"tusk" and "tusks" both resolve to the canonical "tusk"; "U.S." ends in
punctuation and gets none.

``load_lexicon`` reads a file's rows into a list, then builds the table
from them through the same private builder that ``Lexicon.from_rows``
uses.  A row the reader rejects is reported first, wherever it is; then
the first label, tokenless-surface or conflict error in row order.  Two
surfaces with one key, even if they differ in case or spacing, conflict
when their pairs differ.

Inflection is a deliberately small rule cascade rather than a general
English morphology engine.  The irregulars table carries three kinds of
entries: true irregular plurals (goose/geese), invariant nouns that are
their own plural (fish, ivory), and regular-looking words whose plural
would be ambiguous to invert by suffix rules alone (horse, tortoise).
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .corpus import match_key
from .resources import decode_text

__all__ = [
    "ANIMAL",
    "COUNTRY",
    "LEXICON_LABELS",
    "Lexicon",
    "LexiconError",
    "PRODUCT",
    "load_lexicon",
    "merge_lexicons",
    "pluralize",
    "singularize",
]

ANIMAL = "ANIMAL"
PRODUCT = "PRODUCT"
COUNTRY = "COUNTRY"
LEXICON_LABELS = frozenset({ANIMAL, PRODUCT, COUNTRY})

LEXICON_HEADER = ("surface", "label", "canonical")

_VOWELS = "aeiou"

# singular -> plural.  Identity entries mark invariant (often mass) nouns.
IRREGULAR_PLURALS: dict[str, str] = {
    "goose": "geese",
    "mongoose": "mongooses",
    "mouse": "mice",
    "dormouse": "dormice",
    "ox": "oxen",
    "tooth": "teeth",
    "buffalo": "buffaloes",
    # suffix rules cannot invert these: the plural ends in "-ses" but the
    # singular ends in "-se", so they ride the irregulars table instead.
    "horse": "horses",
    "seahorse": "seahorses",
    "tortoise": "tortoises",
    "porpoise": "porpoises",
    # invariant nouns
    "bison": "bison",
    "deer": "deer",
    "fish": "fish",
    "grouse": "grouse",
    "ivory": "ivory",
    "meat": "meat",
    "moose": "moose",
    "sheep": "sheep",
    "species": "species",
    "wildebeest": "wildebeest",
}

_REVERSE_IRREGULARS: dict[str, str] = {v: k for k, v in IRREGULAR_PLURALS.items()}
# identity entries resolve to themselves; "horses" -> "horse" etc. win over
# the generic suffix rules because this table is consulted first.

_F_TO_VES: dict[str, str] = {"wolf": "wolves", "calf": "calves", "leaf": "leaves"}
_VES_TO_F: dict[str, str] = {v: k for k, v in _F_TO_VES.items()}

_ES_STEMS = ("ss", "x", "z", "ch", "sh")


def pluralize(singular: str) -> str:
    """Pluralize a lowercase singular noun; multi-word terms inflect the last word."""
    if " " in singular:
        head, _, last = singular.rpartition(" ")
        return f"{head} {pluralize(last)}"
    word = singular
    if word in IRREGULAR_PLURALS:
        return IRREGULAR_PLURALS[word]
    if len(word) >= 2 and word.endswith("y") and word[-2] not in _VOWELS:
        return word[:-1] + "ies"
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    if word in _F_TO_VES:
        return _F_TO_VES[word]
    return word + "s"


def _singularize_word(word: str) -> str:
    if word in _REVERSE_IRREGULARS:
        return _REVERSE_IRREGULARS[word]
    if len(word) > 3 and word.endswith("ies"):
        return word[:-3] + "y"
    if word in _VES_TO_F:
        return _VES_TO_F[word]
    if word.endswith("es") and word[:-2].endswith(_ES_STEMS):
        return word[:-2]
    if word.endswith("ses"):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def singularize(surface: str) -> str:
    """Return the singular of ``surface``.

    The inverse of the pluralization cascade is applied to the case-folded
    surface, last word only for multi-word terms.
    """
    key = surface.casefold()
    if " " in key:
        head, _, last = key.rpartition(" ")
        return f"{head} {_singularize_word(last)}"
    return _singularize_word(key)


class LexiconError(ValueError):
    """Raised for unreadable rows, unknown labels or conflicting surfaces."""


@dataclass(frozen=True)
class Lexicon:
    """Immutable phrase table: ``match_key(surface)`` -> (label, canonical)."""

    entries: Mapping[tuple[str, ...], tuple[str, str]]
    n_rows: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def version(self) -> str:
        """A digest of the table, match keys included, computed when read.

        Equal tables have one version, whatever file, byte-order mark,
        comments, row order or merge order they came from.
        """
        table = repr(sorted(self.entries.items())).encode("utf-8")
        return hashlib.sha256(table).hexdigest()[:16]

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "Lexicon":
        """Build a lexicon from ``(surface, label[, canonical])`` rows and their plurals.

        Explicit rows conflict when two surfaces with one match key map to
        different (label, canonical) pairs.  Auto-generated plurals never
        override an explicit row; two auto plurals that disagree are a
        conflict as well.  A row with fewer than two cells, an empty surface
        or a surface with no tokens is rejected, with its 1-based position.
        """
        return _build_table(_given_rows(rows))


def _given_rows(rows: Iterable[tuple]) -> Iterator[tuple[str, str, str, str]]:
    """Yield ``from_rows``'s rows as the table builder reads them."""
    for position, row in enumerate(rows, start=1):
        if len(row) < 2 or not row[0]:
            raise LexiconError(f"row {position}: need at least surface and label")
        yield row[0], row[1], row[2] if len(row) > 2 else "", f"row {position}"


def _build_table(rows: Iterable[tuple[str, str, str, str]]) -> Lexicon:
    """The one table builder behind ``from_rows`` and ``load_lexicon``.

    ``rows`` yields ``(surface, label, canonical, where)``, where ``where``
    names the row in errors.  The rows are all read before any is checked,
    so a row the reader rejects is reported first, wherever it is.
    """
    rows = list(rows)
    explicit: dict[tuple[str, ...], tuple[str, str]] = {}
    first_row: dict[tuple[str, ...], tuple[str, str]] = {}  # key -> (surface, where)
    for surface, label, canonical, where in rows:
        if label not in LEXICON_LABELS:
            raise LexiconError(f"unknown label {label!r} for surface {surface!r} at {where}")
        key = match_key(surface)
        if not key:
            raise LexiconError(f"{where}: surface {surface!r} has no tokens")
        pair = (label, (canonical or surface).casefold())
        known = explicit.setdefault(key, pair)
        if known is pair:
            first_row[key] = (surface, where)
        elif known != pair:
            first, first_where = first_row[key]
            raise LexiconError(
                f"surface {surface!r} maps to both {known} (from {first_where}"
                + ("" if first == surface else f", as {first!r}")
                + f") and {pair} (from {where})"
            )

    table = dict(explicit)
    for key, pair in explicit.items():
        if not key[-1][0].isalnum():
            continue  # punctuation is always its own token: no brief holds ".s"
        plural = (*key[:-1], pluralize(key[-1]))
        if plural == key or plural in explicit:
            continue
        known = table.setdefault(plural, pair)
        if known != pair:
            raise LexiconError(
                f"auto-generated plural {' '.join(plural)!r} is ambiguous: {known} vs {pair}"
            )

    return Lexicon(entries=table, n_rows=len(rows))


def _file_rows(text: str, origin: str) -> Iterator[tuple[str, str, str, str]]:
    """Yield each data row of a lexicon file with its ``origin:line``.

    Blank and ``#`` comment lines are skipped, and cells are stripped.  The
    first other line must be the header.  A file with no content at all is
    a valid empty lexicon.
    """
    header_seen = False
    for line, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        cells = list(map(str.strip, row))
        if not any(cells) or cells[0].startswith("#"):
            continue
        if not header_seen:
            if tuple(cells[:3]) != LEXICON_HEADER:
                raise LexiconError(
                    f"{origin}:{line}: expected header "
                    f"{','.join(LEXICON_HEADER)!r}, got {','.join(cells)!r}"
                )
            header_seen = True
            continue
        if len(cells) < 2 or not cells[0]:
            raise LexiconError(f"{origin}:{line}: need at least surface and label")
        yield cells[0], cells[1], cells[2] if len(cells) > 2 else "", f"{origin}:{line}"


def load_lexicon(path: str | Path) -> Lexicon:
    """Load one lexicon CSV."""
    path = Path(path)
    rows = _file_rows(decode_text(path.read_bytes(), path, LexiconError), path.name)
    try:
        return _build_table(rows)
    except csv.Error as exc:  # an overlong field
        raise LexiconError(f"{path.name}: {exc}") from exc


def merge_lexicons(lexicons: Iterable[Lexicon]) -> Lexicon:
    """Merge lexicons into one phrase table; cross-file conflicts are errors."""
    merged: dict[tuple[str, ...], tuple[str, str]] = {}
    n_rows = 0
    for lex in lexicons:
        n_rows += lex.n_rows
        for key, pair in lex.entries.items():
            known = merged.setdefault(key, pair)
            if known != pair:
                raise LexiconError(
                    f"phrase {' '.join(key)!r} maps to both {known} and {pair} across lexicons"
                )
    return Lexicon(entries=merged, n_rows=n_rows)
