"""Seeded generator of enforcement briefs with planted gold events.

Every brief is written from sentence templates whose events are known
when the sentence is written, so the gold is planted rather than derived
by running the extractor.  The templates keep to what the extraction
rules can read without ambiguity:

- a product pairs only with an animal written directly before it
  ("elephant tusks"), and a product without an animal only ever opens a
  list, so no stray animal sits within the pairing window before it;
- a count sits at most two tokens before what it counts, and every
  number in a sentence with events is a count, a weight, or the arrest
  count placed next to its arrest word;
- a weight follows its item ("weighing 40 kg") or opens the first item
  ("40 kg of ivory"), so the nearest event still lacking a weight is its
  own;
- a sentence with events names at most one country; events of a sentence
  without one take the first country named in the paragraph;
- no sentence ends on an abbreviation ("kg.") or starts with a digit, so
  the segmenter splits exactly where the generator did.

The same seed always gives byte-identical briefs and gold.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

CSV_COLUMNS = (
    "report_id", "year", "month", "country", "species", "product",
    "quantity", "weight_kg", "arrest_count",
)
EVAL_KEYS = ("fully", "partial", "unrelated", "undetected", "total_gold")


class Event(NamedTuple):
    report_id: str
    year: int
    month: int
    country: str | None
    species: str | None
    product: str | None
    quantity: int | None
    weight_kg: float | None
    arrest_count: int | None


@dataclass
class Brief:
    report_id: str
    year: int
    month: int
    text: str
    events: list[Event] = field(default_factory=list)

    @property
    def filename(self) -> str:
        return f"{self.report_id}.txt"


# (singular, plural, canonical); plurals are the ones the shipped lexicon
# generates, canonicals the lexicon's canonical column.
ANIMALS = (
    ("elephant", "elephants", "elephant"), ("pangolin", "pangolins", "pangolin"),
    ("leopard", "leopards", "leopard"), ("lion", "lions", "lion"),
    ("tiger", "tigers", "tiger"), ("cheetah", "cheetahs", "cheetah"),
    ("chimpanzee", "chimpanzees", "chimpanzee"), ("gorilla", "gorillas", "gorilla"),
    ("African grey parrot", "African grey parrots", "african grey parrot"),
    ("parrot", "parrots", "parrot"), ("tortoise", "tortoises", "tortoise"),
    ("sea turtle", "sea turtles", "sea turtle"), ("python", "pythons", "python"),
    ("crocodile", "crocodiles", "crocodile"),
    ("monitor lizard", "monitor lizards", "monitor lizard"),
    ("chameleon", "chameleons", "chameleon"), ("hippo", "hippos", "hippopotamus"),
    ("rhino", "rhinos", "rhinoceros"), ("giraffe", "giraffes", "giraffe"),
    ("zebra", "zebras", "zebra"), ("duiker", "duikers", "duiker"),
    ("hornbill", "hornbills", "hornbill"), ("vulture", "vultures", "vulture"),
    ("eagle", "eagles", "eagle"), ("owl", "owls", "owl"),
    ("monkey", "monkeys", "monkey"), ("shark", "sharks", "shark"),
    ("sea cucumber", "sea cucumbers", "sea cucumber"),
    ("seahorse", "seahorses", "seahorse"), ("buffalo", "buffaloes", "buffalo"),
    ("wolf", "wolves", "wolf"), ("goose", "geese", "goose"),
    ("mongoose", "mongooses", "mongoose"), ("honey badger", "honey badgers", "honey badger"),
    ("porcupine", "porcupines", "porcupine"), ("civet", "civets", "civet"),
    ("okapi", "okapis", "okapi"), ("ostrich", "ostriches", "ostrich"),
    ("hyena", "hyenas", "hyena"), ("mandrill", "mandrills", "mandrill"),
    ("fox", "foxes", "fox"), ("scorpion", "scorpions", "scorpion"),
    ("bonobo", "bonobos", "bonobo"),
)
_ANIMAL = {a[0]: a for a in ANIMALS}

# product -> (singular, plural, countable, animals that plausibly modify it)
PRODUCTS = {
    "tusk": ("tusk", "tusks", True, ("elephant", "hippo")),
    "skin": ("skin", "skins", True,
             ("leopard", "python", "crocodile", "lion", "cheetah", "monitor lizard", "zebra")),
    "scale": ("scale", "scales", True, ("pangolin",)),
    "horn": ("horn", "horns", True, ("rhino", "buffalo")),
    "bone": ("bone", "bones", True, ("lion", "tiger", "leopard", "gorilla", "chimpanzee")),
    "tooth": ("tooth", "teeth", True, ("hippo", "lion", "crocodile", "shark")),
    "claw": ("claw", "claws", True, ("lion", "leopard", "tiger", "eagle")),
    "ivory": ("ivory", "ivory", False, ("elephant", "hippo")),
    "meat": ("meat", "meat", False,
             ("pangolin", "duiker", "monkey", "sea turtle", "crocodile", "porcupine", "buffalo")),
}

# (surface, canonical), including multi-word names and aliases
COUNTRIES = (
    ("Angola", "angola"), ("Benin", "benin"), ("Burkina Faso", "burkina faso"),
    ("Burundi", "burundi"), ("Cambodia", "cambodia"), ("Cameroon", "cameroon"),
    ("Central African Republic", "central african republic"), ("Chad", "chad"),
    ("China", "china"), ("Congo", "congo"), ("Republic of Congo", "congo"),
    ("Congo-Brazzaville", "congo"), ("Côte d'Ivoire", "côte d'ivoire"),
    ("Cote d'Ivoire", "côte d'ivoire"), ("Ivory Coast", "côte d'ivoire"),
    ("Democratic Republic of Congo", "democratic republic of congo"),
    ("DRC", "democratic republic of congo"), ("Ethiopia", "ethiopia"),
    ("Gabon", "gabon"), ("Ghana", "ghana"), ("Guinea", "guinea"),
    ("Guinea-Bissau", "guinea-bissau"), ("Hong Kong", "hong kong"), ("Kenya", "kenya"),
    ("Laos", "laos"), ("Liberia", "liberia"), ("Malaysia", "malaysia"), ("Mali", "mali"),
    ("Mozambique", "mozambique"), ("Niger", "niger"), ("Nigeria", "nigeria"),
    ("Rwanda", "rwanda"), ("Senegal", "senegal"), ("Sierra Leone", "sierra leone"),
    ("South Africa", "south africa"), ("Tanzania", "tanzania"), ("Togo", "togo"),
    ("Uganda", "uganda"), ("Vietnam", "vietnam"), ("Zambia", "zambia"),
    ("Zimbabwe", "zimbabwe"),
)

# unit surface -> kilograms for an integer value, as the extractor converts
_UNITS = {
    "kg": lambda v: float(v), "kilograms": lambda v: float(v),
    "t": lambda v: v * 1000.0, "tonnes": lambda v: v * 1000.0, "tons": lambda v: v * 1000.0,
    "g": lambda v: v / 1000.0, "grams": lambda v: v / 1000.0,
    "lb": lambda v: v * 0.45359237, "pounds": lambda v: v * 0.45359237,
}
_UNIT_RANGES = {
    "kg": (1, 2400), "kilograms": (2, 900), "t": (1, 14), "tonnes": (2, 14),
    "tons": (2, 9), "g": (20, 950), "grams": (20, 950), "lb": (2, 400), "pounds": (2, 400),
}

ACTORS = (
    "Customs officers", "Rangers", "Police officers", "Wildlife officials", "Border guards",
    "Investigators", "Park rangers", "Gendarmes", "A joint patrol", "Port inspectors",
)
VERBS = ("seized", "recovered", "intercepted", "confiscated", "found")
PLACES = (
    "at the main port", "at a police roadblock", "near the northern border",
    "in a rented warehouse", "at the international airport", "on a night passenger bus",
    "in a private residence", "at a local market", "during a routine patrol",
    "inside a shipping container", "at a checkpoint outside the capital",
    "in the boot of a car", "at a busy bus station", "in a riverside village",
)
PEOPLE = (
    "suspects", "traffickers", "men", "women", "dealers", "poachers", "people", "couriers",
)
PERSON = ("suspect", "trafficker", "dealer", "poacher", "courier", "smuggler")
ADJ_ANIMAL = ("live", "juvenile", "dead", "smoked")
PACKING = (
    "packed in wooden crates", "hidden in sacks of charcoal", "concealed under a false floor",
    "wrapped in plastic sheeting", "declared as household goods", "bound for overseas buyers",
    "stored in a cold room", "loaded onto a fishing boat",
)
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July", "August",
    "September", "October", "November", "December",
)
REGIONS = (
    "coastal", "eastern", "northern", "savanna", "forest", "lakes", "delta", "highland",
)
CONTEXT = (
    "Investigations into the wider supply network are continuing this month.",
    "The case has been referred to the public prosecutor.",
    "Court hearings in the related cases are expected to open next month.",
    "Intelligence sharing between the partner agencies improved during the period.",
    "Several leads are being followed up with partner agencies.",
    "The team also delivered awareness sessions in local schools.",
    "Further details will be shared once the investigation allows.",
    "Community informants continue to play a central role in this work.",
)
CONTEXT_COUNTRY = (
    "Officers in {c} reported a steady level of activity during the month.",
    "Cooperation with the authorities in {c} continued throughout the period.",
    "The field office in {c} coordinated the operations described below.",
    "Activity in {c} remained concentrated along the main transport routes.",
)

_ONES = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
    "seventeen", "eighteen", "nineteen",
)
_TENS = {2: "twenty", 3: "thirty", 4: "forty", 5: "fifty", 6: "sixty", 7: "seventy",
         8: "eighty", 9: "ninety"}


def spell(n: int, rng: random.Random) -> str:
    """English words for 1..999 in one of the forms the number grammar reads."""
    if n < 20:
        return _ONES[n]
    if n < 100:
        tens, unit = divmod(n, 10)
        if unit == 0:
            return _TENS[tens]
        return f"{_TENS[tens]}{rng.choice('- ')}{_ONES[unit]}"
    hundreds, rest = divmod(n, 100)
    head = f"{_ONES[hundreds]} hundred"
    if rest == 0:
        return head
    return f"{head}{rng.choice((' and ', ' '))}{spell(rest, rng)}"


def number(n: int, rng: random.Random) -> str:
    if n < 1000 and rng.random() < (0.6 if n <= 12 else 0.2):
        return spell(n, rng)
    return f"{n:,}"


class _Sentence(NamedTuple):
    text: str
    # events with country=None stand for "the paragraph's first country"
    events: list[dict]
    countries: list[str]  # canonical names, in text order


class BriefWriter:
    """Writes briefs of one workload from one random stream."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    # -- small parts -------------------------------------------------------

    def _count(self) -> int:
        r = self.rng.random()
        if r < 0.7:
            return self.rng.randint(2, 12)
        if r < 0.95:
            return self.rng.randint(2, 360)
        return self.rng.randint(1000, 4000)

    def _weight(self) -> tuple[str, float]:
        unit = self.rng.choice(tuple(_UNITS))
        low, high = _UNIT_RANGES[unit]
        value = self.rng.randint(low, high)
        if unit in ("t", "kg", "g", "lb") or value > 100:
            text = f"{value:,}"
        else:
            text = number(value, self.rng)
        return f"{text} {unit}", _UNITS[unit](value)

    def _country(self) -> tuple[str, str]:
        return self.rng.choice(COUNTRIES)

    def item(self, first: bool) -> tuple[str, dict]:
        """One seized item and its partial event.

        A product without an animal, and the "<weight> of <item>" form, are
        only written as the first item of a sentence.
        """
        rng = self.rng
        kinds = ["paired", "animal", "product"] if first else ["paired", "animal"]
        kind = rng.choices(kinds, weights=(5, 4, 2)[: len(kinds)])[0]
        event = {"species": None, "product": None, "quantity": None, "weight_kg": None}
        weight_first = first and rng.random() < 0.25
        if kind == "animal":
            singular, plural, canonical = rng.choice(ANIMALS)
            event["species"] = canonical
            if weight_first:
                words = f"{{w}} of {rng.choice(('live', 'smoked', 'dried'))} {plural}"
            else:
                adj = f"{rng.choice(ADJ_ANIMAL)} " if rng.random() < 0.3 else ""
                r = rng.random()
                if r < 0.55:
                    qty = self._count()
                    event["quantity"] = qty
                    words = f"{number(qty, rng)} {adj}{plural}"
                elif r < 0.7:
                    event["quantity"] = 1
                    words = f"one {adj}{singular}"
                elif r < 0.85:
                    article = "an" if (adj or singular)[0] in "aeiouAEIOU" else "a"
                    words = f"{article} {adj}{singular}"
                else:
                    words = f"{adj}{plural}"
        else:
            key = rng.choice(tuple(PRODUCTS))
            singular, plural, countable, modifiers = PRODUCTS[key]
            event["product"] = key
            modifier = ""
            if kind == "paired":
                animal = _ANIMAL[rng.choice(modifiers)]
                event["species"] = animal[2]
                modifier = f"{animal[0]} "
            if weight_first:
                words = f"{{w}} of {modifier}{plural}"
            elif countable and rng.random() < 0.65:
                qty = self._count()
                event["quantity"] = qty
                words = f"{number(qty, rng)} {modifier}{plural}"
            elif kind == "product":
                words = f"{rng.choice(('raw', 'worked', 'processed', 'carved'))} {plural}"
            else:
                words = f"{modifier}{plural}"
        if weight_first:
            weight_text, kg = self._weight()
            event["weight_kg"] = kg
            words = words.replace("{w}", weight_text)
        elif rng.random() < 0.3:
            weight_text, kg = self._weight()
            event["weight_kg"] = kg
            words = f"{words} weighing {weight_text}"
        return words, event

    def _people(self, initial: bool = False) -> tuple[str, int]:
        """An arrest object: '<n> <people>' or 'a <person>' (the default count).

        ``initial`` spells the number out, since a sentence that starts with
        a digit does not start a new sentence for the segmenter.
        """
        rng = self.rng
        if rng.random() < 0.25:
            return f"a {rng.choice(PERSON)}", 1
        n = rng.randint(2, 9) if rng.random() < 0.85 else rng.randint(10, 40)
        count = spell(n, rng) if initial else number(n, rng)
        return f"{count} {rng.choice(PEOPLE)}", n

    # -- sentences ---------------------------------------------------------

    def seizure(self, with_country: bool) -> _Sentence:
        rng = self.rng
        items = [self.item(first=True)]
        if rng.random() < 0.25:
            items.append(self.item(first=False))
        listed = " and ".join(words for words, _ in items)
        events = [dict(e, arrest_count=None) for _, e in items]
        actor, verb, place = rng.choice(ACTORS), rng.choice(VERBS), rng.choice(PLACES)
        country = self._country() if with_country else None
        where = f" in {country[0]}" if country else ""
        form = rng.random()
        if form < 0.2:
            people, n = self._people()
            text = f"{actor}{where} {verb} {listed} {place} and arrested {people}."
            for e in events:
                e["arrest_count"] = n
        elif form < 0.35:
            people, n = self._people(initial=country is None)
            verb_phrase = "was" if people.startswith("a ") else "were"
            lexeme = rng.choice(("arrested", "detained", "apprehended"))
            subject = people[0].upper() + people[1:]
            if country:
                subject = f"In {country[0]}, {people}"
            text = f"{subject} {verb_phrase} {lexeme} with {listed} {place}."
            for e in events:
                e["arrest_count"] = n
        elif country and form < 0.6:
            text = f"In {country[0]}, {actor[0].lower() + actor[1:]} {verb} {listed} {place}."
        else:
            text = f"{actor}{where} {verb} {listed} {place}."
        own = country[1] if country else None
        for e in events:
            e["country"] = own
        return _Sentence(text, events, [own] if own else [])

    def arrest_only(self, with_country: bool) -> _Sentence:
        rng = self.rng
        country = self._country() if with_country else None
        people, n = self._people(initial=country is None)
        place = rng.choice(PLACES)
        if rng.random() < 0.5:
            actor = rng.choice(("Police", "Gendarmes", "Investigators", "Border guards"))
            where = f" in {country[0]}" if country else ""
            text = f"{actor}{where} arrested {people} {place}."
        else:
            verb_phrase = "was" if people.startswith("a ") else "were"
            lexeme = rng.choice(("detained", "apprehended", "arrested", "jailed"))
            subject = people[0].upper() + people[1:]
            if country:
                subject = f"In {country[0]}, {people}"
            text = f"{subject} {verb_phrase} {lexeme} {place}."
        own = country[1] if country else None
        event = {"species": None, "product": None, "quantity": None, "weight_kg": None,
                 "arrest_count": n, "country": own}
        return _Sentence(text, [event], [own] if own else [])

    def context(self, with_country: bool) -> _Sentence:
        rng = self.rng
        if with_country:
            surface, canonical = self._country()
            return _Sentence(rng.choice(CONTEXT_COUNTRY).format(c=surface), [], [canonical])
        if rng.random() < 0.25:
            day, month = rng.randint(1, 28), rng.choice(MONTHS)
            officers = rng.randint(12, 60)
            return _Sentence(
                f"On {day} {month}, a training workshop was held for {officers} officers.",
                [], [])
        if rng.random() < 0.2:
            (a, ca), (b, cb) = self._country(), self._country()
            return _Sentence(
                f"Patrols were reinforced along the route between {a} and {b}.",
                [], [ca, cb])
        return _Sentence(rng.choice(CONTEXT), [], [])

    def listing(self, with_country: bool) -> _Sentence:
        """A compendium sentence listing 6 to 12 seizures."""
        rng = self.rng
        count = rng.randint(7, 12)
        items = [self.item(first=(i == 0)) for i in range(count)]
        # a trailing note only widens the gap to the next item's numbers
        parts = [f"{words} {rng.choice(PACKING)}" if rng.random() < 0.6 else words
                 for words, _ in items]
        listed = ", ".join(parts[:-1]) + ", and " + parts[-1]
        events = [dict(e, arrest_count=None) for _, e in items]
        country = self._country() if with_country else None
        where = f" in {country[0]}" if country else ""
        actor, place = rng.choice(ACTORS), rng.choice(PLACES)
        if rng.random() < 0.3:
            people, n = self._people()
            text = (f"{actor}{where} arrested {people} and recorded the following seizures:"
                    f" {listed} {place}.")
            for e in events:
                e["arrest_count"] = n
        else:
            text = f"{actor}{where} recorded the following seizures: {listed} {place}."
        own = country[1] if country else None
        for e in events:
            e["country"] = own
        return _Sentence(text, events, [own] if own else [])

    # -- briefs ------------------------------------------------------------

    def _brief(self, report_id: str, year: int, month: int, title: str,
               paragraphs: list[list[_Sentence]]) -> Brief:
        events: list[Event] = []
        blocks = [title]
        for sentences in paragraphs:
            mentioned = [c for s in sentences for c in s.countries]
            fallback = mentioned[0] if mentioned else None
            for s in sentences:
                for e in s.events:
                    events.append(Event(
                        report_id, year, month, e["country"] or fallback, e["species"],
                        e["product"], e["quantity"], e["weight_kg"], e["arrest_count"],
                    ))
            body = " ".join(s.text for s in sentences)
            blocks.append(textwrap.fill(body, width=78, break_on_hyphens=False,
                                        break_long_words=False))
        text = "\n\n".join(blocks) + "\n"
        return Brief(report_id, year, month, text, events)

    def monthly(self, report_id: str, year: int, month: int) -> Brief:
        rng = self.rng
        paragraphs = []
        for _ in range(rng.randint(2, 5)):
            sentences = []
            has_country = rng.random() < 0.9
            for position in range(rng.randint(2, 5)):
                opener = position == 0 and has_country
                r = rng.random()
                own = opener or rng.random() < 0.2
                if opener and r < 0.4:
                    sentences.append(self.context(with_country=True))
                elif r < 0.62:
                    sentences.append(self.seizure(with_country=own))
                elif r < 0.77:
                    sentences.append(self.arrest_only(with_country=own))
                else:
                    sentences.append(self.context(with_country=own and rng.random() < 0.5))
            paragraphs.append(sentences)
        region = report_id.split("-")[0].rstrip("0123456789").capitalize()
        title = (f"Monthly enforcement brief of the {region} regional office,"
                 f" {MONTHS[month - 1]} {year}")
        return self._brief(report_id, year, month, title, paragraphs)

    def dossier(self, report_id: str, year: int, month: int) -> Brief:
        rng = self.rng
        paragraphs = []
        for _ in range(rng.randint(9, 11)):
            surface, canonical = self._country()
            first, last = sorted(rng.sample(MONTHS, 2), key=MONTHS.index)
            opener = _Sentence(
                f"Between {first} and {last}, operations in {surface} produced the"
                " results below.", [], [canonical])
            sentences = [opener]
            for _ in range(rng.randint(3, 5)):
                sentences.append(self.listing(with_country=rng.random() < 0.3))
            if rng.random() < 0.4:
                sentences.append(self.arrest_only(with_country=False))
            paragraphs.append(sentences)
        desk = report_id.split("-")[0].rstrip("0123456789").capitalize()
        title = f"Regional compendium of seizures, {desk} desk"
        return self._brief(report_id, year, month, title, paragraphs)

    def empty_revision(self, report_id: str, year: int, month: int) -> Brief:
        """A corrected brief from which every event was withdrawn."""
        sentences = [
            _Sentence("This brief replaces the version circulated earlier.", [], []),
            _Sentence("After review, no seizures from this period are confirmed.", [], []),
            self.context(with_country=False),
        ]
        title = f"Corrected enforcement brief, {MONTHS[month - 1]} {year}"
        return self._brief(report_id, year, month, title, [sentences])


def monthly_ids(rng: random.Random, count: int, prefix: str = "") -> list[tuple[str, int, int]]:
    """Distinct (report_id, year, month) triples, ``count`` of them."""
    ids: list[tuple[str, int, int]] = []
    per_source = 24
    for s in range((count + per_source - 1) // per_source):
        source = f"{prefix}{rng.choice(REGIONS)}{s:03d}"
        for k in range(per_source):
            if len(ids) == count:
                break
            year, month = 2019 + k // 12, 1 + k % 12
            ids.append((f"{source}-{year}-{month:02d}", year, month))
    rng.shuffle(ids)
    return ids


# -- files and the expected outputs ---------------------------------------


def format_weight(kg: float) -> str:
    text = f"{kg:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def csv_text(events: list[Event]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in events:
        writer.writerow([
            e.report_id, e.year, e.month, e.country or "", e.species or "", e.product or "",
            "" if e.quantity is None else e.quantity,
            "" if e.weight_kg is None else format_weight(e.weight_kg),
            "" if e.arrest_count is None else e.arrest_count,
        ])
    return buffer.getvalue()


def write_briefs(briefs: list[Brief], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for brief in briefs:
        (directory / brief.filename).write_text(brief.text, encoding="utf-8")


@dataclass(frozen=True)
class Expected:
    """The outputs a store must give at one point of a workload."""

    csv: str  # `brieflens export`
    gold_csv: str  # gold of every report as last extracted
    eval: dict  # eval counts against that gold
    summary: dict  # summary.json
    content_hash: str  # EventStore.content_hash()
    events: int


class StoreModel:
    """What the event store should hold after a sequence of extractions.

    Re-extracting a report replaces its events, except that a report whose
    new version has no events keeps its old rows (the store only clears
    reports present in the ingested batch); eval counts those as unrelated.
    """

    def __init__(self) -> None:
        self.events: dict[str, list[Event]] = {}
        self.gold: dict[str, list[Event]] = {}

    def apply(self, brief: Brief) -> None:
        self.gold[brief.report_id] = list(brief.events)
        if brief.events or brief.report_id not in self.events:
            self.events[brief.report_id] = list(brief.events)

    def expected(self) -> Expected:
        stored = [e for rid in sorted(self.events) for e in self.events[rid]]
        gold = [e for rid in sorted(self.gold) for e in self.gold[rid]]
        text = csv_text(stored)
        return Expected(
            csv=text,
            gold_csv=csv_text(gold),
            eval=self._eval_counts(),
            summary=_summary(stored),
            content_hash=hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
            events=len(stored),
        )

    def _eval_counts(self) -> dict[str, int]:
        fully = unrelated = 0
        for rid, events in self.events.items():
            if self.gold[rid] == events:
                fully += len(events)
            elif not self.gold[rid]:
                unrelated += len(events)
            else:
                raise ValueError(f"model cannot predict the evaluation of {rid}")
        total = sum(len(v) for v in self.gold.values())
        return dict(zip(EVAL_KEYS, (fully, 0, unrelated, total - fully, total)))


def _summary(events: list[Event]) -> dict:
    per_country: dict[str, int] = {}
    per_month: dict[str, int] = {}
    species: dict[str, int] = {}
    for e in events:
        if e.country is not None:
            per_country[e.country] = per_country.get(e.country, 0) + 1
        key = f"{e.year:04d}-{e.month:02d}"
        per_month[key] = per_month.get(key, 0) + 1
        if e.species is not None:
            species[e.species] = species.get(e.species, 0) + 1
    return {
        "total_events": len(events),
        "total_arrests": sum(e.arrest_count or 0 for e in events),
        "distinct_species": len(species),
        "per_country": per_country,
        "per_month": per_month,
        "top_species": [[k, v] for k, v in sorted(species.items(),
                                                  key=lambda kv: (-kv[1], kv[0]))],
    }
