"""Lexicon loading, pluralization and the singular round trip."""

from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import example, given, strategies as st

from brieflens.corpus import match_key
from brieflens.lexicon import (
    Lexicon,
    LexiconError,
    load_lexicon,
    merge_lexicons,
    pluralize,
    singularize,
)
from brieflens.resources import default_lexicon_paths

from oracles import naive_load_lexicon


@pytest.mark.parametrize(
    ("singular", "plural"),
    [
        ("tusk", "tusks"),
        ("elephant", "elephants"),
        ("canary", "canaries"),
        ("monkey", "monkeys"),  # vowel before y: plain +s
        ("fox", "foxes"),
        ("finch", "finches"),
        ("rhinoceros", "rhinoceroses"),
        ("wolf", "wolves"),
        ("goose", "geese"),
        ("mongoose", "mongooses"),
        ("buffalo", "buffaloes"),
        ("horse", "horses"),
        ("tortoise", "tortoises"),
        ("ivory", "ivory"),
        ("fish", "fish"),
        ("sea turtle", "sea turtles"),
        ("monitor lizard", "monitor lizards"),
        ("by", "bies"),  # the shortest word with a consonant before its "y"
    ],
)
def test_pluralize(singular, plural):
    assert pluralize(singular) == plural


@pytest.mark.parametrize(
    ("surface", "singular"),
    [
        ("tusks", "tusk"),
        ("skins", "skin"),
        ("geese", "goose"),
        ("pangolin", "pangolin"),  # already singular
        ("canaries", "canary"),
        ("wolves", "wolf"),
        ("finches", "finch"),
        ("ibises", "ibis"),
        ("rhinoceroses", "rhinoceros"),
        ("horses", "horse"),
        ("Tusks", "tusk"),  # case folded
        ("sea turtles", "sea turtle"),
        ("bies", "by"),
        ("ies", "ie"),  # the bare suffix is no plural of "y"
    ],
)
def test_singularize_without_lexicon(surface, singular):
    assert singularize(surface) == singular


class TestFromRows:
    def test_plurals_added_automatically(self):
        lexicon = Lexicon.from_rows([("elephant", "ANIMAL", ""), ("ivory", "PRODUCT", ""),
                                     ("Gabon", "COUNTRY", "")])
        # elephant/elephants, ivory (invariant), gabon/gabons
        assert len(lexicon) == 5
        assert lexicon.entries.get(("elephants",)) == ("ANIMAL", "elephant")
        assert lexicon.entries.get(("ivory",)) == ("PRODUCT", "ivory")
        assert lexicon.entries.get(("gabons",)) == ("COUNTRY", "gabon")
        assert lexicon.entries.get(match_key("GABON")) == ("COUNTRY", "gabon")

    def test_keys_are_match_keys(self):
        lexicon = Lexicon.from_rows([
            ("Sea  Turtle", "ANIMAL", ""),
            ("Côte d'Ivoire", "COUNTRY", ""),
            ("guinea-bissau", "COUNTRY", ""),
            ("U.S.", "COUNTRY", ""),
        ])
        # the canonical defaults to the casefolded surface, spacing kept; a
        # last token of punctuation gets no plural, since "." is always its
        # own token and ("u", ".", "s", ".s") could never match
        assert lexicon.entries == {
            ("sea", "turtle"): ("ANIMAL", "sea  turtle"),
            ("sea", "turtles"): ("ANIMAL", "sea  turtle"),
            ("côte", "d", "'", "ivoire"): ("COUNTRY", "côte d'ivoire"),
            ("côte", "d", "'", "ivoires"): ("COUNTRY", "côte d'ivoire"),
            ("guinea-bissau",): ("COUNTRY", "guinea-bissau"),
            ("guinea-bissaus",): ("COUNTRY", "guinea-bissau"),
            ("u", ".", "s", "."): ("COUNTRY", "u.s."),
        }

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(LexiconError):
            Lexicon.from_rows([("tusk", "PRODUCT", ""), ("tusk", "ANIMAL", "")])

    def test_identical_duplicate_tolerated(self):
        lexicon = Lexicon.from_rows([("tusk", "PRODUCT", ""), ("tusk", "PRODUCT", "")])
        assert len(lexicon) == 2  # tusk, tusks

    def test_unknown_label_rejected(self):
        with pytest.raises(LexiconError):
            Lexicon.from_rows([("tusk", "THING", "")])

    def test_explicit_plural_row_wins_over_generated(self):
        rows = [("leaf", "PRODUCT", ""), ("leaves", "PRODUCT", "leaf")]
        lexicon = Lexicon.from_rows(rows)
        assert lexicon.entries.get(("leaves",)) == ("PRODUCT", "leaf")

    def test_empty_rows_give_empty_lexicon(self):
        assert len(Lexicon.from_rows([])) == 0
        assert Lexicon(entries={}, version="").n_rows == 0

    def test_two_cell_row_takes_the_default_canonical(self):
        lexicon = Lexicon.from_rows([("Tusk", "PRODUCT")])
        assert lexicon.entries == {("tusk",): ("PRODUCT", "tusk"), ("tusks",): ("PRODUCT", "tusk")}

    @pytest.mark.parametrize("short", [("tusk",), (), ("", "ANIMAL", "")])
    def test_short_row_named_by_position(self, short):
        with pytest.raises(LexiconError, match=r"^row 2: need at least surface and label$"):
            Lexicon.from_rows([("ivory", "PRODUCT", ""), short, ("tusk", "THING", "")])

    @pytest.mark.parametrize("surface", [" ", "\t\n", "\u00a0"])
    def test_surface_with_no_tokens_named_by_position(self, surface):
        # its plural would be the phrase ("s",), and every lone "s" a match
        with pytest.raises(LexiconError, match=r"^row 2: surface .* has no tokens$"):
            Lexicon.from_rows([("ivory", "PRODUCT", ""), (surface, "ANIMAL", "")])

    def test_version_is_stable(self):
        rows = [("tusk", "PRODUCT", "")]
        assert Lexicon.from_rows(rows).version == Lexicon.from_rows(rows).version

    def test_version_digests_the_table(self):
        plain = Lexicon.from_rows([("sea turtle", "ANIMAL", "")])
        spaced = Lexicon.from_rows([("Sea  Turtle", "ANIMAL", "sea turtle")])
        assert spaced.entries == plain.entries and spaced.version == plain.version
        assert re.fullmatch(r"[0-9a-f]{16}", plain.version)
        assert Lexicon.from_rows([("sea turtle", "ANIMAL", "turtle")]).version != plain.version


class TestLoadLexicon:
    def test_load_and_header(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text(
            "# comment line\nsurface,label,canonical\nelephant,ANIMAL,\n"
            "hippo,ANIMAL,hippopotamus\n",
            encoding="utf-8",
        )
        lexicon = load_lexicon(path)
        assert lexicon.entries.get(("hippo",)) == ("ANIMAL", "hippopotamus")
        assert lexicon.entries.get(("hippos",)) == ("ANIMAL", "hippopotamus")
        assert lexicon.n_rows == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("elephant,ANIMAL,\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    def test_empty_file_is_empty_lexicon(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("", encoding="utf-8")
        assert len(load_lexicon(path)) == 0

    def test_determinism(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("surface,label,canonical\ntusk,PRODUCT,\n", encoding="utf-8")
        a, b = load_lexicon(path), load_lexicon(path)
        assert a.entries == b.entries and a.version == b.version

    def test_conflict_error_names_both_rows(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text(
            "surface,label,canonical\ntusk,PRODUCT,\ntusk,ANIMAL,\n", encoding="utf-8"
        )
        with pytest.raises(LexiconError, match="lex.csv"):
            load_lexicon(path)


    def test_leading_byte_order_mark_skipped(self, tmp_path):
        plain = default_lexicon_paths()["countries"]
        bom = tmp_path / "countries.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, loaded = load_lexicon(plain), load_lexicon(bom)
        assert (loaded.entries, loaded.n_rows) == (expected.entries, expected.n_rows)
        # the version digests the file's bytes, mark included
        assert loaded.version == hashlib.sha256(bom.read_bytes()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "content",
        [
            "\ufeff\ufeffsurface,label,canonical\ntusk,PRODUCT,\n",
            "# comment\n\ufeffsurface,label,canonical\ntusk,PRODUCT,\n",
            "surface,\ufefflabel,canonical\ntusk,PRODUCT,\n",
        ],
    )
    def test_byte_order_mark_elsewhere_rejected(self, tmp_path, content):
        path = tmp_path / "lex.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(LexiconError, match="expected header"):
            load_lexicon(path)

    def test_unreadable_row_reported_before_an_earlier_bad_label(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("surface,label,canonical\ntusk,THING,\n,ANIMAL,\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r"^lex\.csv:3: need at least surface and label$"):
            load_lexicon(path)

    def test_unreadable_file_named(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_bytes("surface,label,canonical\nC\xf4te,COUNTRY,\n".encode("latin-1"))
        with pytest.raises(LexiconError, match=r"^\S*lat\.csv: not valid UTF-8: 'utf-8' codec"):
            load_lexicon(path)
        path.write_text(f"surface,label,canonical\n{'x' * 200_000},ANIMAL,\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r"^lat\.csv: field larger than field limit"):
            load_lexicon(path)


def test_merge_counts_rows_and_digests_versions():
    a = Lexicon.from_rows([("tusk", "PRODUCT", ""), ("ivory", "PRODUCT", "")])
    b = Lexicon.from_rows([("gabon", "COUNTRY", "")])
    merged = merge_lexicons([a, b])
    assert (merged.n_rows, len(merged)) == (3, 5)
    assert merged.version == hashlib.sha256(f"{a.version}+{b.version}".encode()).hexdigest()[:16]


def test_merge_conflicts_across_files():
    a = Lexicon.from_rows([("tusk", "PRODUCT", "")])
    b = Lexicon.from_rows([("tusk", "ANIMAL", "")])
    with pytest.raises(LexiconError):
        merge_lexicons([a, b])


def test_shipped_lists_round_trip(shipped_lexicon):
    """Every shipped canonical survives pluralize -> singularize intact."""
    failures = []
    for key, (_, canonical) in shipped_lexicon.entries.items():
        plural = pluralize(canonical)
        hit = shipped_lexicon.entries.get(match_key(plural))
        if hit is None or hit[1] != canonical:
            failures.append((key, canonical, plural))
        if key == match_key(canonical) and singularize(plural) != canonical:
            failures.append(("bare", key, canonical, plural))
    assert not failures


def test_shipped_lists_cover_core_terms(shipped_lexicon):
    for name in ("cameroon", "congo", "gabon", "togo", "senegal", "benin",
                 "côte d'ivoire", "burkina faso", "uganda"):
        hit = shipped_lexicon.entries.get(match_key(name))
        assert hit is not None and hit[0] == "COUNTRY"
    canonicals = {label: set() for label in ("ANIMAL", "PRODUCT", "COUNTRY")}
    for label, canonical in shipped_lexicon.entries.values():
        canonicals[label].add(canonical)
    assert canonicals["PRODUCT"] == {"ivory", "tusk", "skin", "scale", "horn", "bone",
                                     "tooth", "claw", "meat"}
    assert len(canonicals["ANIMAL"]) >= 100


def _rarely(values, others):
    """Draw from ``others`` about one time in ten, else from ``values``."""
    return st.sampled_from([True] * 9 + [False]).flatmap(
        lambda common: values if common else others
    )


# Cells that exercise every rule of the loader: case-folded duplicates,
# explicit plurals, plurals that two singulars share ("fox" and "foxe" both
# give "foxes"), commas and quotes that need csv quoting, and comment marks.
# Repeated values weight the draw towards files that load.
_SURFACES = _rarely(
    st.sampled_from(["tusk", "Tusk", "tusks", "fox", "foxe", "leaf", "leaves", "sea turtle",
                     "ivory", "Côte d'Ivoire", "ox", "ß", "SS"]),
    st.sampled_from(["a,b", 'say "hi"', "#tag", ""]),
)
_LABELS = st.sampled_from(["ANIMAL", "PRODUCT", "COUNTRY"] * 6 + ["animal", "THING", ""])
_CANONICALS = st.sampled_from(["", "", "", "tusk", "Fox", "leaf", "hippopotamus", "a,b"])
_PADS = st.sampled_from(["", "", "", " ", "\t", "  "])


@st.composite
def _cell(draw, values):
    value = draw(values)
    if "," in value or '"' in value or not draw(_rarely(st.just(True), st.just(False))):
        value = '"' + value.replace('"', '""') + '"'
    return draw(_PADS) + value + draw(_PADS)


@st.composite
def _data_row(draw):
    cells = [draw(_cell(_SURFACES)), draw(_cell(_LABELS)), draw(_cell(_CANONICALS)), "extra"]
    return ",".join(cells[: draw(st.sampled_from([1] + [2] * 4 + [3] * 12 + [4] * 3))])


_HEADERS = _rarely(
    st.sampled_from(["surface,label,canonical", " surface , label ,canonical",
                     "surface,label,canonical,note"]),
    st.sampled_from(["surface,label", "Surface,label,canonical",
                     "\ufeffsurface,label,canonical", "tusk,PRODUCT,"]),
)
_SKIPPED_LINES = st.sampled_from(
    ["", "   ", ",,", " , ,", "# a comment", "  # indented, with a comma", "#"]
)
_OTHER_LINES = _rarely(_SKIPPED_LINES, st.sampled_from(["a\rb,ANIMAL,", "nul\0,ANIMAL,"]))


@st.composite
def _lexicon_file(draw):
    lines = draw(st.lists(_SKIPPED_LINES, max_size=3))
    if draw(_rarely(st.just(True), st.just(False))):
        lines.append(draw(_HEADERS))
    lines += draw(st.lists(_rarely(_data_row(), _OTHER_LINES), min_size=1, max_size=12))
    newline = draw(_rarely(st.just("\n"), st.just("\r\n")))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if not draw(_rarely(st.just(True), st.just(False))):
        # bytes that are not UTF-8, such as a Latin-1 "ô"
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xf4", b"\xff", b"\xc3"])) + data[at:]
    return data


def _load_outcome(load, path):
    try:
        lexicon = load(path)
    except LexiconError as exc:
        return "error", str(exc)
    return dict(lexicon.entries), lexicon.version, lexicon.n_rows


@given(_lexicon_file())
@example(b"surface,label,canonical\nfox,ANIMAL,\nfoxe,PRODUCT,\n")  # ambiguous plural
@example(b"surface,label,canonical\nfox,ANIMAL,\nfoxes,PRODUCT,\nfoxe,PRODUCT,\n")
@example(b"surface,label,canonical\ntusk,PRODUCT,\nTusk,ANIMAL,\n")  # conflict
@example(b"surface,label,canonical\ntusk,THING,\nC\xf4te,COUNTRY,\n")  # not UTF-8
@example(b"surface,label,canonical\ntusk,THING,\na\rb,ANIMAL,\n")  # csv error
def test_loader_matches_the_two_pass_oracle(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "lex.csv"
    path.write_bytes(data)
    assert _load_outcome(load_lexicon, path) == _load_outcome(naive_load_lexicon, path)
