from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

import brieflens
from brieflens.corpus import DEFAULT_ABBREVIATIONS, document_from_text
from brieflens.lexicon import Lexicon, load_lexicon, merge_lexicons
from brieflens.matcher import compile_lexicon
from brieflens.resources import default_lexicon_paths

FIXTURES_DIR = Path(__file__).parent / "fixtures"
BRIEFS_DIR = FIXTURES_DIR / "briefs"
GOLD_CSV = FIXTURES_DIR / "gold.csv"
README = Path(__file__).parents[1] / "README.md"

# where this process imported brieflens from, src/ in a checkout or
# site-packages once installed: a child process imports the same copy
PACKAGE_ROOT = Path(brieflens.__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def shipped_lexicon() -> Lexicon:
    return merge_lexicons([load_lexicon(p) for p in default_lexicon_paths().values()])


@pytest.fixture(scope="session")
def shipped_matcher(shipped_lexicon):
    return compile_lexicon(shipped_lexicon)


@pytest.fixture
def small_lexicon() -> Lexicon:
    rows = [
        ("elephant", "ANIMAL", ""),
        ("pangolin", "ANIMAL", ""),
        ("leopard", "ANIMAL", ""),
        ("sea turtle", "ANIMAL", ""),
        ("turtle", "ANIMAL", ""),
        ("ivory", "PRODUCT", ""),
        ("tusk", "PRODUCT", ""),
        ("skin", "PRODUCT", ""),
        ("gabon", "COUNTRY", ""),
        ("togo", "COUNTRY", ""),
    ]
    return Lexicon.from_rows(rows)


@pytest.fixture
def make_doc():
    def build(text: str, report_id: str = "test-2021-01", year: int = 2021, month: int = 1):
        return document_from_text(report_id, year, month, text, DEFAULT_ABBREVIATIONS)

    return build


def traced_statements(monkeypatch):
    """Collect every statement of the sqlite connections opened from now on."""
    statements = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    return statements


def damage_table(path, table):
    """Overwrite the root page of ``table`` in the sqlite file at ``path``."""
    conn = sqlite3.connect(path)
    (root,) = conn.execute(
        "SELECT rootpage FROM sqlite_master WHERE name = ?", (table,)
    ).fetchone()
    (page_size,) = conn.execute("PRAGMA page_size").fetchone()
    conn.close()
    with open(path, "r+b") as handle:
        handle.seek((root - 1) * page_size)
        handle.write(b"\xff" * page_size)
