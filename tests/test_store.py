"""Event store: ingestion rules, CSV interchange and aggregation."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import logging
import random
import re
import shutil
import sqlite3
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from brieflens.assembler import TraffickingEvent
from brieflens.store import (
    CSV_COLUMNS,
    CSV_HEADER,
    CsvFormatError,
    EventStore,
    SchemaError,
    StoreError,
    SummaryStats,
    format_weight,
    import_csv,
)

from conftest import GOLD_CSV, damage_table, traced_statements


def ev(report_id="a-2021-01", year=2021, month=1, **kwargs):
    defaults = dict(species="elephant")
    defaults.update(kwargs)
    return TraffickingEvent(report_id=report_id, year=year, month=month, **defaults)


@pytest.fixture()
def store():
    with EventStore() as s:
        s.register_report("a-2021-01", 2021, 1)
        s.register_report("b-2021-02", 2021, 2)
        yield s


SAMPLE = [
    ev(sentence_index=1, species="pangolin", weight_kg=12.5),
    ev("b-2021-02", month=2, species=None, product="ivory",
       country="togo", weight_kg=513.0, arrest_count=1),
    ev(country="gabon", product="tusk", quantity=2, arrest_count=3),
]

GOLDEN_CSV = (
    "report_id,year,month,country,species,product,quantity,weight_kg,arrest_count\n"
    "a-2021-01,2021,1,gabon,elephant,tusk,2,,3\n"
    "a-2021-01,2021,1,,pangolin,,,12.5,\n"
    "b-2021-02,2021,2,togo,,ivory,,513,1\n"
)


class TestIngest:
    def test_round_trip_preserves_fields(self, store):
        assert store.ingest(SAMPLE) == 3
        stored = store.events()
        # export order: report id, then sentence index
        assert [e.sentence_index for e in stored] == [0, 1, 0]
        assert stored[0] == SAMPLE[2]
        assert stored[1] == SAMPLE[0]
        assert stored[2] == SAMPLE[1]

    def test_reingest_is_idempotent(self, store):
        store.ingest(SAMPLE)
        first = store.content_hash()
        store.ingest(SAMPLE)
        assert store.events() == sorted(
            SAMPLE, key=lambda e: (e.report_id, e.sentence_index)
        )
        assert store.content_hash() == first

    def test_reingest_replaces_only_its_report(self, store):
        store.ingest(SAMPLE)
        store.ingest([ev(species="leopard")])
        kept = store.events()
        assert [(e.report_id, e.species) for e in kept] == [
            ("a-2021-01", "leopard"),
            ("b-2021-02", None),
        ]

    def test_unknown_report_rejected(self, store):
        with pytest.raises(SchemaError, match="unknown report"):
            store.ingest([ev("nope-2021-01")])

    def test_date_mismatch_rejected(self, store):
        with pytest.raises(SchemaError, match="disagrees"):
            store.ingest([ev(month=6)])

    def test_empty_event_rejected(self, store):
        hollow = ev(species=None, product=None, arrest_count=None, country="gabon")
        with pytest.raises(SchemaError, match="no species, product or arrest"):
            store.ingest([hollow])

    def test_constraint_violation_rolls_back_whole_batch(self, store):
        store.ingest(SAMPLE)
        before = store.content_hash()
        bad = [ev(species="leopard"), ev(quantity=0)]
        with pytest.raises(SchemaError, match="constraint"):
            store.ingest(bad)
        assert store.content_hash() == before

    @pytest.mark.parametrize(
        "write,message",
        [
            (lambda s: s.ingest([ev(species="leopard"), ev(quantity=10**20)]),
             "event batch violates store constraints: Python int too large"),
            (lambda s: s.register_report("c-2021-03", 10**20, 3),
             "cannot register report 'c-2021-03': Python int too large"),
        ],
        ids=["ingest", "register_report"],
    )
    def test_integer_sqlite_cannot_hold_rejected(self, store, write, message):
        store.ingest(SAMPLE)
        before = (store.content_hash(), store.summarize(), store.events())
        with pytest.raises(SchemaError, match=message):
            write(store)
        assert (store.content_hash(), store.summarize(), store.events()) == before
        assert not store.has_report("c-2021-03")

    def test_register_report_keeps_its_date(self, store):
        store.ingest(SAMPLE)
        before = (store.content_hash(), store.summarize(), store.events())
        with pytest.raises(SchemaError, match=r"registered as \(2021, 1\); its date cannot"):
            store.register_report("a-2021-01", 2022, 3, "elsewhere.txt")
        assert (store.content_hash(), store.summarize(), store.events()) == before
        assert store.report_date("a-2021-01") == (2021, 1)
        # the same date registers again and keeps the events
        store.register_report("a-2021-01", 2021, 1, "a-2021-01.txt")
        assert (store.content_hash(), store.summarize(), store.events()) == before
        assert not store.has_report("zz-2020-01")

    def test_file_backed_store_persists(self, tmp_path):
        path = tmp_path / "events.db"
        with EventStore(path) as s:
            s.register_report("a-2021-01", 2021, 1)
            s.ingest([ev()])
        with EventStore(path) as s:
            assert [e.species for e in s.events()] == ["elephant"]


class TestBatch:
    def test_commits_once_when_the_block_ends(self, tmp_path):
        path = tmp_path / "events.db"
        with EventStore(path) as s, s.batch():
            s.register_report("a-2021-01", 2021, 1)
            s.ingest([ev()])
            with EventStore(path) as reader:
                assert reader.events() == []
        with EventStore(path) as s:
            assert [e.species for e in s.events()] == ["elephant"]

    def test_exception_rolls_back_the_block(self, store):
        store.ingest(SAMPLE)
        before = (store.content_hash(), store.summarize())
        with pytest.raises(RuntimeError), store.batch():
            store.register_report("c-2021-03", 2021, 3)
            store.ingest([ev(species="leopard")])
            raise RuntimeError("abandon the batch")
        assert (store.content_hash(), store.summarize()) == before
        assert not store.has_report("c-2021-03")

    def test_failed_write_undoes_only_itself(self, store):
        with store.batch():
            store.ingest(SAMPLE)
            before = (store.content_hash(), store.summarize())
            with pytest.raises(SchemaError, match="constraint"):
                store.ingest([ev(species="leopard"), ev(quantity=0)])
            assert (store.content_hash(), store.summarize()) == before
            store.register_report("c-2021-03", 2021, 3)
        assert (store.content_hash(), store.summarize()) == before
        assert store.has_report("c-2021-03")

    def test_failed_nested_batch_undoes_only_itself(self, store):
        with store.batch():
            store.ingest(SAMPLE)
            before = (store.content_hash(), store.summarize())
            with pytest.raises(RuntimeError), store.batch():
                store.register_report("c-2021-03", 2021, 3, "c.txt")
                store.ingest([ev("c-2021-03", month=3), ev(species="leopard")])
                raise RuntimeError("abandon this brief")
            store.register_report("d-2021-04", 2021, 4)
        assert (store.content_hash(), store.summarize()) == before
        assert not store.has_report("c-2021-03") and store.has_report("d-2021-04")


class TestDamagedStore:
    """SQLite's errors reach the caller as the store's own, naming the file."""

    CANNOT = r"cannot {} event store at \S*damaged\.db: .*malformed"

    @pytest.fixture()
    def damaged(self, tmp_path):
        def damage(table):
            path = tmp_path / "damaged.db"
            with EventStore(path) as s:
                s.register_report("a-2021-01", 2021, 1)
                s.register_report("b-2021-02", 2021, 2)
                s.ingest(SAMPLE)
            damage_table(path, table)
            return EventStore(path)

        return damage

    @pytest.mark.parametrize(
        "table,call",
        [
            ("reports", lambda s: s.events()),
            ("reports", lambda s: s.content_hash()),
            ("reports", lambda s: s.export_csv(io.StringIO())),
            ("reports", lambda s: s.report_date("a-2021-01")),
            ("reports", lambda s: s.has_report("a-2021-01")),
            ("reports", lambda s: s.register_report("c-2021-03", 2021, 3)),
            ("tallies", lambda s: s.summarize()),
        ],
    )
    def test_reads(self, damaged, table, call):
        with damaged(table) as s:
            with pytest.raises(StoreError, match=self.CANNOT.format("read")):
                call(s)

    def test_writes(self, damaged):
        with damaged("events") as s:
            with pytest.raises(StoreError, match=self.CANNOT.format("write")):
                s.ingest([ev()])


class TestCsvExport:
    def test_golden_output(self, store):
        store.ingest(SAMPLE)
        buffer = io.StringIO()
        assert store.export_csv(buffer) == 3
        assert buffer.getvalue() == GOLDEN_CSV

    def test_empty_store_exports_header_only(self):
        with EventStore() as s:
            buffer = io.StringIO()
            assert s.export_csv(buffer) == 0
            assert buffer.getvalue() == CSV_HEADER + "\n"

    def test_export_reads_no_event_rows(self, tmp_path, monkeypatch):
        statements = traced_statements(monkeypatch)
        with EventStore(tmp_path / "count.db") as s:
            s.register_report("a-2021-01", 2021, 1)
            s.register_report("b-2021-02", 2021, 2)
            s.ingest(SAMPLE)
            del statements[:]
            assert s.export_csv(io.StringIO()) == 3
        assert statements
        assert not [t for t in statements if re.search(r"\b(FROM|JOIN) events\b", t)]

    def test_export_count_follows_replaced_events(self, store):
        store.ingest(SAMPLE)
        store.ingest([ev(species="leopard")])
        assert store.export_csv(io.StringIO()) == len(store.events()) == 2
        store.ingest([ev(species="leopard"), ev(species="tiger"), ev(product="skin")])
        assert store.export_csv(io.StringIO()) == len(store.events()) == 4

    def test_export_to_path(self, store, tmp_path):
        store.ingest(SAMPLE)
        out = tmp_path / "events.csv"
        store.export_csv(out)
        assert out.read_text(encoding="utf-8") == GOLDEN_CSV

    @pytest.mark.parametrize(
        "kg,text",
        [
            (513.0, "513"),
            (0.5, "0.5"),
            (2000.0, "2000"),
            (0.90718474, "0.907185"),
            (12.345, "12.345"),
            (1e-9, "0"),
        ],
    )
    def test_format_weight(self, kg, text):
        assert format_weight(kg) == text

    def test_content_hash_tracks_content(self, store):
        store.ingest(SAMPLE)
        twin = EventStore()
        twin.register_report("a-2021-01", 2021, 1)
        twin.register_report("b-2021-02", 2021, 2)
        twin.ingest(SAMPLE)
        assert twin.content_hash() == store.content_hash()
        twin.ingest([ev(species="leopard")])
        assert twin.content_hash() != store.content_hash()
        twin.close()

    def test_hash_is_digest_of_exported_bytes(self, tmp_path):
        with EventStore() as s:
            s.export_csv(tmp_path / "empty.csv")
            assert s.content_hash() == file_hash(tmp_path / "empty.csv")
            s.register_report("é-2021-01", 2021, 1)
            s.ingest([ev("é-2021-01", country="Côte d'Ivoire", species=None,
                         product="écailles", weight_kg=3.5)])
            s.export_csv(tmp_path / "accents.csv")
            assert s.content_hash() == file_hash(tmp_path / "accents.csv")
        assert "Côte d'Ivoire" in (tmp_path / "accents.csv").read_text(encoding="utf-8")

    def test_non_utf8_store_refused(self, tmp_path):
        path = tmp_path / "utf16.db"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA encoding = 'UTF-16le'")
        conn.execute("CREATE TABLE t (x)")
        conn.close()
        with pytest.raises(StoreError, match="UTF-16le, not UTF-8"):
            EventStore(path)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestLoadedEvents:
    """Loaded events are slotted and share one object per distinct string and year."""

    def assert_compact(self, events):
        assert not any(hasattr(e, "__dict__") for e in events)
        seen, years = {}, {}
        for e in events:
            for value in (e.report_id, e.country, e.species, e.product):
                if value is not None:
                    assert seen.setdefault(value, value) is value
            # 2021 is outside CPython's small-int cache, so each row parses its own
            assert years.setdefault(e.year, e.year) is e.year

    def test_store_events(self, store):
        store.ingest([ev(country="gabon", sentence_index=i) for i in range(3)])
        loaded = store.events()
        assert len(loaded) == 3
        self.assert_compact(loaded)

    def test_imported_events(self, store):
        store.ingest(SAMPLE + [ev(country="gabon", sentence_index=5)])
        buffer = io.StringIO()
        store.export_csv(buffer)
        buffer.seek(0)
        self.assert_compact(import_csv(buffer))

    def test_numbers_keep_their_types(self, store):
        # 1 == 1.0, so a shared table holding numbers would hand back the wrong type
        store.ingest([ev(quantity=1, weight_kg=1.0, arrest_count=1, sentence_index=i)
                      for i in range(2)])
        buffer = io.StringIO()
        store.export_csv(buffer)
        buffer.seek(0)
        for loaded in (store.events(), import_csv(buffer)):
            for e in loaded:
                assert (type(e.quantity), type(e.weight_kg), type(e.arrest_count)) == (
                    int, float, int)


class TestReportReads:
    def test_events_of_one_report(self, store):
        store.register_report("c-2021-03", 2021, 3)  # registered, with no events
        store.ingest(SAMPLE + [ev(country="gabon", sentence_index=5)])
        every = store.events()
        for report_id in ("a-2021-01", "b-2021-02", "c-2021-03", "z-2021-01"):
            assert store.events(report_id) == [e for e in every if e.report_id == report_id]
        assert list(store.iter_events()) == every

    def test_iter_events_holds_off_other_writers(self, tmp_path):
        path = tmp_path / "events.db"
        with EventStore(path) as s:
            s.register_report("a-2021-01", 2021, 1)
            s.register_report("b-2021-02", 2021, 2)
            s.ingest([ev(), ev("b-2021-02", month=2)])
            writer = sqlite3.connect(path, timeout=0)
            try:
                assert list(s.iter_events()) == [ev(), ev("b-2021-02", month=2)]
                # exhausted, the iterator has ended its transaction
                writer.execute("DELETE FROM events WHERE report_id = 'b-2021-02'")
                writer.commit()
                events = s.iter_events()
                assert next(events) == ev()
                writer.execute("DELETE FROM events")
                with pytest.raises(sqlite3.OperationalError, match="locked"):
                    writer.commit()
                events.close()
                writer.commit()
            finally:
                writer.close()
            assert s.events() == []

    def test_iter_events_inside_a_batch_sees_its_writes(self, store):
        with store.batch():
            store.ingest([ev()])
            assert list(store.iter_events()) == [ev()]
            # the batch's transaction outlives the read
            store.ingest([ev(country="gabon")])
        assert store.events() == [ev(country="gabon")]

    def test_store_closed_under_a_suspended_iterator(self, tmp_path, monkeypatch, capsys):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        s = EventStore(tmp_path / "events.db")
        s.register_report("a-2021-01", 2021, 1)
        s.ingest([ev(), ev(sentence_index=1)])
        events = s.iter_events()
        next(events)
        s.close()
        del events
        gc.collect()
        assert unraisable == []
        assert capsys.readouterr() == ("", "")


class TestCsvImport:
    def test_round_trip(self, store):
        store.ingest(SAMPLE)
        events = import_csv(io.StringIO(GOLDEN_CSV))
        assert events == [replace(e, sentence_index=0) for e in store.events()]

    def test_header_only_is_empty(self):
        assert import_csv(io.StringIO(CSV_HEADER + "\n")) == []

    def test_blank_lines_skipped(self):
        events = import_csv(io.StringIO(CSV_HEADER + "\n\na-2021-01,2021,1,,,ivory,,,\n"))
        assert len(events) == 1 and events[0].product == "ivory"

    @pytest.mark.parametrize(
        "content,message",
        [
            ("", "missing header"),
            ("report,year\na,b\n", "bad header"),
            (CSV_HEADER + "\na-2021-01,2021,1\n", "expected 9 fields"),
            (CSV_HEADER + "\na-2021-01,2021,0,,x,,,,\n", "outside 1..12"),
            (CSV_HEADER + "\na-2021-01,2021,13,,x,,,,\n", "outside 1..12"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,0,,\n", "at least 1"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,-2,\n", "must be positive"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,0,\n", "row 2: weight_kg must be positive"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,heavy,\n", "not a number"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,nan,\n", "row 2: weight_kg 'nan' is not finite"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,inf,\n", "'inf' is not finite"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,Infinity,\n", "'Infinity' is not finite"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,1e400,\n", "'1e400' is not finite"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,0.0000001,\n", "would export as 0"),
            (CSV_HEADER + "\na-2021-01,2021,1,,x,,,,-1\n", "not be negative"),
            (CSV_HEADER + "\na-2021-01,20x1,1,,x,,,,\n", "not an integer"),
            (CSV_HEADER + f"\na-2021-01,{10**20},1,,x,,,,\n",
             f"row 2: year '{10**20}' is outside the 64-bit range"),
            (CSV_HEADER + f"\na-2021-01,{-2**63 - 1},1,,x,,,,\n", "year .* outside the 64-bit"),
            (CSV_HEADER + f"\na-2021-01,2021,1,,x,,{2**63},,\n", "quantity .* outside the 64-bit"),
            (CSV_HEADER + f"\na-2021-01,2021,1,,x,,,,{10**20}\n",
             "arrest_count .* outside the 64-bit"),
            pytest.param(
                CSV_HEADER + "\n" + "x" * 200_000 + ",2021,1,,e,,,,\n",
                "^field larger than field limit",
                id="overlong field",
            ),
        ],
    )
    def test_malformed_input_rejected(self, content, message):
        with pytest.raises(CsvFormatError, match=message):
            import_csv(io.StringIO(content))

    def test_64_bit_bounds_accepted(self):
        row = f"a-2021-01,{-2**63},1,,x,,{2**63 - 1},,"
        (event,) = import_csv(io.StringIO(f"{CSV_HEADER}\n{row}\n"))
        assert (event.year, event.quantity) == (-(2**63), 2**63 - 1)

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text(CSV_HEADER + "\na-2021-01,2021,13,,x,,,,\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match=r"^\S*pred\.csv: row 2: month 13"):
            import_csv(path)
        path.write_bytes(f"{CSV_HEADER}\na-2021-01,2021,1,C\xf4te,x,,,,\n".encode("latin-1"))
        with pytest.raises(CsvFormatError, match=r"^\S*pred\.csv: not valid UTF-8: 'utf-8' codec"):
            import_csv(path)

    def test_leading_byte_order_mark_skipped(self, tmp_path):
        plain = import_csv(GOLD_CSV)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + GOLD_CSV.read_bytes())
        assert import_csv(bom) == plain
        text = GOLD_CSV.read_text(encoding="utf-8")
        assert import_csv(io.StringIO("\ufeff" + text)) == plain
        with pytest.raises(CsvFormatError, match="missing header"):
            import_csv(io.StringIO("\ufeff"))

    @pytest.mark.parametrize(
        "content",
        [
            "\ufeff\ufeff" + CSV_HEADER + "\n",
            "\n\ufeff" + CSV_HEADER + "\n",
            CSV_HEADER.replace(",year", ",\ufeffyear") + "\n",
            CSV_HEADER + "\ufeff\n",
        ],
    )
    def test_byte_order_mark_elsewhere_rejected(self, content, tmp_path):
        with pytest.raises(CsvFormatError, match="bad header"):
            import_csv(io.StringIO(content))
        path = tmp_path / "gold.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(CsvFormatError, match="bad header"):
            import_csv(path)


WORDS = ("elephant", "pangolin", "leopard", None)
PRODUCTS = ("ivory", "tusk", "skin", None)
COUNTRIES = ("gabon", "togo", "congo", None)


def random_event(rng, report_id, year, month, sentence_index):
    while True:
        species = rng.choice(WORDS)
        product = rng.choice(PRODUCTS)
        arrest = rng.choice((None, 0, 1, rng.randint(2, 40)))
        if species or product or arrest is not None:
            break
    # weights live on a three-decimal grid so text round trips are exact
    weight = None if rng.random() < 0.4 else rng.randint(1, 10_000_000) / 1000
    return TraffickingEvent(
        report_id=report_id,
        year=year,
        month=month,
        country=rng.choice(COUNTRIES),
        species=species,
        product=product,
        quantity=rng.choice((None, 1, rng.randint(2, 900))),
        weight_kg=weight,
        arrest_count=arrest,
        sentence_index=sentence_index,
    )


def affinity_converted(rng, event):
    """``event`` with values that SQLite's column affinity converts on insert.

    An INTEGER column stores 3.0 as 3 and a REAL column stores 12 as 12.0,
    so the export must be written from the stored values, not these.
    """
    quantity, weight, arrests = event.quantity, event.weight_kg, event.arrest_count
    return replace(
        event,
        quantity=None if quantity is None else float(quantity),
        weight_kg=None if weight is None else rng.randint(1, 10_000),
        arrest_count=None if arrests is None else float(arrests),
    )


class TestRoundTripProperty:
    def test_export_import_identity(self):
        rng = random.Random(777)
        for trial in range(60):
            with EventStore() as s:
                events = []
                for r in range(rng.randint(1, 4)):
                    rid = f"r{r}-2021-0{r + 1}"
                    s.register_report(rid, 2021, r + 1)
                    for si in range(rng.randint(0, 5)):
                        event = random_event(rng, rid, 2021, r + 1, si)
                        if rng.random() < 0.5:
                            event = affinity_converted(rng, event)
                        events.append(event)
                s.ingest(events)
                stored = s.events()
                assert stored == events, f"trial {trial}"
                # the stored values have the column's type, whatever was ingested
                for e in stored:
                    for value, kind in ((e.quantity, int), (e.weight_kg, float),
                                        (e.arrest_count, int)):
                        assert value is None or type(value) is kind, f"trial {trial}"
                buffer = io.StringIO()
                s.export_csv(buffer)
                buffer.seek(0)
                imported = import_csv(buffer)
                assert imported == [
                    replace(e, sentence_index=0) for e in stored
                ], f"trial {trial}"


class TestSummarize:
    def seed(self, s):
        s.register_report("a-2021-01", 2021, 1)
        s.register_report("b-2021-02", 2021, 2)
        s.ingest(
            [
                ev(country="gabon", arrest_count=3),
                ev(country="gabon", species="pangolin", arrest_count=1, sentence_index=1),
                ev("b-2021-02", month=2, country="togo", species=None, product="ivory"),
            ]
        )

    def test_overall_totals(self):
        with EventStore() as s:
            self.seed(s)
            stats = s.summarize()
        assert stats.total_events == 3
        assert stats.total_arrests == 4
        assert stats.distinct_species == 2
        assert stats.per_country == {"gabon": 2, "togo": 1}
        assert stats.per_month == {(2021, 1): 2, (2021, 2): 1}
        assert stats.top_species == [("elephant", 1), ("pangolin", 1)]

    def test_names_without_events_disappear(self):
        with EventStore() as s:
            self.seed(s)
            s.ingest([ev(country="togo", species="leopard")])
            stats = s.summarize()
        assert stats.per_country == {"togo": 2}
        assert stats.top_species == [("leopard", 1)]
        assert (stats.total_events, stats.total_arrests, stats.distinct_species) == (2, 0, 1)

    def test_matches_naive_recount(self):
        rng = random.Random(4242)
        with EventStore() as s:
            events = []
            for r in range(4):
                rid = f"r{r}-202{r % 2}-0{r + 3}"
                s.register_report(rid, 2020 + r % 2, r + 3)
                for si in range(rng.randint(1, 6)):
                    events.append(random_event(rng, rid, 2020 + r % 2, r + 3, si))
            s.ingest(events)
            stats = s.summarize()
        assert stats.total_events == len(events)
        assert stats.total_arrests == sum(e.arrest_count or 0 for e in events)
        assert stats.distinct_species == len(
            {e.species for e in events if e.species is not None}
        )
        for country, count in stats.per_country.items():
            assert count == sum(1 for e in events if e.country == country)
        assert sum(stats.per_month.values()) == len(events)
        recount = sorted(
            (
                (-sum(1 for e in events if e.species == name), name)
                for name in {e.species for e in events if e.species}
            ),
        )
        assert stats.top_species == [(name, -neg) for neg, name in recount]


def reference_summary(events):
    """The summary recounted event by event from ``events()``."""
    species = Counter(e.species for e in events if e.species is not None)
    return SummaryStats(
        total_events=len(events),
        total_arrests=sum(e.arrest_count or 0 for e in events),
        distinct_species=len(species),
        per_country=dict(Counter(e.country for e in events if e.country is not None)),
        per_month=dict(Counter((e.year, e.month) for e in events)),
        top_species=sorted(species.items(), key=lambda item: (-item[1], item[0])),
    )


def reference_csv(events):
    """The interchange CSV written event by event from ``events()``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in events:
        writer.writerow(
            [
                e.report_id,
                str(e.year),
                str(e.month),
                e.country or "",
                e.species or "",
                e.product or "",
                "" if e.quantity is None else str(e.quantity),
                "" if e.weight_kg is None else format_weight(e.weight_kg),
                "" if e.arrest_count is None else str(e.arrest_count),
            ]
        )
    return buffer.getvalue()


def text_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ids whose byte order differs from their case-insensitive order, and ids that
# need CSV quoting
REPORT_IDS = ("a", "a-2021-01", "B-2020-07", "b,2021", 'c"q', "\u00e9-2020-12")
NAMES = st.one_of(
    st.none(),
    st.sampled_from(("gabon", "c\u00f4te d'ivoire", "a,b", 'say "x"', "line\nbreak", "")),
)
EVENT_FIELDS = st.fixed_dictionaries(
    {
        "country": NAMES,
        "species": NAMES,
        "product": NAMES,
        "quantity": st.none() | st.integers(1, 10**9),
        "weight_kg": st.none()
        | st.integers(1, 10**6)
        | st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
        "arrest_count": st.none() | st.integers(0, 10**4),
        "sentence_index": st.integers(0, 3),
    }
).filter(
    lambda f: not (f["species"] is None and f["product"] is None and f["arrest_count"] is None)
)


DATES = st.tuples(st.integers(2018, 2022), st.integers(1, 12))


class StoreCacheMachine(RuleBasedStateMachine):
    """Random writes and reopens; export, hash and summary must match ``events()``."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.path = self.dir / "events.db"
        self.store = EventStore(self.path)
        self.dates = {}

    @rule(report_id=st.sampled_from(REPORT_IDS), date=DATES)
    def register_report(self, report_id, date):
        # a known report registers again with its own date
        self.store.register_report(report_id, *self.dates.setdefault(report_id, date))

    @precondition(lambda self: self.dates)
    @rule(data=st.data())
    def redate_report(self, data):
        report_id = data.draw(st.sampled_from(sorted(self.dates)))
        date = data.draw(DATES.filter(lambda d: d != self.dates[report_id]))
        before = (self.store.content_hash(), self.store.summarize())
        with pytest.raises(SchemaError, match="its date cannot change"):
            self.store.register_report(report_id, *date)
        assert (self.store.content_hash(), self.store.summarize()) == before
        assert self.store.report_date(report_id) == self.dates[report_id]

    @precondition(lambda self: self.dates)
    @rule(data=st.data())
    def ingest(self, data):
        batch = data.draw(
            st.lists(st.tuples(st.sampled_from(sorted(self.dates)), EVENT_FIELDS), max_size=8)
        )
        events = [
            TraffickingEvent(report_id=rid, year=self.dates[rid][0], month=self.dates[rid][1],
                             **fields)
            for rid, fields in batch
        ]
        assert self.store.ingest(events) == len(events)

    @rule()
    def reopen(self):
        self.store.close()
        self.store = EventStore(self.path)

    @invariant()
    def tallies_match_events(self):
        assert self.store.summarize() == reference_summary(self.store.events())

    @invariant()
    def cache_matches_events(self):
        events = self.store.events()
        expected = reference_csv(events)
        assert self.store.content_hash() == text_hash(expected)
        out = self.dir / "export.csv"
        assert self.store.export_csv(out) == len(events)
        assert out.read_bytes() == expected.encode("utf-8")

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.dir)


TestStoreCache = StoreCacheMachine.TestCase
TestStoreCache.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)


SEED_SCHEMA = """
CREATE TABLE reports (
    report_id   TEXT PRIMARY KEY,
    year        INTEGER NOT NULL,
    month       INTEGER NOT NULL CHECK (month BETWEEN 1 AND 12),
    source_path TEXT NOT NULL DEFAULT ''
);
CREATE TABLE events (
    event_id       INTEGER PRIMARY KEY,
    report_id      TEXT NOT NULL REFERENCES reports(report_id),
    sentence_index INTEGER NOT NULL DEFAULT 0,
    country        TEXT,
    species        TEXT,
    product        TEXT,
    quantity       INTEGER CHECK (quantity IS NULL OR quantity >= 1),
    weight_kg      REAL    CHECK (weight_kg IS NULL OR weight_kg > 0),
    arrest_count   INTEGER CHECK (arrest_count IS NULL OR arrest_count >= 0)
);
CREATE INDEX events_by_report ON events(report_id);
INSERT INTO reports VALUES ('b-2021-02', 2021, 2, ''), ('a-2021-01', 2021, 1, ''),
                           ('c-2021-03', 2021, 3, '');
INSERT INTO events (report_id, sentence_index, country, species, product, quantity,
                    weight_kg, arrest_count)
VALUES ('b-2021-02', 0, 'togo', NULL, 'ivory', NULL, 513.0, 1),
       ('a-2021-01', 1, NULL, 'pangolin', NULL, NULL, 12.5, NULL),
       ('a-2021-01', 0, 'gabon', 'elephant', 'tusk', 2, NULL, 3);
"""


def raw_store(path, script):
    conn = sqlite3.connect(path)
    conn.executescript(script)
    conn.close()
    return path


def assert_current(path):
    """The store at ``path`` is at schema version 4, with only the two event triggers.

    Its reports are kept in key order, ``events`` has its report index,
    the foreign key of ``events`` names ``reports`` and holds for every
    row, and the file has no free pages.
    """
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == 4
    assert conn.execute("PRAGMA freelist_count").fetchone()[0] == 0
    assert "events_by_report" in [row[1] for row in conn.execute("PRAGMA index_list(events)")]
    triggers = conn.execute("SELECT name FROM sqlite_master WHERE type = 'trigger'")
    assert sorted(name for (name,) in triggers) == ["tally_event_delete", "tally_event_insert"]
    (sql,) = conn.execute("SELECT sql FROM sqlite_master WHERE name = 'reports'").fetchone()
    assert sql.endswith("WITHOUT ROWID")
    assert [row[2] for row in conn.execute("PRAGMA foreign_key_list(events)")] == ["reports"]
    assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
    conn.close()


def test_fresh_store_is_current(tmp_path):
    EventStore(tmp_path / "fresh.db").close()
    assert_current(tmp_path / "fresh.db")


class TestSeedSchemaMigration:
    @pytest.fixture()
    def seed_store(self, tmp_path):
        return raw_store(tmp_path / "seed.db", SEED_SCHEMA)

    def test_hash_and_export_unchanged(self, seed_store, tmp_path):
        with EventStore(seed_store) as s:
            assert s.content_hash() == text_hash(GOLDEN_CSV)
            assert s.export_csv(tmp_path / "out.csv") == 3
            assert s.summarize() == reference_summary(s.events())
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == GOLDEN_CSV
        assert_current(seed_store)
        with EventStore(seed_store) as s:
            assert s.content_hash() == text_hash(GOLDEN_CSV)
            s.ingest([ev("c-2021-03", month=3, species="leopard")])
            assert s.content_hash() == text_hash(reference_csv(s.events()))

    def test_migrated_store_opens_without_reading_reports(self, seed_store, monkeypatch):
        EventStore(seed_store).close()
        statements = traced_statements(monkeypatch)
        EventStore(seed_store).close()
        assert statements and not [s for s in statements if "reports" in s]


# a store as version 1 wrote it: csv_rows filled, no tallies
VERSION_1_SCHEMA = SEED_SCHEMA + """
ALTER TABLE reports ADD COLUMN csv_rows TEXT NOT NULL DEFAULT '';
UPDATE reports SET csv_rows = 'a-2021-01,2021,1,gabon,elephant,tusk,2,,3
a-2021-01,2021,1,,pangolin,,,12.5,
' WHERE report_id = 'a-2021-01';
UPDATE reports SET csv_rows = 'b-2021-02,2021,2,togo,,ivory,,513,1
' WHERE report_id = 'b-2021-02';
PRAGMA user_version = 1;
"""


class TestVersion1Migration:
    SCHEMA = VERSION_1_SCHEMA

    @pytest.fixture()
    def old_store(self, tmp_path):
        return raw_store(tmp_path / "old.db", self.SCHEMA)

    def test_tallies_filled_from_events(self, old_store):
        with EventStore(old_store) as s:
            stats = s.summarize()
            assert stats == reference_summary(s.events())
            assert s.content_hash() == text_hash(GOLDEN_CSV)
        assert (stats.total_events, stats.total_arrests, stats.distinct_species) == (3, 4, 2)
        assert_current(old_store)
        with EventStore(old_store) as s:
            s.ingest([ev("c-2021-03", month=3, species="leopard")])
            assert s.summarize() == reference_summary(s.events())

    def test_upgraded_store_opens_without_reading_reports(self, old_store, monkeypatch):
        EventStore(old_store).close()
        statements = traced_statements(monkeypatch)
        EventStore(old_store).close()
        tables = ("reports", "events", "tallies")
        assert statements and not [s for s in statements if any(t in s for t in tables)]


# the tallies table and the two triggers that keep it, as versions 2 and 3 wrote them
TALLIES_SCHEMA = """
CREATE TABLE tallies (
    kind    TEXT NOT NULL,
    name    TEXT NOT NULL,
    year    INTEGER NOT NULL,
    month   INTEGER NOT NULL,
    events  INTEGER NOT NULL,
    arrests INTEGER NOT NULL,
    PRIMARY KEY (kind, name, year, month)
) WITHOUT ROWID;
CREATE TRIGGER tally_event_insert AFTER INSERT ON events BEGIN
    INSERT INTO tallies (kind, name, year, month, events, arrests)
    SELECT 'total', '', 0, 0, 1, COALESCE(NEW.arrest_count, 0)
    UNION ALL SELECT 'country', NEW.country, 0, 0, 1, COALESCE(NEW.arrest_count, 0)
        WHERE NEW.country IS NOT NULL
    UNION ALL SELECT 'species', NEW.species, 0, 0, 1, COALESCE(NEW.arrest_count, 0)
        WHERE NEW.species IS NOT NULL
    UNION ALL SELECT 'month', '', year, month, 1, COALESCE(NEW.arrest_count, 0)
        FROM reports WHERE report_id = NEW.report_id
    ON CONFLICT (kind, name, year, month) DO UPDATE SET
        events = events + excluded.events, arrests = arrests + excluded.arrests;
END;
CREATE TRIGGER tally_event_delete AFTER DELETE ON events BEGIN
    UPDATE tallies SET events = events - 1, arrests = arrests - COALESCE(OLD.arrest_count, 0)
    WHERE kind = 'total' AND name = '' AND year = 0 AND month = 0;
    UPDATE tallies SET events = events - 1, arrests = arrests - COALESCE(OLD.arrest_count, 0)
    WHERE kind = 'country' AND name = OLD.country AND year = 0 AND month = 0;
    UPDATE tallies SET events = events - 1, arrests = arrests - COALESCE(OLD.arrest_count, 0)
    WHERE kind = 'species' AND name = OLD.species AND year = 0 AND month = 0;
    UPDATE tallies SET events = events - 1, arrests = arrests - COALESCE(OLD.arrest_count, 0)
    WHERE kind = 'month' AND name = ''
        AND (year, month) = (SELECT year, month FROM reports WHERE report_id = OLD.report_id);
END;
"""

# a store as version 2 wrote it: tallies kept by four triggers, two of which
# version 3 drops, plus zero-count rows such as version 3 leaves behind; the
# recount must replace every row without a key conflict
VERSION_2_SCHEMA = VERSION_1_SCHEMA.replace("PRAGMA user_version = 1;", "") + TALLIES_SCHEMA + """
CREATE TRIGGER tally_report_redate AFTER UPDATE OF year, month ON reports
WHEN OLD.year IS NOT NEW.year OR OLD.month IS NOT NEW.month BEGIN
    INSERT INTO tallies (kind, name, year, month, events, arrests)
    SELECT 'month', '', NEW.year, NEW.month, n, a FROM (
        SELECT COUNT(*) AS n, SUM(COALESCE(arrest_count, 0)) AS a
        FROM events WHERE report_id = NEW.report_id
    ) WHERE n > 0
    ON CONFLICT (kind, name, year, month) DO UPDATE SET
        events = events + excluded.events, arrests = arrests + excluded.arrests;
    UPDATE tallies SET
        events = events - (SELECT COUNT(*) FROM events WHERE report_id = NEW.report_id),
        arrests = arrests - (SELECT COALESCE(SUM(arrest_count), 0)
                             FROM events WHERE report_id = NEW.report_id)
    WHERE kind = 'month' AND name = '' AND year = OLD.year AND month = OLD.month;
END;
CREATE TRIGGER tally_drop_empty AFTER UPDATE OF events ON tallies
WHEN NEW.events = 0 BEGIN
    DELETE FROM tallies
    WHERE kind = NEW.kind AND name = NEW.name AND year = NEW.year AND month = NEW.month;
END;
INSERT INTO tallies VALUES
    ('total', '', 0, 0, 3, 4),
    ('country', 'gabon', 0, 0, 1, 3), ('country', 'togo', 0, 0, 1, 1),
    ('country', 'congo', 0, 0, 0, 0),
    ('species', 'elephant', 0, 0, 1, 3), ('species', 'pangolin', 0, 0, 1, 0),
    ('species', 'leopard', 0, 0, 0, 0),
    ('month', '', 2021, 1, 2, 3), ('month', '', 2021, 2, 1, 1), ('month', '', 2021, 3, 0, 0);
PRAGMA user_version = 2;
"""


class TestVersion2Migration(TestVersion1Migration):
    SCHEMA = VERSION_2_SCHEMA

    def test_zero_count_rows_recounted_away(self, old_store):
        EventStore(old_store).close()
        conn = sqlite3.connect(old_store)
        assert conn.execute("SELECT COUNT(*) FROM tallies WHERE events = 0").fetchone()[0] == 0
        conn.close()
        with EventStore(old_store) as s:
            s.ingest([ev(species="leopard", country="congo")])
            assert s.summarize() == reference_summary(s.events())


# a store as version 3 wrote it: reports in a rowid table, looked up through
# its key index, and tallies that hold the events' counts
VERSION_3_SCHEMA = VERSION_1_SCHEMA.replace("PRAGMA user_version = 1;", "") + TALLIES_SCHEMA + """
UPDATE reports SET source_path = 'briefs/a-2021-01.txt' WHERE report_id = 'a-2021-01';
INSERT INTO tallies VALUES
    ('total', '', 0, 0, 3, 4),
    ('country', 'gabon', 0, 0, 1, 3), ('country', 'togo', 0, 0, 1, 1),
    ('species', 'elephant', 0, 0, 1, 3), ('species', 'pangolin', 0, 0, 1, 0),
    ('month', '', 2021, 1, 2, 3), ('month', '', 2021, 2, 1, 1);
PRAGMA user_version = 3;
"""


class TestVersion3Migration(TestVersion1Migration):
    SCHEMA = VERSION_3_SCHEMA

    def test_report_rows_copied(self, old_store):
        query = "SELECT * FROM reports ORDER BY report_id"
        conn = sqlite3.connect(old_store)
        before = conn.execute(query).fetchall()
        conn.close()
        EventStore(old_store).close()
        conn = sqlite3.connect(old_store)
        assert conn.execute(query).fetchall() == before
        conn.close()
        assert_current(old_store)

    def test_foreign_key_still_enforced(self, old_store):
        with EventStore(old_store) as s:
            with pytest.raises(SchemaError, match="unknown report"):
                s.ingest([ev("zz-2021-05", month=5)])
            assert s.content_hash() == text_hash(GOLDEN_CSV)
        conn = sqlite3.connect(old_store)
        conn.execute("PRAGMA foreign_keys = ON")
        with pytest.raises(sqlite3.IntegrityError, match="FOREIGN KEY"):
            conn.execute("INSERT INTO events (report_id, species) VALUES ('zz-2021-05', 'x')")
        conn.close()


class TestReplay:
    def test_current_store_replays_unchanged(self, tmp_path):
        path = tmp_path / "current.db"
        rng = random.Random(913)
        with EventStore(path) as s:
            for r in range(1, 6):
                s.register_report(f"r{r}-2021-0{r}", 2021, r)
            # re-ingesting leaves gaps in the event ids and zero-count tallies
            for _ in range(3):
                r = rng.randint(1, 5)
                s.ingest([random_event(rng, f"r{r}-2021-0{r}", 2021, r, si) for si in range(4)])
            before = (s.content_hash(), s.summarize(), s.events())
        queries = ("SELECT * FROM events ORDER BY event_id", "SELECT * FROM reports")
        conn = sqlite3.connect(path)
        rows = [conn.execute(q).fetchall() for q in queries]
        conn.execute("PRAGMA user_version = 0")
        conn.close()
        with EventStore(path) as s:
            assert (s.content_hash(), s.summarize(), s.events()) == before
        conn = sqlite3.connect(path)
        assert [conn.execute(q).fetchall() for q in queries] == rows
        conn.close()
        assert_current(path)

    def test_wrong_tallies_and_cache_rebuilt(self, tmp_path):
        path = raw_store(tmp_path / "wrong.db", VERSION_3_SCHEMA + """
UPDATE tallies SET events = events + 5, arrests = 0;
INSERT INTO tallies VALUES ('country', 'congo', 0, 0, 2, 2);
UPDATE reports SET csv_rows = 'stale
';
""")
        with EventStore(path) as s:
            assert s.summarize() == reference_summary(s.events())
            assert s.summarize().total_events == 3
            assert s.content_hash() == text_hash(GOLDEN_CSV)
        assert_current(path)

    def test_other_tables_survive(self, tmp_path):
        path = raw_store(tmp_path / "shared.db", VERSION_3_SCHEMA + """
CREATE TABLE notes (
    note_id   INTEGER PRIMARY KEY,
    report_id TEXT REFERENCES reports(report_id),
    body      TEXT NOT NULL
);
CREATE INDEX notes_by_body ON notes(body);
CREATE VIEW noted AS SELECT r.report_id, n.body FROM reports r JOIN notes n USING (report_id);
INSERT INTO notes (report_id, body) VALUES ('a-2021-01', 'checked'), (NULL, 'to review');
""")
        EventStore(path).close()
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT * FROM notes").fetchall() == [
            (1, "a-2021-01", "checked"), (2, None, "to review")
        ]
        assert [row[1] for row in conn.execute("PRAGMA index_list(notes)")] == ["notes_by_body"]
        assert [row[2] for row in conn.execute("PRAGMA foreign_key_list(notes)")] == ["reports"]
        assert conn.execute("SELECT * FROM noted").fetchall() == [("a-2021-01", "checked")]
        conn.close()
        assert_current(path)

    def test_orphan_event_dropped(self, tmp_path, caplog):
        path = raw_store(tmp_path / "orphan.db", SEED_SCHEMA + """
INSERT INTO events (report_id, species) VALUES ('zz-2021-05', 'leopard');
""")
        with caplog.at_level(logging.WARNING, logger="brieflens"), EventStore(path) as s:
            assert s.content_hash() == text_hash(GOLDEN_CSV)
            assert s.export_csv(io.StringIO()) == 3
            stats = s.summarize()
            assert stats.total_events == sum(stats.per_month.values()) == 3
            assert "leopard" not in dict(stats.top_species)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: dropped 1 event(s) of unregistered reports"
        ]
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM events").fetchone()[0] == 3
        conn.close()
        assert_current(path)
