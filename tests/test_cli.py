"""Command line flows, exercised in process through main()."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import brieflens
from brieflens import cli
from brieflens.cli import main
from brieflens.corpus import DEFAULT_ABBREVIATIONS, document_from_text, load_report
from brieflens.evaluation import EvalReport, field_agree
from brieflens.pipeline import extract_document
from brieflens.resources import default_lexicon_paths
from brieflens.store import CSV_HEADER, EventStore, SchemaError, import_csv

from conftest import BRIEFS_DIR, GOLD_CSV, damage_table, traced_statements

# where this process imported brieflens from, src/ in a checkout or
# site-packages once installed: a child process imports the same copy
PACKAGE_ROOT = Path(brieflens.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtract:
    def test_fixture_corpus(self, tmp_path, capsys):
        store = tmp_path / "events.db"
        code, out, err = run(capsys, "extract", BRIEFS_DIR, "--store", store)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "demo-2021-01: 1 events",
            "demo-2021-02: 1 events",
            "demo-2021-03: 1 events",
            "demo-2021-04: 1 events",
            "demo-2021-05: 1 events",
            "demo-2021-06: 2 events",
        ]
        with EventStore(store) as s:
            assert len(s.events()) == 7
            assert s.content_hash() == "d9adf4d3b0f6bd38"

    def test_single_file_input(self, tmp_path, capsys):
        brief = BRIEFS_DIR / "demo-2021-02.txt"
        code, out, _ = run(capsys, "extract", brief, "--store", tmp_path / "e.db")
        assert code == 0
        assert out == "demo-2021-02: 1 events\n"

    def test_repeat_extraction_is_idempotent(self, tmp_path, capsys):
        store = tmp_path / "events.db"
        for _ in range(2):
            code, _, _ = run(capsys, "extract", BRIEFS_DIR, "--store", store)
            assert code == 0
            with EventStore(store) as s:
                assert s.content_hash() == "d9adf4d3b0f6bd38"

    def test_segments_like_the_library(self, tmp_path, capsys, monkeypatch):
        text = "Officers met Prof. Mbeki in Gabon. Two tusks were seized."
        brief = tmp_path / "probe-2021-01.txt"
        brief.write_text(text, encoding="utf-8")
        real_load_report = cli.load_report
        loaded = []

        def recording_load_report(*args, **kwargs):
            doc = real_load_report(*args, **kwargs)
            loaded.append(doc)
            return doc

        monkeypatch.setattr(cli, "load_report", recording_load_report)
        code, _, _ = run(capsys, "extract", brief, "--store", tmp_path / "e.db")
        assert code == 0
        library = document_from_text("probe-2021-01", 2021, 1, text)
        assert [(s.start_char, s.end_char) for s in loaded[0].sentences] == [
            (s.start_char, s.end_char) for s in library.sentences
        ]
        assert len(library.sentences) == 2

    def test_bad_brief_fails_that_file_only(self, tmp_path, capsys):
        briefs = tmp_path / "briefs"
        shutil.copytree(BRIEFS_DIR, briefs)
        (briefs / "broken.txt").write_text("No date in this name.\n", encoding="utf-8")
        code, out, err = run(capsys, "extract", briefs, "--store", tmp_path / "e.db")
        assert code == 2
        assert out.count(" events\n") == 6 and "demo-2021-06: 2 events" in out
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: broken.txt: report filename 'broken.txt' does not match"
            " <source>-<YYYY>-<MM>.txt"
        ]
        # the other briefs are committed as a run without it would commit them
        with EventStore(tmp_path / "e.db") as s:
            assert s.content_hash() == "d9adf4d3b0f6bd38"

    def test_store_error_fails_that_brief_only(self, tmp_path, capsys, monkeypatch):
        real_ingest = EventStore.ingest

        def failing_ingest(self, events):
            if any(e.report_id == "demo-2021-03" for e in events):
                raise SchemaError("rejected for the test")
            return real_ingest(self, events)

        monkeypatch.setattr(EventStore, "ingest", failing_ingest)
        store = tmp_path / "events.db"
        code, out, err = run(capsys, "extract", BRIEFS_DIR, "--store", store)
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: demo-2021-03.txt: rejected for the test"
        ]
        assert "demo-2021-03" not in out and "demo-2021-06: 2 events" in out
        with EventStore(store) as s:
            reports = [e.report_id for e in s.events()]
        assert "demo-2021-03" not in reports
        assert len(reports) == 6 and len(set(reports)) == 5

    def test_failed_brief_keeps_its_earlier_state(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "events.db"
        run(capsys, "extract", BRIEFS_DIR, "--store", store)
        before = report_state(store, "demo-2021-03")
        moved = tmp_path / "moved"
        shutil.copytree(BRIEFS_DIR, moved)
        (moved / "demo-2021-03.txt").write_text(
            "Officers in Togo seized five pangolins.\n", encoding="utf-8"
        )
        real_ingest = EventStore.ingest

        def failing_ingest(self, events):
            # writes the brief's new events, then fails
            count = real_ingest(self, events)
            if any(e.report_id == "demo-2021-03" for e in events):
                raise SchemaError("rejected for the test")
            return count

        monkeypatch.setattr(EventStore, "ingest", failing_ingest)
        code, out, err = run(capsys, "extract", moved, "--store", store)
        assert code == 2 and "error: demo-2021-03.txt: rejected for the test" in err
        assert report_state(store, "demo-2021-03") == before
        conn = sqlite3.connect(store)
        paths = dict(conn.execute("SELECT report_id, source_path FROM reports"))
        conn.close()
        assert paths.pop("demo-2021-03") == str(BRIEFS_DIR / "demo-2021-03.txt")
        assert paths == {f"demo-2021-0{m}": str(moved / f"demo-2021-0{m}.txt") for m in (1, 2, 4, 5, 6)}
        with EventStore(store) as s:
            assert s.content_hash() == "d9adf4d3b0f6bd38"

    @pytest.mark.parametrize("where", ["load_report", "ingest"])
    def test_interrupt_keeps_the_finished_briefs(self, where, tmp_path, capsys, monkeypatch):
        real_load_report, real_ingest = cli.load_report, EventStore.ingest

        def interrupted_load_report(path, *args, **kwargs):
            if path.name == "demo-2021-05.txt":
                raise KeyboardInterrupt
            return real_load_report(path, *args, **kwargs)

        def interrupted_ingest(self, events):
            # writes brief 5's events, then is interrupted
            count = real_ingest(self, events)
            if any(e.report_id == "demo-2021-05" for e in events):
                raise KeyboardInterrupt
            return count

        if where == "load_report":
            monkeypatch.setattr(cli, "load_report", interrupted_load_report)
        else:
            monkeypatch.setattr(EventStore, "ingest", interrupted_ingest)
        store = tmp_path / "events.db"
        try:
            code, out, err = run(capsys, "extract", BRIEFS_DIR, "--store", store)
        except KeyboardInterrupt:
            code, (out, err) = "KeyboardInterrupt", capsys.readouterr()
        assert code == 130
        kept = [f"demo-2021-0{m}" for m in (1, 2, 3, 4)]
        assert out.splitlines() == [f"{report_id}: 1 events" for report_id in kept]
        assert err == "interrupted: kept 4 briefs\n"
        conn = sqlite3.connect(store)
        assert [r for (r,) in conn.execute("SELECT report_id FROM reports ORDER BY 1")] == kept
        assert [r for (r,) in conn.execute("SELECT DISTINCT report_id FROM events ORDER BY 1")] == kept
        conn.close()

    def test_one_transaction_per_run(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "events.db"
        EventStore(store).close()
        statements = traced_statements(monkeypatch)
        code, _, _ = run(capsys, "extract", BRIEFS_DIR, "--store", store)
        assert code == 0
        assert [s for s in statements if s.startswith(("BEGIN", "COMMIT"))] == [
            "BEGIN IMMEDIATE", "COMMIT"
        ]

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code, out, err = run(capsys, "extract", empty, "--store", tmp_path / "e.db")
        assert code == 0
        assert "no briefs found" in err

    def test_explicit_bad_heuristics_is_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("sprocket=1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "extract", BRIEFS_DIR, "--store", tmp_path / "e.db",
            "--heuristics", cfg,
        )
        assert code == 1 and "error:" in err

    def test_negative_heuristics_fail_before_the_store_opens(self, tmp_path, capsys):
        cfg = tmp_path / "negative.cfg"
        cfg.write_text("arrest_default=-1\n", encoding="utf-8")
        store = tmp_path / "e.db"
        code, out, err = run(
            capsys, "extract", BRIEFS_DIR, "--store", store, "--heuristics", cfg,
        )
        assert code == 1 and "error:" in err and "negative.cfg" in err
        assert out == "" and not store.exists()

    def test_overlong_digit_run_is_skipped(self, tmp_path, capsys):
        brief = tmp_path / "long-2021-01.txt"
        brief.write_text(f"Rangers in Gabon seized {'1' * 5000} tusks.\n", encoding="utf-8")
        code, out, err = run(capsys, "extract", brief, "--store", tmp_path / "e.db")
        assert code == 0 and err == ""
        assert out == "long-2021-01: 1 events\n"

    def test_missing_abbreviations_file_is_fatal(self, tmp_path, capsys):
        store = tmp_path / "e.db"
        code, out, err = run(
            capsys, "extract", BRIEFS_DIR, "--store", store,
            "--abbreviations", tmp_path / "missing.txt",
        )
        assert code == 1 and "error:" in err and "missing.txt" in err
        assert out == "" and not store.exists()

    def test_missing_lexicon_file_is_fatal(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "extract", BRIEFS_DIR, "--store", tmp_path / "e.db",
            "--animals", tmp_path / "missing.csv",
        )
        assert code == 1 and "error:" in err


def report_state(store, report_id):
    """A report's row, its events and its export lines."""
    conn = sqlite3.connect(store)
    row = conn.execute("SELECT * FROM reports WHERE report_id = ?", (report_id,)).fetchall()
    conn.close()
    with EventStore(store) as s:
        events = [e for e in s.events() if e.report_id == report_id]
        date = s.report_date(report_id)
        exported = io.StringIO()
        s.export_csv(exported)
    lines = [line for line in exported.getvalue().splitlines() if line.startswith(report_id)]
    return row, date, events, lines


@pytest.fixture()
def extracted(tmp_path, capsys):
    store = tmp_path / "events.db"
    run(capsys, "extract", BRIEFS_DIR, "--store", store)
    return store


class TestEval:
    EXPECTED_LINES = [
        "fully=7",
        "partial=0",
        "unrelated=0",
        "undetected=0",
        "total_gold=7",
        "detected_gold=7",
        "detection_rate=1.000000",
        "agree_arrest_count=7",
        "agree_country=7",
        "agree_product=7",
        "agree_species=7",
        "agree_quantity=7",
        "agree_weight_kg=7",
    ]

    def test_eval_against_store(self, extracted, tmp_path, capsys):
        out_dir = tmp_path / "evalout"
        code, out, _ = run(
            capsys, "eval", "--gold", GOLD_CSV, "--store", extracted, "--out", out_dir
        )
        assert code == 0
        assert out.splitlines() == [
            "fully=7 partial=0 unrelated=0 undetected=0 total_gold=7",
            "detection_rate=1.0000",
        ]
        report = (out_dir / "eval_report.txt").read_text(encoding="utf-8")
        assert report.splitlines() == self.EXPECTED_LINES
        # the report is replaced through a temporary file that is gone after
        assert [p.name for p in out_dir.iterdir()] == ["eval_report.txt"]

    def test_eval_against_exported_csv(self, extracted, tmp_path, capsys):
        pred, shuffled = tmp_path / "pred.csv", tmp_path / "shuffled.csv"
        run(capsys, "export", pred, "--store", extracted)
        header, *rows = pred.read_text(encoding="utf-8").splitlines(keepends=True)
        # every other row from the last, then the rest: the two rows of
        # demo-2021-06 end up apart
        shuffled.write_text(header + "".join(rows[::-2] + rows[-2::-2]), encoding="utf-8")
        # the CSV loader scores the exported events as the store's were, and
        # takes the rows in any order
        reports = []
        for source in (["--store", extracted], ["--pred", pred], ["--pred", shuffled]):
            out_dir = tmp_path / f"eval-{len(reports)}"
            code, out, _ = run(capsys, "eval", "--gold", GOLD_CSV, *source, "--out", out_dir)
            assert code == 0 and "detection_rate=1.0000" in out
            reports.append((out_dir / "eval_report.txt").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_requires_exactly_one_source(self, extracted, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--gold", GOLD_CSV)
        assert code == 1 and "exactly one" in err
        code, _, err = run(
            capsys, "eval", "--gold", GOLD_CSV, "--store", extracted,
            "--pred", tmp_path / "p.csv",
        )
        assert code == 1 and "exactly one" in err

    def test_malformed_gold_is_usage_error(self, extracted, tmp_path, capsys):
        bad = tmp_path / "gold.csv"
        bad.write_text("not,a,header\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--gold", bad, "--store", extracted)
        assert code == 1 and "error:" in err

    def test_failed_write_keeps_the_earlier_report(self, extracted, tmp_path, capsys, monkeypatch):
        run(capsys, "eval", "--gold", GOLD_CSV, "--store", extracted, "--out", tmp_path)
        earlier = (tmp_path / "eval_report.txt").read_bytes()
        before = sorted(tmp_path.iterdir())
        # a lone surrogate cannot be encoded as UTF-8
        monkeypatch.setattr(EvalReport, "machine_lines", lambda self: ["\ud800"])
        code, _, err = run(capsys, "eval", "--gold", GOLD_CSV, "--store", extracted, "--out", tmp_path)
        assert code == 1 and err.startswith("error:")
        assert (tmp_path / "eval_report.txt").read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == before

    def test_out_naming_a_file_is_usage_error(self, extracted, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, _, err = run(
            capsys, "eval", "--gold", GOLD_CSV, "--store", extracted, "--out", taken
        )
        assert code == 1 and err.startswith("error:")
        assert taken.read_text(encoding="utf-8") == ""


# Brief text from words that make events, numbers, arrests and paragraphs,
# and decimal weights of any size, down to those the export renders as 0.
BRIEF_WORDS = st.one_of(
    st.sampled_from((
        "In", "Gabon", "Togo", ",", ".", "\n\n", "elephant", "ivory", "tusks", "pangolin",
        "scales", "two", "three", "12", "were", "seized", "with", "arrested", "officers",
    )),
    st.builds(
        "{}.{}{}{}".format,
        st.integers(0, 20),
        st.from_regex(r"[0-9]{1,9}", fullmatch=True),
        st.sampled_from(("", " ")),
        st.sampled_from(("kg", "g", "t", "lbs")),
    ),
)


class TestExportReadsBack:
    @settings(max_examples=40, deadline=None)
    @example(words=["In", "Gabon", ",", "0.0000001 kg", "ivory", "were", "seized", "."])
    @given(words=st.lists(BRIEF_WORDS, max_size=30))
    def test_extract_export_import(self, words, shipped_matcher):
        text = " ".join(words)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            brief = tmp / "x-2021-01.txt"
            brief.write_text(text, encoding="utf-8")
            store, export = tmp / "x.db", tmp / "x.csv"
            assert main(["extract", str(brief), "--store", str(store)]) == 0
            assert main(["export", str(export), "--store", str(store)]) == 0
            extracted = extract_document(load_report(brief, DEFAULT_ABBREVIATIONS),
                                         shipped_matcher)
            imported = import_csv(export)
            assert len(imported) == len(extracted)
            for got, want in zip(imported, extracted):
                assert field_agree(got.weight_kg, want.weight_kg)
                assert replace(got, weight_kg=None) == replace(
                    want, weight_kg=None, sentence_index=0)

            printed = []
            for source in (["--pred", str(export)], ["--store", str(store)]):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    assert main(["eval", "--gold", str(export), *source, "--out", str(tmp)]) == 0
                printed.append(buffer.getvalue())
            assert printed[0] == printed[1]


class TestExportAndReport:
    def test_export(self, extracted, tmp_path, capsys):
        out = tmp_path / "events.csv"
        code, stdout, _ = run(capsys, "export", out, "--store", extracted)
        assert code == 0
        assert stdout == f"wrote 7 events to {out}\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("report_id,year,month,")
        assert len(lines) == 8
        # content_hash is the export's sha256 prefix
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "d9adf4d3b0f6bd38"
        # a store below the current schema version is replayed into it on
        # open: the export is unchanged, and the file keeps no free pages
        conn = sqlite3.connect(extracted)
        conn.execute("PRAGMA user_version = 0")
        conn.close()
        exported = out.read_bytes()
        assert run(capsys, "export", out, "--store", extracted)[0] == 0
        assert out.read_bytes() == exported
        conn = sqlite3.connect(extracted)
        pragmas = [
            conn.execute(f"PRAGMA {p}").fetchone()[0] for p in ("user_version", "freelist_count")
        ]
        conn.close()
        assert pragmas == [4, 0]

    def test_export_missing_store_is_empty(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        code, stdout, _ = run(capsys, "export", out, "--store", tmp_path / "fresh.db")
        assert code == 0 and stdout.startswith("wrote 0 events")

    def test_report(self, extracted, tmp_path, capsys):
        out_dir = tmp_path / "site"
        code, stdout, _ = run(capsys, "report", "--store", extracted, "--out", out_dir)
        assert code == 0
        assert stdout == f"wrote {out_dir / 'summary.json'} and {out_dir / 'dashboard.html'}\n"
        assert (out_dir / "summary.json").exists()
        page = (out_dir / "dashboard.html").read_text(encoding="utf-8")
        assert 'data-metric="total_events" data-value="7"' in page
        # the store version is content_hash, a digest of the stored rows
        assert 'data-metric="store_version">d9adf4d3b0f6bd38<' in page

    @pytest.mark.parametrize(
        "text,rows",
        [
            # "and" joins the following number below 100, and pounds convert
            # to kilograms through the one unit table
            ("In Gabon, police seized two hundred and six pounds of ivory and forty-two tusks.",
             [",gabon,,ivory,,93.440028,", ",gabon,,tusk,42,,"]),
            # a zero weight is skipped whole, so its 0 never becomes the
            # arrest count: the event keeps the default of one
            ("In Gabon, police arrested smugglers with 0 kg of ivory.", [",gabon,,ivory,,,1"]),
            # a glued decimal unit and a grouped number with a spaced unit
            # are one weight each, and leave no digit over as a quantity
            ("In Gabon, 12.5kg of ivory and 1,200 kg of pangolin scales were seized.",
             [",gabon,,ivory,,12.5,", ",gabon,pangolin,scale,,1200,"]),
            # the product's cardinal wins over the species' one, an arrest-only
            # event takes its sentence's first country, and the seizure takes
            # Gabon from its paragraph
            ("In Gabon, rangers and officers from Togo arrested 3 suspects. "
             "Officers seized 2 elephant 3 tusks.",
             [",gabon,,,,,3", ",gabon,elephant,tusk,3,,"]),
        ],
        ids=["number words", "zero weight", "weights", "tie rules"],
    )
    def test_brief_exports_rows(self, text, rows, tmp_path, capsys):
        brief, store, out = tmp_path / "b-2021-01.txt", tmp_path / "b.db", tmp_path / "b.csv"
        brief.write_text(text + "\n", encoding="utf-8")
        assert run(capsys, "extract", brief, "--store", store)[0] == 0
        assert run(capsys, "export", out, "--store", store)[0] == 0
        exported = out.read_text(encoding="utf-8").splitlines()[1:]
        assert sorted(exported) == sorted(f"b-2021-01,2021,1{row}" for row in rows)


def test_second_writer_fails_while_readers_read(extracted, tmp_path, capsys, shipped_matcher):
    # the store has one writer: a second waits sqlite3's 5 s busy timeout,
    # then fails loudly, while readers see the last committed state at once
    late = tmp_path / "late"
    late.mkdir()
    shutil.copy(BRIEFS_DIR / "demo-2021-06.txt", late / "late-2021-07.txt")
    held = document_from_text("held-2021-08", 2021, 8, "In Gabon, two tusks were seized.")
    held_events = extract_document(held, shipped_matcher)
    assert held_events
    with EventStore(extracted) as writer, writer.batch():
        writer.register_report(held.report_id, held.year, held.month)
        writer.ingest(held_events)
        code, out, err = run(capsys, "extract", late, "--store", extracted)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write event store at {extracted}: database is locked\n"
        export = tmp_path / "events.csv"
        code, out, _ = run(capsys, "export", export, "--store", extracted)
        assert (code, out) == (0, f"wrote 7 events to {export}\n")
        code, _, _ = run(capsys, "report", "--store", extracted, "--out", tmp_path / "site")
        page = (tmp_path / "site" / "dashboard.html").read_text(encoding="utf-8")
        assert code == 0 and 'data-metric="total_events" data-value="7"' in page
        code, out, _ = run(
            capsys, "eval", "--gold", GOLD_CSV, "--store", extracted, "--out", tmp_path / "ev"
        )
        assert code == 0 and out.startswith("fully=7 partial=0 unrelated=0 undetected=0")
    with EventStore(extracted) as store:
        assert store.report_date("held-2021-08") == (2021, 8)
        assert store.report_date("late-2021-07") is None


# a child that runs `report` and exits 3 at the Nth os.replace, as a killed
# process would: no cleanup code runs
STOP_AT_REPLACE = """
import os, sys
from brieflens.cli import main
stop_at, replace = int(sys.argv[1]), os.replace
calls = 0
def stopping_replace(*args, **kwargs):
    global calls
    calls += 1
    if calls == stop_at:
        os._exit(3)
    return replace(*args, **kwargs)
os.replace = stopping_replace
main(["report", "--store", sys.argv[2], "--out", sys.argv[3]])
"""


class TestStoppedReport:
    """A `report` stopped between its writes never truncates an output."""

    OUTPUTS = ("summary.json", "dashboard.html")

    def stop_report(self, stop_at, extracted, tmp_path, capsys, shipped_matcher):
        """The outputs before, the outputs a whole run gives, and the stopped run's directory."""
        site, fresh = tmp_path / "site", tmp_path / "fresh"
        assert run(capsys, "report", "--store", extracted, "--out", site)[0] == 0
        before = {name: (site / name).read_bytes() for name in self.OUTPUTS}
        late = document_from_text("late-2021-09", 2021, 9, "In Gabon, two tusks were seized.")
        with EventStore(extracted) as store, store.batch():
            store.register_report(late.report_id, late.year, late.month)
            store.ingest(extract_document(late, shipped_matcher))
        done = subprocess.run(
            [sys.executable, "-c", STOP_AT_REPLACE, str(stop_at), str(extracted), str(site)],
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 3, done.stderr
        assert run(capsys, "report", "--store", extracted, "--out", fresh)[0] == 0
        after = {name: (fresh / name).read_bytes() for name in self.OUTPUTS}
        assert all(before[name] != after[name] for name in self.OUTPUTS)
        return before, after, site

    def left_behind(self, site):
        """The one temporary file the stopped run left, by the output it was to replace."""
        (partial,) = site.glob("*.tmp")
        dest, pid, _ = partial.name.rsplit(".", 2)
        assert pid.isdecimal()
        return dest, partial

    def test_stopped_at_the_first_rename(self, extracted, tmp_path, capsys, shipped_matcher):
        before, after, site = self.stop_report(1, extracted, tmp_path, capsys, shipped_matcher)
        assert {name: (site / name).read_bytes() for name in self.OUTPUTS} == before
        dest, partial = self.left_behind(site)
        assert dest == "summary.json" and partial.read_bytes() == after["summary.json"]
        # no later run sweeps it
        assert run(capsys, "report", "--store", extracted, "--out", site)[0] == 0
        assert partial.exists()

    def test_stopped_between_the_renames(self, extracted, tmp_path, capsys, shipped_matcher):
        # a new summary beside an old dashboard, and nothing in the two
        # files tells them apart
        before, after, site = self.stop_report(2, extracted, tmp_path, capsys, shipped_matcher)
        assert (site / "summary.json").read_bytes() == after["summary.json"]
        assert (site / "dashboard.html").read_bytes() == before["dashboard.html"]
        dest, partial = self.left_behind(site)
        assert dest == "dashboard.html" and partial.read_bytes() == after["dashboard.html"]


class TestLexiconValidate:
    def test_shipped_lists_are_clean(self, capsys, shipped_lexicon):
        code, out, err = run(capsys, "lexicon-validate")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "animals: 117 rows, 232 surfaces (animals.csv)"
        assert lines[1].startswith("products: ")
        assert lines[2].startswith("countries: ")
        assert lines[3] == f"merged: {len(shipped_lexicon)} surfaces, no conflicts"

    def test_module_entry_point(self):
        done = subprocess.run(
            [sys.executable, "-m", "brieflens.cli", "lexicon-validate"],
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "merged: 330 surfaces, no conflicts"

    def test_conflicting_file_flagged(self, tmp_path, capsys):
        bad = tmp_path / "animals.csv"
        bad.write_text(
            "surface,label,canonical\nhippo,ANIMAL,hippopotamus\nhippo,ANIMAL,hippo\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "lexicon-validate", "--animals", bad)
        assert code == 1 and "INVALID" in err

    def test_surfaces_that_are_one_phrase_flagged(self, tmp_path, capsys):
        animals, products = tmp_path / "a.csv", tmp_path / "p.csv"
        animals.write_text("surface,label,canonical\nsea turtle,ANIMAL,\n", encoding="utf-8")
        products.write_text(
            "surface,label,canonical\nsea  turtle,PRODUCT,turtle shell\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys, "lexicon-validate", "--animals", animals, "--products", products
        )
        assert code == 1 and "no conflicts" not in out
        clash = (
            "phrase 'sea turtle' maps to both ('ANIMAL', 'sea turtle')"
            " and ('PRODUCT', 'turtle shell') across lexicons"
        )
        assert err.splitlines() == [f"merge: INVALID: {clash}"]
        # extract runs the same merge, and fails before it opens the store
        briefs, store = tmp_path / "turtle", tmp_path / "turtle.db"
        briefs.mkdir()
        (briefs / "x-2021-01.txt").write_text(
            "In Gabon, two sea turtles were seized.\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys, "extract", briefs, "--store", store, "--animals", animals, "--products", products
        )
        assert (code, out, err) == (1, "", f"error: {clash}\n")
        assert not store.exists()
        # within one file, loading names both rows
        products.write_text(
            "surface,label,canonical\nsea turtle,PRODUCT,\nSea  Turtle,PRODUCT,turtle shell\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "lexicon-validate", "--products", products)
        assert code == 1
        assert err.splitlines() == [
            "products: INVALID: surface 'Sea  Turtle' maps to both ('PRODUCT', 'sea turtle')"
            " (from p.csv:2, as 'sea turtle') and ('PRODUCT', 'turtle shell') (from p.csv:3)",
        ]

    @pytest.mark.parametrize(
        "files,invalid",
        [
            ({"--animals": "sea turtle,ANIMAL,\nsea  turtle,ANIMAL,sea turtle\n"}, False),
            ({"--animals": b"name,label\nhippo,ANIMAL\n"}, True),
            ({"--animals": "hippo,MAMMAL,\n"}, True),
            ({"--animals": "hippo,ANIMAL,hippopotamus\nhippo,ANIMAL,hippo\n"}, True),
            ({"--animals": "tusk,ANIMAL,\n", "--products": "tusk,PRODUCT,\n"}, True),
            ({"--products": "bus,PRODUCT,\nbuse,PRODUCT,\n"}, True),
            ({"--countries": "c\xf4te,COUNTRY,\n".encode("latin-1")}, True),
            ({"--animals": "sea turtle,ANIMAL,\nsea  turtle,ANIMAL,turtle\n"}, True),
            ({"--animals": "sea turtle,ANIMAL,\n",
              "--products": "sea  turtle,PRODUCT,turtle shell\n"}, True),
        ],
        ids=["valid", "bad header", "unknown label", "conflict within a file",
             "conflict across files", "ambiguous plural", "not UTF-8",
             "one phrase in one file", "one phrase across files"],
    )
    def test_extract_accepts_what_validate_accepts(self, files, invalid, tmp_path, capsys):
        flags = []
        for flag, content in files.items():
            path = tmp_path / f"{flag[2:]}.csv"
            if isinstance(content, str):
                content = ("surface,label,canonical\n" + content).encode("utf-8")
            path.write_bytes(content)
            flags += [flag, path]
        empty, store = tmp_path / "briefs", tmp_path / "e.db"
        empty.mkdir()
        validated, _, _ = run(capsys, "lexicon-validate", *flags)
        extracted, _, err = run(capsys, "extract", empty, "--store", store, *flags)
        assert validated == (1 if invalid else 0)
        assert (extracted, err.startswith("error:")) == (validated, invalid)
        assert not store.exists()


class TestUsage:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, tmp_path, capsys, caplog, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        brief = BRIEFS_DIR / "demo-2021-02.txt"
        assert run(capsys, "-v", "extract", brief, "--store", tmp_path / "first.db")[0] == 0
        assert [r.getMessage() for r in caplog.records] == ["extracted 1 reports, 0 failures"]
        verbose = [(r.levelno, r.getMessage()) for r in caplog.records]
        caplog.clear()
        # -v is a flag: repeating it logs nothing more
        assert run(capsys, "-vv", "extract", brief, "--store", tmp_path / "first.db")[0] == 0
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == verbose
        caplog.clear()
        assert run(capsys, "extract", brief)[0] == 0
        assert caplog.records == []
        # the first call's --store is not the second call's default
        assert (cwd / "events.db").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "export", "x.csv", "--bogus")
        assert code == 1 and "error:" in err


LATIN1_COUNTRIES = "surface,label,canonical\nC\xf4te d'Ivoire,COUNTRY,\n".encode("latin-1")


def one_error(err, name, prefix="error:"):
    """Whether stderr is one line that starts with ``prefix`` and names ``name``."""
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith(prefix) and name in lines[0]


class TestBadInputs:
    """A bad input file or store ends the command with one line, never a traceback."""

    def test_latin1_gold_and_pred(self, extracted, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        row = "x-2021-01,2021,1,C\xf4te,elephant,,,,"
        latin1.write_bytes(f"{CSV_HEADER}\n{row}\n".encode("latin-1"))
        for gold, pred in ((latin1, GOLD_CSV), (GOLD_CSV, latin1)):
            code, _, err = run(capsys, "eval", "--gold", gold, "--pred", pred, "--out", tmp_path)
            assert code == 1 and one_error(err, "latin1.csv"), err

    @pytest.mark.parametrize(
        "row,message",
        [
            ("x-2021-13,2021,13,,elephant,,,,", "month 13"),
            # a weight the export could not write back, as the extractor never yields one
            ("x-2021-01,2021,1,gabon,,ivory,,nan,", "weight_kg 'nan' is not finite"),
        ],
        ids=["month 13", "nan weight"],
    )
    def test_bad_row_names_its_file(self, row, message, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        pred.write_text(f"{CSV_HEADER}\n{row}\n", encoding="utf-8")
        for gold in (GOLD_CSV, pred):
            code, _, err = run(capsys, "eval", "--gold", gold, "--pred", pred, "--out", tmp_path)
            assert code == 1 and one_error(err, f"p.csv: row 2: {message}"), err

    def test_overlong_field(self, tmp_path, capsys):
        gold = tmp_path / "long.csv"
        gold.write_text(f"{CSV_HEADER}\n{'x' * 200_000},2021,1,,elephant,,,,\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--gold", gold, "--pred", GOLD_CSV, "--out", tmp_path)
        assert code == 1 and one_error(err, "long.csv"), err
        lexicon = tmp_path / "long-animals.csv"
        lexicon.write_text(f"surface,label,canonical\n{'x' * 200_000},ANIMAL,\n", encoding="utf-8")
        code, _, err = run(capsys, "lexicon-validate", "--animals", lexicon)
        assert code == 1 and one_error(err, "long-animals.csv", "animals: INVALID:"), err

    def test_latin1_lexicon_is_invalid(self, tmp_path, capsys):
        countries = tmp_path / "lat.csv"
        countries.write_bytes(LATIN1_COUNTRIES)
        code, out, err = run(capsys, "lexicon-validate", "--countries", countries)
        assert code == 1 and one_error(err, "lat.csv", "countries: INVALID:"), err
        assert [line.split(":")[0] for line in out.splitlines()] == ["animals", "products"]

    @pytest.mark.parametrize(
        "flag,content",
        [
            ("--countries", LATIN1_COUNTRIES),
            ("--abbreviations", "e.g.\nC\xf4te.\n".encode("latin-1")),
            ("--heuristics", "# fen\xeatre\nquantity_window=3\n".encode("latin-1")),
        ],
    )
    def test_latin1_extract_config_is_fatal(self, flag, content, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(content)
        store = tmp_path / "e.db"
        code, out, err = run(capsys, "extract", BRIEFS_DIR, "--store", store, flag, config)
        assert code == 1 and one_error(err, "latin1.cfg"), err
        assert out == "" and not store.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("export", "{tmp}/out.csv"),
            ("report", "--out", "{tmp}/site"),
            ("eval", "--gold", str(GOLD_CSV), "--out", "{tmp}"),
        ],
    )
    def test_damaged_store(self, argv, extracted, tmp_path, capsys):
        damaged = tmp_path / "damaged.db"
        shutil.copy(extracted, damaged)
        damage_table(damaged, "reports")
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, *argv, "--store", damaged)
        assert code == 1 and one_error(err, "damaged.db"), err
        assert "malformed" in err

    @pytest.mark.parametrize("earlier", [b"earlier export\n", None])
    def test_failed_export_leaves_no_file_behind(self, earlier, extracted, tmp_path, capsys):
        # the damaged store opens, and the export fails after its header
        damaged = tmp_path / "damaged.db"
        shutil.copy(extracted, damaged)
        damage_table(damaged, "reports")
        out = tmp_path / "o.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        before = sorted(tmp_path.iterdir())
        code, _, err = run(capsys, "export", out, "--store", damaged)
        assert code == 1 and one_error(err, "damaged.db"), err
        assert sorted(tmp_path.iterdir()) == before
        if earlier is not None:
            assert out.read_bytes() == earlier


class TestByteOrderMark:
    """CSV inputs saved by spreadsheets start with a byte-order mark."""

    def test_gold_and_pred(self, extracted, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + GOLD_CSV.read_bytes())
        run(capsys, "eval", "--gold", GOLD_CSV, "--store", extracted, "--out", tmp_path / "plain")
        expected = (tmp_path / "plain" / "eval_report.txt").read_text(encoding="utf-8")
        for gold, pred in ((bom, GOLD_CSV), (GOLD_CSV, bom)):
            out_dir = tmp_path / "with-bom"
            code, _, err = run(capsys, "eval", "--gold", gold, "--pred", pred, "--out", out_dir)
            assert code == 0 and err == ""
            assert (out_dir / "eval_report.txt").read_text(encoding="utf-8") == expected

    def test_brief(self, tmp_path, capsys):
        exports = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            briefs = tmp_path / f"briefs-{len(prefix)}"
            briefs.mkdir()
            for brief in sorted(BRIEFS_DIR.glob("*.txt")):
                (briefs / brief.name).write_bytes(prefix + brief.read_bytes())
            store, export = tmp_path / f"{len(prefix)}.db", tmp_path / f"{len(prefix)}.csv"
            code, out, err = run(capsys, "extract", briefs, "--store", store)
            assert code == 0 and err == "" and out.count(" events\n") == 6
            run(capsys, "export", export, "--store", store)
            exports.append(export.read_bytes())
            brief = briefs / "demo-2021-06.txt"
            assert not load_report(brief).raw_text.startswith("\ufeff")
            assert load_report(brief).sentences == load_report(BRIEFS_DIR / brief.name).sentences
        assert exports[0] == exports[1]
        with EventStore(tmp_path / "3.db") as s:
            assert s.content_hash() == "d9adf4d3b0f6bd38"

    def test_heuristics(self, tmp_path, capsys):
        # a file holding the default window, so the events are the golden ones
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbfquantity_window=2\n")
        code, _, err = run(capsys, "extract", BRIEFS_DIR, "--store", tmp_path / "bom.db",
                           "--heuristics", bom)
        assert code == 0 and err == ""
        with EventStore(tmp_path / "bom.db") as store:
            assert store.content_hash() == "d9adf4d3b0f6bd38"

    def test_lexicon(self, tmp_path, capsys):
        plain = default_lexicon_paths()["countries"]
        bom = tmp_path / "countries.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "lexicon-validate")
        assert run(capsys, "lexicon-validate", "--countries", bom) == expected
        code, _, err = run(capsys, "extract", BRIEFS_DIR, "--store", tmp_path / "bom.db",
                           "--countries", bom)
        assert code == 0 and err == ""
        with EventStore(tmp_path / "bom.db") as store:
            assert store.content_hash() == "d9adf4d3b0f6bd38"
