"""Report rendering: deterministic JSON and the self-contained dashboard."""

from __future__ import annotations

import html as html_lib
import json
import math
import re
import sqlite3

import pytest

import brieflens.report
from brieflens.assembler import TraffickingEvent
from brieflens.report import emit_html, emit_json, render, write_report_files
from brieflens.store import EventStore, SummaryStats


STATS = SummaryStats(
    total_events=3,
    total_arrests=4,
    distinct_species=2,
    per_country={"togo": 1, "gabon": 2},
    per_month={(2021, 2): 1, (2021, 1): 2},
    top_species=[("elephant", 2), ("pangolin", 1)],
)

GOLDEN_JSON = """\
{
  "total_events": 3,
  "total_arrests": 4,
  "distinct_species": 2,
  "per_country": {
    "gabon": 2,
    "togo": 1
  },
  "per_month": {
    "2021-01": 2,
    "2021-02": 1
  },
  "top_species": [
    [
      "elephant",
      2
    ],
    [
      "pangolin",
      1
    ]
  ]
}
"""


def circles(page):
    return [
        (float(r), html_lib.unescape(name), int(count))
        for r, name, count in re.findall(
            r'<circle[^>]*\br="([0-9.]+)"[^>]*data-species="([^"]*)" data-count="(\d+)"',
            page,
        )
    ]


def country_rects(page):
    return [
        (html_lib.unescape(name), int(count))
        for name, count in re.findall(r'data-country="([^"]*)" data-count="(\d+)"', page)
    ]


def month_rects(page):
    return [
        (key, int(count))
        for key, count in re.findall(r'data-month="([0-9-]+)" data-count="(\d+)"', page)
    ]


class TestJson:
    def test_golden_bytes(self):
        assert emit_json(STATS) == GOLDEN_JSON

    def test_insertion_order_does_not_leak(self):
        shuffled = SummaryStats(
            total_events=3,
            total_arrests=4,
            distinct_species=2,
            per_country={"gabon": 2, "togo": 1},
            per_month={(2021, 1): 2, (2021, 2): 1},
            top_species=[("elephant", 2), ("pangolin", 1)],
        )
        assert emit_json(shuffled) == emit_json(STATS)

    def test_key_order_and_month_format(self):
        payload = json.loads(emit_json(STATS))
        assert list(payload) == [
            "total_events",
            "total_arrests",
            "distinct_species",
            "per_country",
            "per_month",
            "top_species",
        ]
        assert list(payload["per_month"]) == ["2021-01", "2021-02"]
        assert payload["top_species"] == [["elephant", 2], ["pangolin", 1]]

    def test_empty_stats(self):
        payload = json.loads(emit_json(SummaryStats(0, 0, 0)))
        assert payload["per_country"] == {} and payload["top_species"] == []


class TestDashboard:
    def test_counters_carry_machine_readable_values(self):
        page = emit_html(STATS)
        counters = dict(re.findall(r'data-metric="(\w+)" data-value="(\d+)"', page))
        assert counters == {
            "total_events": "3",
            "total_arrests": "4",
            "distinct_species": "2",
        }

    def test_bubbles_match_species_counts(self):
        page = emit_html(STATS)
        assert [(name, count) for _, name, count in circles(page)] == STATS.top_species

    def test_bubble_area_follows_square_root_law(self):
        stats = SummaryStats(
            2, 0, 2, top_species=[("leopard", 4), ("elephant", 1)]
        )
        got = circles(emit_html(stats))
        assert [(round(r, 3), name) for r, name, _ in got] == [
            (70.0, "leopard"),
            (35.0, "elephant"),
        ]
        stats = SummaryStats(
            0, 0, 0,
            top_species=[("a", 9), ("b", 7), ("c", 3), ("d", 2), ("e", 1)],
        )
        got = circles(emit_html(stats))
        r_max, _, c_max = got[0]
        for r, _, count in got:
            assert abs(r / r_max - math.sqrt(count / c_max)) < 0.01

    def test_bubble_rows_wrap_inside_the_canvas(self):
        stats = SummaryStats(
            0, 0, 12, top_species=[(f"species-{i}", 20 - i) for i in range(12)]
        )
        page = emit_html(stats)
        height = float(re.search(r'<svg class="bubbles"[^>]* height="([0-9.]+)"', page)[1])
        bubbles = [
            tuple(map(float, found))
            for found in re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)" r="([0-9.]+)"', page)
        ]
        label_ys = [float(y) for y in re.findall(r'y="([0-9.]+)" class="bubble-label"', page)]
        assert len(bubbles) == len(label_ys) == 12
        assert all(cx + r <= brieflens.report._CANVAS_WIDTH for cx, _, r in bubbles)
        # each row starts at the left edge, and the second lies below the whole first
        row_starts = [i for i, (cx, _, r) in enumerate(bubbles) if math.isclose(cx, r)]
        assert row_starts[0] == 0 and len(row_starts) > 1
        first_row_bottom = max(cy + r for _, cy, r in bubbles[: row_starts[1]])
        _, cy, r = bubbles[row_starts[1]]
        assert cy - r > first_row_bottom
        assert max(label_ys) <= height

    def test_country_bars_sorted_by_count_then_name(self):
        stats = SummaryStats(
            9, 0, 0, per_country={"gabon": 2, "togo": 5, "benin": 2}
        )
        page = emit_html(stats)
        assert country_rects(page) == [("togo", 5), ("benin", 2), ("gabon", 2)]
        widths = [float(w) for w in re.findall(r'<rect[^>]*width="([0-9.]+)"[^>]*data-country', page)]
        assert widths[0] > widths[1] == widths[2]

    def test_month_axis_is_chronological(self):
        stats = SummaryStats(
            4, 0, 0, per_month={(2021, 2): 1, (2020, 11): 2, (2021, 1): 1}
        )
        assert month_rects(emit_html(stats)) == [
            ("2020-11", 2),
            ("2021-01", 1),
            ("2021-02", 1),
        ]

    def test_attribute_values_escape_markup(self):
        stats = SummaryStats(1, 0, 0, per_country={"a&b": 1})
        page = emit_html(stats)
        assert 'data-country="a&amp;b"' in page
        assert country_rects(page) == [("a&b", 1)]

    def test_page_is_self_contained(self):
        page = emit_html(STATS, store_version="feedface00000000")
        for needle in ("http://", "https://", "<script", "<link", "@import", "url("):
            assert needle not in page
        assert page.startswith("<!DOCTYPE html>")
        assert page.endswith("</body></html>\n")

    def test_store_version_in_footer(self):
        page = emit_html(STATS, store_version="feedface00000000")
        assert '<span data-metric="store_version">feedface00000000</span>' in page
        assert "store_version" not in emit_html(STATS)

    def test_empty_stats_page(self):
        page = emit_html(SummaryStats(0, 0, 0))
        for phrase in ("no species recorded", "no countries recorded", "no months recorded"):
            assert phrase in page


class TestRenderAndFiles:
    def seeded_store(self):
        s = EventStore()
        s.register_report("a-2021-01", 2021, 1)
        s.ingest(
            [
                TraffickingEvent(
                    report_id="a-2021-01", year=2021, month=1,
                    country="gabon", species="elephant", arrest_count=3,
                )
            ]
        )
        return s

    def test_render_binds_store_version(self):
        with self.seeded_store() as s:
            rendered = render(s)
            assert rendered.store_version == s.content_hash()
            assert rendered.json_text == emit_json(s.summarize())
            assert f'data-metric="store_version">{rendered.store_version}<' in rendered.html_text

    def test_render_reads_one_state(self, tmp_path, monkeypatch):
        path = tmp_path / "events.db"
        with EventStore(path) as s:
            s.register_report("a-2021-01", 2021, 1)
            s.ingest([TraffickingEvent(report_id="a-2021-01", year=2021, month=1, species="elephant")])
            before = s.content_hash()
        writer = sqlite3.connect(path, timeout=0)
        real_summarize = EventStore.summarize
        landed = []

        def summarize_then_write(self):
            stats = real_summarize(self)
            # another process commits a report and its event right after the read
            try:
                writer.execute(
                    "INSERT INTO reports (report_id, year, month, csv_rows)"
                    " VALUES ('b-2021-02', 2021, 2, 'b-2021-02,2021,2,,pangolin,,,,\n')"
                )
                writer.execute("INSERT INTO events (report_id, species) VALUES ('b-2021-02', 'pangolin')")
                writer.commit()
                landed.append(True)
            except sqlite3.OperationalError:
                writer.rollback()
                landed.append(False)
            return stats

        monkeypatch.setattr(EventStore, "summarize", summarize_then_write)
        try:
            with EventStore(path) as s:
                rendered = render(s)
        finally:
            writer.close()
        assert json.loads(rendered.json_text)["total_events"] == 1
        # the stamp is the digest of the state the totals describe
        assert rendered.store_version == before
        assert landed == [False]

    def test_write_report_files(self, tmp_path):
        with self.seeded_store() as s:
            json_path, html_path = write_report_files(s, tmp_path / "out")
        assert json_path.name == "summary.json" and html_path.name == "dashboard.html"
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["total_events"] == 1
        assert 'data-metric="total_events" data-value="1"' in html_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("failing", ["emit_json", "emit_html"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, failing):
        out = tmp_path / "out"
        with self.seeded_store() as s:
            write_report_files(s, out)
            earlier = {p.name: p.read_bytes() for p in out.iterdir()}
            s.register_report("b-2021-02", 2021, 2)
            s.ingest([TraffickingEvent(report_id="b-2021-02", year=2021, month=2, species="pangolin")])
            rendered = render(s)
            assert rendered.json_text.encode("utf-8") != earlier["summary.json"]
            # a lone surrogate cannot be encoded as UTF-8
            monkeypatch.setattr(brieflens.report, failing, lambda *args, **kwargs: "\ud800")
            with pytest.raises(UnicodeEncodeError):
                write_report_files(s, out)
        assert sorted(p.name for p in out.iterdir()) == ["dashboard.html", "summary.json"]
        assert (out / "dashboard.html").read_bytes() == earlier["dashboard.html"]
        # summary.json is written first, so only a failing dashboard lets it through
        summary = rendered.json_text.encode("utf-8") if failing == "emit_html" else earlier["summary.json"]
        assert (out / "summary.json").read_bytes() == summary
