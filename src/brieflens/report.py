"""Rendering summary statistics to JSON and a static HTML dashboard.

The JSON rendering is byte-deterministic for identical stats.  The HTML
page is a single self-contained file: styles are inline, charts are inline
SVG and nothing references the network.  Every number shown on the page is
repeated in data attributes (data-metric/data-value, data-species,
data-country, data-month with data-count) so the page can be checked by
machines as well as read by people.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .resources import replace_file
from .store import EventStore, SummaryStats

__all__ = [
    "RenderedReport",
    "emit_html",
    "emit_json",
    "render",
    "write_report_files",
]

_MAX_BUBBLE_RADIUS = 70.0
_CANVAS_WIDTH = 760


@dataclass(frozen=True)
class RenderedReport:
    json_text: str
    html_text: str
    store_version: str


def _month_key(year: int, month: int) -> str:
    return f"{year:04d}-{month:02d}"


def emit_json(stats: SummaryStats) -> str:
    """Serialize stats with a stable key order and unquoted integers."""
    payload = {
        "total_events": stats.total_events,
        "total_arrests": stats.total_arrests,
        "distinct_species": stats.distinct_species,
        "per_country": {name: stats.per_country[name] for name in sorted(stats.per_country)},
        "per_month": {
            _month_key(y, m): stats.per_month[(y, m)] for y, m in sorted(stats.per_month)
        },
        "top_species": [[name, count] for name, count in stats.top_species],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _counter(metric: str, label: str, value: int) -> str:
    return (
        f'<div class="counter" data-metric="{metric}" data-value="{value}">'
        f'<span class="counter-value">{value}</span>'
        f'<span class="counter-label">{html.escape(label)}</span></div>'
    )


def _svg(cls: str, width: int, height: int | str, parts: list[str]) -> str:
    """One chart: ``parts`` framed in an inline ``<svg>`` of the given size."""
    return (
        f'<svg class="{cls}" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">' + "".join(parts) + "</svg>"
    )


def _bubble_chart(stats: SummaryStats) -> str:
    species = stats.top_species
    if not species:
        return '<p class="empty">no species recorded</p>'
    max_count = species[0][1]
    scale = _MAX_BUBBLE_RADIUS / math.sqrt(max_count)
    placed: list[tuple[float, float, float, str, int]] = []
    x = 0.0
    row_top = 0.0
    row_height = 0.0
    gap = 14.0
    label_space = 22.0
    for name, count in species:
        radius = scale * math.sqrt(count)
        cell = 2 * radius + gap
        if x + cell > _CANVAS_WIDTH and x > 0:
            x = 0.0
            row_top += row_height + label_space
            row_height = 0.0
        placed.append((x + radius, row_top + radius, radius, name, count))
        x += cell
        row_height = max(row_height, 2 * radius)
    height = row_top + row_height + label_space
    parts = []
    for cx, cy, radius, name, count in placed:
        safe = html.escape(name, quote=True)
        parts.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{radius:.3f}" class="bubble" '
            f'data-species="{safe}" data-count="{count}"/>'
        )
        parts.append(
            f'<text x="{cx:.3f}" y="{cy + radius + 14:.3f}" class="bubble-label" '
            f'text-anchor="middle">{safe} ({count})</text>'
        )
    return _svg("bubbles", _CANVAS_WIDTH, f"{height:.1f}", parts)


def _country_bars(stats: SummaryStats) -> str:
    if not stats.per_country:
        return '<p class="empty">no countries recorded</p>'
    ordered = sorted(stats.per_country.items(), key=lambda kv: (-kv[1], kv[0]))
    max_count = ordered[0][1]
    bar_height = 22
    gap = 6
    label_width = 170
    bar_area = 420
    height = len(ordered) * (bar_height + gap)
    parts = []
    for i, (name, count) in enumerate(ordered):
        y = i * (bar_height + gap)
        width = bar_area * count / max_count
        safe = html.escape(name, quote=True)
        parts.append(
            f'<text x="{label_width - 8}" y="{y + bar_height - 6}" '
            f'text-anchor="end" class="bar-label">{safe}</text>'
        )
        parts.append(
            f'<rect x="{label_width}" y="{y}" width="{width:.2f}" height="{bar_height}" '
            f'class="bar" data-country="{safe}" data-count="{count}"/>'
        )
        parts.append(
            f'<text x="{label_width + width + 6:.2f}" y="{y + bar_height - 6}" '
            f'class="bar-count">{count}</text>'
        )
    return _svg("bars", label_width + bar_area + 60, height, parts)


def _month_series(stats: SummaryStats) -> str:
    if not stats.per_month:
        return '<p class="empty">no months recorded</p>'
    ordered = [( _month_key(y, m), stats.per_month[(y, m)]) for y, m in sorted(stats.per_month)]
    max_count = max(count for _, count in ordered)
    column = 46
    chart_height = 150
    height = chart_height + 40
    width = len(ordered) * column
    parts = []
    for i, (key, count) in enumerate(ordered):
        bar = chart_height * count / max_count
        x = i * column + 6
        y = chart_height - bar
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{column - 12}" height="{bar:.2f}" '
            f'class="month-bar" data-month="{key}" data-count="{count}"/>'
        )
        parts.append(
            f'<text x="{x + (column - 12) / 2}" y="{y - 4:.2f}" text-anchor="middle" '
            f'class="month-count">{count}</text>'
        )
        parts.append(
            f'<text x="{x + (column - 12) / 2}" y="{chart_height + 16}" '
            f'text-anchor="middle" class="month-label">{key}</text>'
        )
    return _svg("months", width, height, parts)


_STYLE = """
body { font-family: Georgia, 'Times New Roman', serif; margin: 2rem auto;
       max-width: 880px; color: #1c2a33; background: #fbfaf7; }
h1 { font-size: 1.6rem; border-bottom: 2px solid #2d5a46; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; color: #2d5a46; }
.counters { display: flex; gap: 1.5rem; margin-top: 1.5rem; }
.counter { background: #ffffff; border: 1px solid #d8d3c6; border-radius: 8px;
           padding: 1rem 1.6rem; text-align: center; }
.counter-value { display: block; font-size: 2rem; font-weight: bold; color: #2d5a46; }
.counter-label { display: block; font-size: .8rem; letter-spacing: .06em;
                 text-transform: uppercase; color: #67604f; }
.bubble { fill: #2d5a46; fill-opacity: .75; stroke: #1d3a2d; }
.bubble-label, .bar-label, .bar-count, .month-label, .month-count {
  font-family: Verdana, Arial, sans-serif; font-size: 11px; fill: #3a463f; }
.bar { fill: #b5541c; fill-opacity: .8; }
.month-bar { fill: #39657f; fill-opacity: .85; }
.empty { color: #8a8274; font-style: italic; }
footer { margin-top: 3rem; font-size: .75rem; color: #8a8274; }
svg { max-width: 100%; height: auto; }
"""


def emit_html(stats: SummaryStats, store_version: str = "") -> str:
    """Render the dashboard page for ``stats``."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        "<title>Trafficking event summary</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        "<h1>Trafficking event summary</h1>",
        '<div class="counters">',
        _counter("total_events", "events", stats.total_events),
        _counter("total_arrests", "arrests", stats.total_arrests),
        _counter("distinct_species", "species", stats.distinct_species),
        "</div>",
        "<h2>Events by species</h2>",
        _bubble_chart(stats),
        "<h2>Events by country</h2>",
        _country_bars(stats),
        "<h2>Events by month</h2>",
        _month_series(stats),
        "<footer>",
        f'store version <span data-metric="store_version">{html.escape(store_version)}</span>'
        if store_version
        else "",
        "</footer>",
        "</body></html>",
    ]
    return "\n".join(part for part in parts if part) + "\n"


def render(store: EventStore) -> RenderedReport:
    """Summarize a store and render both output formats.

    The totals and the store version are read from one snapshot, so the
    version is the digest of the state the totals describe.
    """
    with store.snapshot():
        stats = store.summarize()
        version = store.content_hash()
    return RenderedReport(
        json_text=emit_json(stats),
        html_text=emit_html(stats, store_version=version),
        store_version=version,
    )


def write_report_files(store: EventStore, out_dir: str | Path) -> tuple[Path, Path]:
    """Write summary.json and dashboard.html into ``out_dir``, each replaced whole."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rendered = render(store)
    json_path = out / "summary.json"
    html_path = out / "dashboard.html"
    replace_file(json_path, [rendered.json_text])
    replace_file(html_path, [rendered.html_text])
    return json_path, html_path
