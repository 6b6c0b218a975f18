"""Embedded relational store for extracted events.

Two tables: ``reports`` keyed by report id, and ``events`` referencing
them.  Ingestion replaces whole reports, so re-extracting a brief never
duplicates its events.  Each report row also caches the interchange-CSV
text of its events (``csv_rows``), rewritten in the same transaction as
every write that can change it, so export and the content hash read one
row per report.  ``reports`` is a ``WITHOUT ROWID`` table, stored in
report-id order, so those reads scan it in order instead of walking its
key index and seeking into the table.  A report's date is fixed once it
is registered.  Each write call is atomic; ``EventStore.batch`` groups
many into one transaction, in which a failed call undoes only itself.  A third
table, ``tallies``, holds the running totals that ``summarize`` reads; two
triggers on ``events`` keep it current, so no write path does its own
bookkeeping.  ``snapshot`` runs a block of reads in one read transaction,
so they see one state of the store; ``iter_events`` reads every event one
report at a time inside one.
A store of an older schema version is replayed into the current schema
when opened: its report and event rows are copied, and the tallies and
CSV cache are rebuilt by the code that keeps them current.
The CSV interchange format is fixed:

    report_id,year,month,country,species,product,quantity,weight_kg,arrest_count

with empty strings for absent fields and weights rendered with at most six
decimal places, trailing zeros trimmed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import logging
import math
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .assembler import TraffickingEvent
from .measures import format_weight
from .resources import open_lines, replace_file

__all__ = [
    "CSV_COLUMNS",
    "CSV_HEADER",
    "CsvFormatError",
    "EventStore",
    "SchemaError",
    "StoreError",
    "SummaryStats",
    "format_weight",
    "import_csv",
]

_LOGGER = logging.getLogger("brieflens")

CSV_HEADER = "report_id,year,month,country,species,product,quantity,weight_kg,arrest_count"
CSV_COLUMNS = tuple(CSV_HEADER.split(","))


class StoreError(Exception):
    """Raised when the backing database cannot be opened, read or written."""


class SchemaError(StoreError):
    """Raised for constraint violations, such as events of unknown reports."""


class CsvFormatError(ValueError):
    """Raised for a bad header or unparseable row in the interchange CSV."""


# Bumped whenever the schema below changes; a store below this version is
# replayed into it when opened.  Stores at this version open without any scan.
_SCHEMA_VERSION = 4

# The store's own tables; an upgrade replays them, and leaves any other alone.
_TABLES = ("reports", "events", "tallies")

_SCHEMA = (
    """
CREATE TABLE reports (
    report_id   TEXT PRIMARY KEY,
    year        INTEGER NOT NULL,
    month       INTEGER NOT NULL CHECK (month BETWEEN 1 AND 12),
    source_path TEXT NOT NULL DEFAULT '',
    csv_rows    TEXT NOT NULL DEFAULT ''
) WITHOUT ROWID""",
    """
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
)""",
    "CREATE INDEX events_by_report ON events(report_id)",
    # One row per running total: kind 'total', one 'country' or 'species'
    # row per name, one 'month' row per (year, month).  Each counts events
    # and the arrests they carry; a row whose count falls to 0 stays, and
    # summarize skips it.
    """
CREATE TABLE tallies (
    kind    TEXT NOT NULL,
    name    TEXT NOT NULL,
    year    INTEGER NOT NULL,
    month   INTEGER NOT NULL,
    events  INTEGER NOT NULL,
    arrests INTEGER NOT NULL,
    PRIMARY KEY (kind, name, year, month)
) WITHOUT ROWID""",
    """
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
END""",
    """
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
END""",
)

# The event columns in TraffickingEvent field order, joined to their report;
# readers append their own WHERE and ORDER BY.
_EVENT_ROWS = (
    "SELECT e.report_id, r.year, r.month, e.country, e.species, e.product,"
    " e.quantity, e.weight_kg, e.arrest_count, e.sentence_index"
    " FROM events e JOIN reports r ON r.report_id = e.report_id"
)


@dataclass(frozen=True)
class SummaryStats:
    """Aggregates over all stored events."""

    total_events: int
    total_arrests: int
    distinct_species: int
    per_country: dict[str, int] = field(default_factory=dict)
    per_month: dict[tuple[int, int], int] = field(default_factory=dict)
    top_species: list[tuple[str, int]] = field(default_factory=list)


class EventStore:
    """Single-writer event database; pass ":memory:" for an ephemeral store."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        with self._sqlite_errors(f"cannot open event store at {path}: ", "open"):
            self._conn = sqlite3.connect(self.path)
            try:
                # content_hash digests the stored text as bytes, which are the
                # export's UTF-8 bytes only in a UTF-8 database
                encoding = self._conn.execute("PRAGMA encoding").fetchone()[0]
                if encoding != "UTF-8":
                    raise StoreError(
                        f"cannot open event store at {path}: its text encoding is"
                        f" {encoding}, not UTF-8"
                    )
                if self._conn.execute("PRAGMA user_version").fetchone()[0] < _SCHEMA_VERSION:
                    self._upgrade()
                self._conn.execute("PRAGMA foreign_keys = ON")
            except BaseException:
                self._conn.close()
                raise

    @contextlib.contextmanager
    def _sqlite_errors(self, violation: str = "", action: str = "read") -> Iterator[None]:
        """Raise the block's SQLite errors as the store's own.

        A constraint violation, or an integer SQLite cannot hold, becomes a
        :class:`SchemaError` whose message follows ``violation``; any other
        error, a :class:`StoreError` that names the store and what could not
        be done to it.
        """
        try:
            yield
        except (sqlite3.IntegrityError, OverflowError) as exc:
            raise SchemaError(f"{violation}{exc}") from exc
        except sqlite3.Error as exc:
            raise StoreError(f"cannot {action} event store at {self.path}: {exc}") from exc

    def _upgrade(self) -> None:
        """Replay an older store into the current schema.

        Its report rows, then its event rows, are copied into fresh tables,
        as they are: foreign keys are off.  An event whose report is not
        registered has no date, so no count could place it: it is dropped,
        and the number dropped is logged as a warning.  The insert trigger
        recounts the tallies, every report's CSV cache is rewritten from its
        events, and the old tables' pages are vacuumed away, so the file
        does not grow.
        """
        conn = self._conn
        # the pragma is a no-op inside a transaction
        conn.execute("PRAGMA foreign_keys = OFF")
        # renames then leave the foreign keys and views of other tables
        # naming the store's tables, not the old copies dropped below
        conn.execute("PRAGMA legacy_alter_table = ON")
        with conn:
            conn.execute("BEGIN IMMEDIATE")
            master = conn.execute(
                "SELECT type, name, tbl_name FROM sqlite_master WHERE sql IS NOT NULL"
            ).fetchall()
            # a renamed table keeps its triggers and indexes under their
            # names, which the schema's own would then find taken
            for kind, name, table in master:
                if kind in ("trigger", "index") and table in _TABLES:
                    conn.execute(f'DROP {kind} "{name}"')
            old = [name for kind, name, _ in master if kind == "table" and name in _TABLES]
            for name in old:
                conn.execute(f"ALTER TABLE {name} RENAME TO old_{name}")
            for statement in _SCHEMA:
                conn.execute(statement)
            # the tallies are not copied: the insert trigger recounts them
            # an event of an unregistered report has no date: it is not copied
            orphan = "report_id NOT IN (SELECT report_id FROM reports)"
            for name in ("reports", "events"):
                if name in old:
                    kept = {row[1] for row in conn.execute(f"PRAGMA table_info(old_{name})")}
                    columns = [row[1] for row in conn.execute(f"PRAGMA table_info({name})")]
                    shared = ", ".join(c for c in columns if c in kept)
                    where = f" WHERE NOT {orphan}" if name == "events" else ""
                    conn.execute(
                        f"INSERT INTO {name} ({shared}) SELECT {shared} FROM old_{name}{where}"
                    )
            dropped = 0
            if "events" in old:
                query = f"SELECT COUNT(*) FROM old_events WHERE {orphan}"
                (dropped,) = conn.execute(query).fetchone()
            for name in old:
                conn.execute(f"DROP TABLE old_{name}")
            self._refresh_csv_rows(
                [report_id for (report_id,) in conn.execute("SELECT report_id FROM reports")]
            )
            conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
        conn.execute("PRAGMA legacy_alter_table = OFF")
        if dropped:
            _LOGGER.warning("%s: dropped %d event(s) of unregistered reports", self.path, dropped)
        if old:
            # frees the old tables' pages; it cannot run inside a transaction
            conn.execute("VACUUM")

    def _refresh_csv_rows(self, report_ids: Iterable[str]) -> None:
        """Rewrite the cached CSV text of each report from its stored events.

        Reading the rows back, rather than formatting the caller's events,
        keeps the text equal to what ``events()`` returns after SQLite's
        column affinity has converted the values.
        """
        for report_id in report_ids:
            rows = self._conn.execute(
                f"{_EVENT_ROWS} WHERE e.report_id = ? ORDER BY e.sentence_index, e.event_id",
                (report_id,),
            )
            self._conn.execute(
                "UPDATE reports SET csv_rows = ? WHERE report_id = ?",
                (_csv_text(rows), report_id),
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Run the block's writes as one transaction.

        The block commits when it ends and rolls back if it raises.  Nested
        in another batch, it is a savepoint instead, so if it raises only
        its own writes are undone.  Each write call runs in a batch of its
        own: alone it commits by itself, and in a batch a failed call
        leaves the batch's other writes in place.
        """
        if self._conn.in_transaction:
            with self._savepoint():
                yield
            return
        with self._sqlite_errors(action="write"):
            # opened explicitly: releasing an outermost savepoint would commit
            self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.rollback()
            raise
        with self._sqlite_errors(action="write"):
            self._conn.commit()

    @contextlib.contextmanager
    def _savepoint(self) -> Iterator[None]:
        self._conn.execute("SAVEPOINT batch")
        try:
            yield
        except BaseException:
            # some errors make SQLite roll back the whole transaction itself
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK TO batch")
                self._conn.execute("RELEASE batch")
            raise
        self._conn.execute("RELEASE batch")

    def register_report(
        self, report_id: str, year: int, month: int, source_path: str = ""
    ) -> None:
        """Insert one report row, or update a known report's source path.

        A report's date is fixed: another date raises :class:`SchemaError`.
        """
        known = self.report_date(report_id)
        if known is not None and known != (year, month):
            raise SchemaError(
                f"report {report_id!r} is registered as {known};"
                f" its date cannot change to {(year, month)}"
            )
        violation = f"cannot register report {report_id!r}: "
        with self._sqlite_errors(violation, "write"), self.batch():
            self._conn.execute(
                "INSERT INTO reports (report_id, year, month, source_path)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(report_id) DO UPDATE SET source_path = excluded.source_path",
                (report_id, year, month, source_path),
            )

    def has_report(self, report_id: str) -> bool:
        return self.report_date(report_id) is not None

    def report_date(self, report_id: str) -> tuple[int, int] | None:
        with self._sqlite_errors():
            row = self._conn.execute(
                "SELECT year, month FROM reports WHERE report_id = ?", (report_id,)
            ).fetchone()
        return (row[0], row[1]) if row else None

    def ingest(self, events: Sequence[TraffickingEvent]) -> int:
        """Replace all stored events of the affected reports with ``events``.

        Ingesting the same batch twice leaves the store unchanged.  Every
        event must reference a registered report and agree with its date.
        """
        events = list(events)
        affected = sorted({e.report_id for e in events})
        dates = {report_id: self.report_date(report_id) for report_id in affected}
        for event in events:
            if event.species is None and event.product is None and event.arrest_count is None:
                raise SchemaError(
                    f"event in {event.report_id!r} has no species, product or arrest count"
                )
            known = dates[event.report_id]
            if known is None:
                raise SchemaError(
                    f"event references unknown report {event.report_id!r};"
                    " register the report first"
                )
            if known != (event.year, event.month):
                raise SchemaError(
                    f"event date {(event.year, event.month)} disagrees with report"
                    f" {event.report_id!r} registered as {known}"
                )
        violation = "event batch violates store constraints: "
        with self._sqlite_errors(violation, "write"), self.batch():
            for report_id in affected:
                self._conn.execute("DELETE FROM events WHERE report_id = ?", (report_id,))
            self._conn.executemany(
                "INSERT INTO events (report_id, sentence_index, country, species,"
                " product, quantity, weight_kg, arrest_count)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    (
                        e.report_id,
                        e.sentence_index,
                        e.country,
                        e.species,
                        e.product,
                        e.quantity,
                        e.weight_kg,
                        e.arrest_count,
                    )
                    for e in events
                ),
            )
            self._refresh_csv_rows(affected)
        return len(events)

    def events(self, report_id: str | None = None) -> list[TraffickingEvent]:
        """Events in export order: report id, sentence index, insertion.

        With no argument, every event; with a report id, that report's
        events, read through the ``events_by_report`` index.  Equal string
        values share one object, since thousands of rows repeat a few
        report ids, countries, species and products; so do equal years.
        """
        where, params = ("", ()) if report_id is None else (" WHERE e.report_id = ?", (report_id,))
        sql = f"{_EVENT_ROWS}{where} ORDER BY e.report_id, e.sentence_index, e.event_id"
        with self._sqlite_errors():
            return _shared_events(self._conn.execute(sql, params))

    @contextlib.contextmanager
    def snapshot(self) -> Iterator[None]:
        """Run the block's reads in one read transaction, so they see one state.

        While the block runs, no other connection can commit a write.  The
        transaction ends with the block, and a write made through this store
        meanwhile is undone with it.  Inside a ``batch`` the reads run in the
        batch's own transaction instead, and see its writes.
        """
        if self._conn.in_transaction:
            yield
            return
        with self._sqlite_errors():
            self._conn.execute("BEGIN")
        try:
            yield
        finally:
            # the reads kept nothing; a store closed meanwhile has already
            # ended the transaction
            with contextlib.suppress(sqlite3.ProgrammingError):
                self._conn.rollback()

    def iter_events(self) -> Iterator[TraffickingEvent]:
        """Every event in export order, read one report at a time.

        The reads run in one :meth:`snapshot`, which stays open while the
        iterator is suspended and ends when it is exhausted, closed or dropped.
        """
        with self.snapshot():
            with self._sqlite_errors():
                # read from the events_by_report index, not from ``reports``,
                # whose rows carry each report's cached CSV text
                ids = self._conn.execute("SELECT DISTINCT report_id FROM events ORDER BY report_id")
                report_ids = [report_id for (report_id,) in ids]
            for report_id in report_ids:
                # one events() call per report: perfbench's tracer counts the
                # rows read at that method
                yield from self.events(report_id)

    def _csv_chunks(self) -> Iterator[str]:
        """The interchange CSV: the header, then each report's cached rows."""
        yield CSV_HEADER + "\n"
        for (text,) in self._conn.execute("SELECT csv_rows FROM reports ORDER BY report_id"):
            yield text

    def export_csv(self, dest: str | Path | TextIO) -> int:
        """Write the interchange CSV; returns the number of data rows.

        A path is replaced only once the whole export is written.
        """
        with self._sqlite_errors():
            if hasattr(dest, "write"):
                dest.writelines(self._csv_chunks())
            else:
                replace_file(dest, self._csv_chunks())
            row = self._conn.execute(
                "SELECT events FROM tallies"
                " WHERE kind = 'total' AND name = '' AND year = 0 AND month = 0"
            ).fetchone()
        return row[0] if row else 0

    def content_hash(self) -> str:
        """Digest of the exported rows; identical stores hash identically.

        The cached rows are hashed as stored, without decoding them: the
        store is UTF-8, so these are the export's bytes.
        """
        digest = hashlib.sha256((CSV_HEADER + "\n").encode("utf-8"))
        with self._sqlite_errors():
            for (data,) in self._conn.execute(
                "SELECT CAST(csv_rows AS BLOB) FROM reports ORDER BY report_id"
            ):
                digest.update(data)
        return digest.hexdigest()[:16]

    def summarize(self) -> SummaryStats:
        """The dashboard's aggregates, read from the running totals."""
        total_events = total_arrests = 0
        per_country: dict[str, int] = {}
        per_month: dict[tuple[int, int], int] = {}
        species: list[tuple[str, int]] = []
        with self._sqlite_errors():
            rows = self._conn.execute(
                "SELECT kind, name, year, month, events, arrests FROM tallies WHERE events > 0"
            ).fetchall()
        for kind, name, year, month, events, arrests in rows:
            if kind == "total":
                total_events, total_arrests = events, arrests
            elif kind == "country":
                per_country[name] = events
            elif kind == "species":
                species.append((name, events))
            else:
                per_month[(year, month)] = events
        species.sort(key=lambda item: (-item[1], item[0]))
        return SummaryStats(
            total_events=total_events,
            total_arrests=total_arrests,
            distinct_species=len(species),
            per_country=per_country,
            per_month=per_month,
            top_species=species,
        )


def _shared_events(rows: Iterable[tuple]) -> list[TraffickingEvent]:
    """Events of rows holding their fields in ``TraffickingEvent`` order.

    Equal strings share one object, and so do equal years; a string never
    equals a number, so one table serves both.  No other value is shared: as
    1 == 1.0, a shared weight could come back as an int.
    """
    share = {}.setdefault
    return [
        TraffickingEvent(
            share(report_id, report_id), share(year, year), month, share(country, country),
            share(species, species), share(product, product),
            quantity, weight_kg, arrest_count, sentence_index,
        )
        for (report_id, year, month, country, species, product,
             quantity, weight_kg, arrest_count, sentence_index) in rows
    ]


def _csv_text(rows: Iterable[tuple]) -> str:
    """CSV lines, without header, of ``_EVENT_ROWS`` rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for report_id, year, month, country, species, product, quantity, weight_kg, arrests, _ in rows:
        writer.writerow(
            [
                report_id,
                str(year),
                str(month),
                country or "",
                species or "",
                product or "",
                "" if quantity is None else str(quantity),
                "" if weight_kg is None else format_weight(weight_kg),
                "" if arrests is None else str(arrests),
            ]
        )
    return buffer.getvalue()


def _parse_int(value: str, column: str, row: int) -> int:
    try:
        number = int(value)
    except ValueError as exc:
        raise CsvFormatError(f"row {row}: {column} {value!r} is not an integer") from exc
    # the store keeps signed 64-bit integers
    if not -(2**63) <= number < 2**63:
        raise CsvFormatError(f"row {row}: {column} {value!r} is outside the 64-bit range")
    return number


def import_csv(source: str | Path | TextIO) -> list[TraffickingEvent]:
    """Read the interchange CSV back into events.

    The text is read a line at a time; after one leading byte-order mark,
    the header must match exactly.  Empty cells become absent fields.  Events
    read this way have no sentence provenance, so sentence_index is 0.  Text
    that is not UTF-8 or not in this format raises :class:`CsvFormatError`,
    which names the file when ``source`` is a path; so does a weight that is
    not finite, not positive, or that the export would write as 0.
    """
    with open_lines(source, CsvFormatError) as lines:
        try:
            return _shared_events(_parse_csv(lines))
        except (CsvFormatError, csv.Error) as exc:  # csv.Error: an overlong field
            prefix = "" if hasattr(source, "read") else f"{source}: "
            raise CsvFormatError(f"{prefix}{exc}") from exc


def _parse_csv(lines: Iterable[str]) -> Iterator[tuple]:
    """The validated rows of the interchange CSV, in ``TraffickingEvent`` field order."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"missing header; expected {CSV_HEADER!r}") from None
    if tuple(header) != CSV_COLUMNS:
        raise CsvFormatError(f"bad header {','.join(header)!r}; expected {CSV_HEADER!r}")
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise CsvFormatError(f"row {i}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        (report_id, year, month, country, species, product, quantity, weight, arrests) = row
        month_value = _parse_int(month, "month", i)
        if not 1 <= month_value <= 12:
            raise CsvFormatError(f"row {i}: month {month_value} outside 1..12")
        quantity_value = _parse_int(quantity, "quantity", i) if quantity else None
        if quantity_value is not None and quantity_value < 1:
            raise CsvFormatError(f"row {i}: quantity must be at least 1")
        arrest_value = _parse_int(arrests, "arrest_count", i) if arrests else None
        if arrest_value is not None and arrest_value < 0:
            raise CsvFormatError(f"row {i}: arrest_count must not be negative")
        weight_value: float | None = None
        if weight:
            try:
                weight_value = float(weight)
            except ValueError as exc:
                raise CsvFormatError(f"row {i}: weight_kg {weight!r} is not a number") from exc
            # as for the extractor, a weight is one the export writes back
            if not math.isfinite(weight_value):
                raise CsvFormatError(f"row {i}: weight_kg {weight!r} is not finite")
            if weight_value <= 0:
                raise CsvFormatError(f"row {i}: weight_kg must be positive")
            if format_weight(weight_value) == "0":
                raise CsvFormatError(f"row {i}: weight_kg {weight!r} would export as 0")
        yield (report_id, _parse_int(year, "year", i), month_value, country or None,
               species or None, product or None, quantity_value, weight_value, arrest_value, 0)
