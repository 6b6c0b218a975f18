"""Command line front end.

Subcommands: extract, eval, export, report, lexicon-validate.  Exit codes
are 0 for success, 1 for usage or format errors, 2 when a batch finished
but some inputs failed, and 130 when an interrupted extract kept the briefs
it had finished.  A bad flag, input file or store ends any command with one
``error:`` line, printed by :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from operator import attrgetter
from pathlib import Path

from .assembler import HeuristicConfig, load_heuristics
from .corpus import DEFAULT_ABBREVIATIONS, load_abbreviations, load_report
from .evaluation import compute_report, evaluate_corpus
from .lexicon import Lexicon, LexiconError, load_lexicon, merge_lexicons
from .matcher import compile_lexicon
from .pipeline import extract_document
from .report import write_report_files
from .resources import default_lexicon_paths, replace_file
from .store import EventStore, StoreError, import_csv

__all__ = ["main"]

LOGGER = logging.getLogger("brieflens")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_INTERRUPTED = 130


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that through our codes
    def error(self, message: str) -> "None":  # type: ignore[override]
        raise _UsageError(message)


def _add_lexicon_flags(parser: argparse.ArgumentParser) -> None:
    defaults = default_lexicon_paths()
    parser.add_argument("--animals", type=Path, default=defaults["animals"],
                        help="animal lexicon CSV (default: shipped list)")
    parser.add_argument("--products", type=Path, default=defaults["products"],
                        help="product lexicon CSV (default: shipped list)")
    parser.add_argument("--countries", type=Path, default=defaults["countries"],
                        help="country lexicon CSV (default: shipped list)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process.

    Every call returns the same parser, so callers must not change it;
    parsing keeps no state in it, so one call's flags never become the
    next call's defaults.
    """
    parser = _Parser(
        prog="brieflens",
        description="Extract, store, evaluate and summarize trafficking events"
        " from plain-text enforcement briefs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract events from briefs into the store")
    p_extract.add_argument("inputs", nargs="+", type=Path,
                           help="brief files or directories of *.txt briefs")
    _add_lexicon_flags(p_extract)
    p_extract.add_argument("--abbreviations", type=Path, default=None,
                           help="sentence-abbreviation list (default: shipped list)")
    p_extract.add_argument("--heuristics", type=Path, default=None,
                           help="key=value window configuration (default: built-in windows)")
    p_extract.add_argument("--store", type=Path, default=Path("events.db"),
                           help="event store path (default: events.db)")
    p_extract.set_defaults(func=cmd_extract)

    p_eval = sub.add_parser("eval", help="score predictions against a gold CSV")
    p_eval.add_argument("--gold", type=Path, required=True, help="gold events CSV")
    p_eval.add_argument("--pred", type=Path, default=None,
                        help="predicted events CSV (alternative to --store)")
    p_eval.add_argument("--store", type=Path, default=None,
                        help="read predictions from this event store")
    p_eval.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the machine-readable report (default: .)")
    p_eval.set_defaults(func=cmd_eval)

    p_export = sub.add_parser("export", help="export the store as CSV")
    p_export.add_argument("out", type=Path, help="destination CSV path")
    p_export.add_argument("--store", type=Path, default=Path("events.db"),
                          help="event store path (default: events.db)")
    p_export.set_defaults(func=cmd_export)

    p_report = sub.add_parser("report", help="write summary.json and dashboard.html")
    p_report.add_argument("--store", type=Path, default=Path("events.db"),
                          help="event store path (default: events.db)")
    p_report.add_argument("--out", type=Path, default=Path("."),
                          help="output directory (default: .)")
    p_report.set_defaults(func=cmd_report)

    p_lex = sub.add_parser("lexicon-validate", help="check the lexicon files")
    _add_lexicon_flags(p_lex)
    p_lex.set_defaults(func=cmd_lexicon_validate)

    return parser


def _load_merged_lexicon(args: argparse.Namespace) -> Lexicon:
    lexicons = [load_lexicon(args.animals), load_lexicon(args.products),
                load_lexicon(args.countries)]
    return merge_lexicons(lexicons)


def _collect_brief_paths(inputs: list[Path]) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        if item.is_dir():
            paths.extend(sorted(item.glob("*.txt")))
        else:
            paths.append(item)
    return paths


def _existing_store(path: Path) -> EventStore:
    """Open the store a read command reads; a missing one is an error, not a new empty store."""
    if not path.exists():
        raise FileNotFoundError(f"no event store at {path}")
    return EventStore(path)


def cmd_extract(args: argparse.Namespace) -> int:
    lexicon = _load_merged_lexicon(args)
    abbreviations = (
        DEFAULT_ABBREVIATIONS
        if args.abbreviations is None
        else load_abbreviations(args.abbreviations)
    )
    config = HeuristicConfig() if args.heuristics is None else load_heuristics(args.heuristics)
    matcher = compile_lexicon(lexicon)

    paths = _collect_brief_paths(args.inputs)
    if not paths:
        print("no briefs found", file=sys.stderr)
        return EXIT_OK

    extracted = 0
    failures = 0
    interrupted = False
    # one transaction for the run; a failed or interrupted brief rolls back
    # its own savepoint only, and an interrupt commits the briefs before it
    with EventStore(args.store) as store, store.batch():
        for path in paths:
            try:
                doc = load_report(path, abbreviations)
                events = extract_document(doc, matcher, config)
                with store.batch():
                    store.register_report(doc.report_id, doc.year, doc.month, str(path))
                    store.ingest(events)
            except KeyboardInterrupt:
                interrupted = True
                break
            except Exception as exc:  # a bad brief or a store error fails that brief only
                failures += 1
                print(f"error: {path.name}: {exc}", file=sys.stderr)
                continue
            extracted += 1
            print(f"{doc.report_id}: {len(events)} events")

    LOGGER.info("extracted %d reports, %d failures", extracted, failures)
    if interrupted:
        print(f"interrupted: kept {extracted} briefs", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if (args.pred is None) == (args.store is None):
        raise _UsageError("give exactly one of --pred or --store")
    gold = import_csv(args.gold)
    if args.pred is not None:
        # a stable sort brings each report's rows together, in file order
        predicted = sorted(import_csv(args.pred), key=attrgetter("report_id"))
        results = evaluate_corpus(predicted, gold)
    else:
        with _existing_store(args.store) as store:
            results = evaluate_corpus(store.iter_events(), gold)
    report = compute_report(results)
    print(report.counts_line())
    print(f"detection_rate={report.detection_rate:.4f}")
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "eval_report.txt"
    replace_file(out_path, ["\n".join(report.machine_lines()) + "\n"])
    LOGGER.info("wrote %s", out_path)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    with _existing_store(args.store) as store:
        rows = store.export_csv(args.out)
    print(f"wrote {rows} events to {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    with _existing_store(args.store) as store:
        json_path, html_path = write_report_files(store, args.out)
    print(f"wrote {json_path} and {html_path}")
    return EXIT_OK


def cmd_lexicon_validate(args: argparse.Namespace) -> int:
    lexicons = []
    failed = False
    for kind in ("animals", "products", "countries"):
        path: Path = getattr(args, kind)
        try:
            lexicon = load_lexicon(path)
        except (LexiconError, OSError) as exc:
            print(f"{kind}: INVALID: {exc}", file=sys.stderr)
            failed = True
            continue
        lexicons.append(lexicon)
        print(f"{kind}: {lexicon.n_rows} rows, {len(lexicon)} surfaces ({path.name})")
    if failed:
        return EXIT_USAGE
    try:
        # the merge that extract runs, so both accept one set of lexicons
        merged = merge_lexicons(lexicons)
    except LexiconError as exc:
        print(f"merge: INVALID: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"merged: {len(merged)} surfaces, no conflicts")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command; a bad flag, input file or store prints ``error:`` and exits 1.

    LexiconError and CsvFormatError are ValueErrors.
    """
    try:
        args = build_parser().parse_args(argv)
        # set on every call, so one call's -v does not carry over to the next
        LOGGER.setLevel(logging.INFO if args.verbose else logging.NOTSET)
        if args.verbose:
            logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (_UsageError, OSError, ValueError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
