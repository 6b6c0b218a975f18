"""Span tracing for the benchmark's traced run.

The tracer wraps public layer functions at the names their callers look
up, for example ``brieflens.pipeline.find_entities`` rather than
``brieflens.matcher.find_entities``, and the ``EventStore`` methods on the
class.  Nothing under ``src/`` changes.  Each call records a span: its
name, start, end, the index of its parent span and the command or update
it belongs to.  Parents come from a per-thread stack.  Spans stay in
memory and are written out once, when the run ends.

A layer's self time is its span's duration minus the part covered by its
child spans.  The counters some boundaries keep run after the wrapped call
returns, and their cost is charged to no layer: it is part of the tracing
overhead the run reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator, TextIO

Count = Callable[["Tracer", tuple, object], None]


def _document(tracer: "Tracer", args: tuple, doc) -> None:
    tracer.counts["corpus.briefs"] += 1
    tracer.counts["corpus.sentences"] += len(doc.sentences)
    lengths = [len(s.tokens) for s in doc.sentences]
    tracer.counts["corpus.tokens"] += sum(lengths)
    tracer.sentence_tokens.extend(lengths)


def _surfaces(tracer: "Tracer", args: tuple, lexicon) -> None:
    tracer.counts["lexicon.surfaces"] = len(lexicon)


def _lexical(tracer: "Tracer", args: tuple, spans) -> None:
    tracer.counts["matcher.lexical_spans"] += len(spans)
    tracer.counts["matcher.tokens"] += sum(len(s.tokens) for s in args[0].sentences)


def _adder(key: str, size: Callable[[object], int] = len) -> Count:
    def count(tracer: "Tracer", args: tuple, result) -> None:
        tracer.counts[key] += size(result)
    return count


def _pairs(tracer: "Tracer", args: tuple, results) -> None:
    predicted, gold = Counter(), Counter()
    for event in args[0]:
        predicted[event.report_id] += 1
    for event in args[1]:
        gold[event.report_id] += 1
    tracer.counts["evaluation.reports"] += len(results)
    tracer.counts["evaluation.pair_candidates"] += sum(n * gold[r] for r, n in predicted.items())


# (span name, where the callers look the function up, counter)
BOUNDARIES: tuple[tuple[str, str, Count | None], ...] = (
    ("cli", "brieflens.cli:main", None),
    ("lexicon.load", "brieflens.cli:load_lexicon", None),
    ("lexicon.merge", "brieflens.cli:merge_lexicons", _surfaces),
    ("matcher.compile", "brieflens.cli:compile_lexicon", None),
    ("corpus.load_report", "brieflens.cli:load_report", _document),
    ("corpus.segment", "brieflens.corpus:segment_sentences", None),
    ("corpus.tokenize", "brieflens.corpus:tokenize", None),
    ("pipeline.extract_document", "brieflens.cli:extract_document", None),
    ("matcher.find_entities", "brieflens.pipeline:find_entities", _lexical),
    ("measures.numeric_spans", "brieflens.pipeline:numeric_spans",
     _adder("measures.numeric_spans")),
    ("matcher.merge_spans", "brieflens.pipeline:merge_spans", _adder("matcher.merged_spans")),
    ("assembler.assemble", "brieflens.pipeline:assemble", _adder("assembler.events")),
    ("measures.arrest", "brieflens.assembler:detect_arrest_count", None),
    ("measures.arrest", "brieflens.assembler:has_arrest_lexeme", None),
    ("store.open", "brieflens.store:EventStore.__init__", None),
    ("store.register_report", "brieflens.store:EventStore.register_report",
     _adder("store.write_calls", lambda _: 1)),
    ("store.ingest", "brieflens.store:EventStore.ingest",
     _adder("store.write_calls", lambda _: 1)),
    ("store.events", "brieflens.store:EventStore.events", _adder("store.rows_read")),
    ("store.content_hash", "brieflens.store:EventStore.content_hash", None),
    ("store.summarize", "brieflens.store:EventStore.summarize", None),
    ("store.export_csv", "brieflens.store:EventStore.export_csv", None),
    ("store.import_csv", "brieflens.cli:import_csv", None),
    ("evaluation.evaluate_corpus", "brieflens.cli:evaluate_corpus", _pairs),
    ("evaluation.compute_report", "brieflens.cli:compute_report", None),
    ("report.write", "brieflens.cli:write_report_files", None),
    ("report.render", "brieflens.report:render",
     _adder("report.html_bytes", lambda r: len(r.html_text.encode("utf-8")))),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))


class Tracer:
    """Spans and counters of one traced pass over a workload."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.context = ""
        # (name, start, end, parent index or -1, context); times from origin
        self.spans: list[tuple | None] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.sentence_tokens: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Count | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans), 0.0]  # span index, time in child spans
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[frame[0]] = (
                    name, start - tracer.origin, end - tracer.origin,
                    parent[0] if parent else -1, tracer.context,
                )
                tracer.calls[name] += 1
                tracer.self_time[name] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
            if count is not None:
                count(tracer, args, result)
                if parent is not None:
                    parent[1] += perf_counter() - end
            return result

        return traced

    def write(self, handle: TextIO, pass_index: int) -> None:
        """One JSON array per span: name, start, end, parent, pass, context."""
        for name, start, end, parent, context in self.spans:
            handle.write(json.dumps([name, round(start, 7), round(end, 7), parent,
                                     pass_index, context], ensure_ascii=False) + "\n")


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, attr_path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every boundary for the duration of the block."""
    originals = []
    try:
        for name, target, count in BOUNDARIES:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
