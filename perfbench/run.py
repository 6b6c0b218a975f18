#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the brieflens command line.

Run from the repository root:

    python3 perfbench/run.py --workload monthly-batch --seed 1 --seconds 30 --trace 0

The benchmark generates a corpus from the seed, then drives the
``brieflens`` command line in-process through ``cli.main``: one client,
closed loop, default flags, a real sqlite file under ``perfbench/work``.
It repeats the workload's command sequence for about ``--seconds``
(always at least once) and checks every pass's outputs against
what the generator planted.  ``--trace 0`` prints every end-to-end
metric (END_TO_END); ``--trace 1`` wraps the layer functions (see
``tracing.py``) and prints per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the RESULT subset or every
per-layer metric.  ``layers.json`` says which end-to-end metric each
layer metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = BENCH_DIR / "work"
EXPECTED = BENCH_DIR / "expected.json"

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 1
MONTHLY_BRIEFS = 1000
DOSSIERS = 12
ARCHIVE_REPORTS = 2500  # about 2.3 MB of store, above sqlite's 2000 KiB page cache
UPDATES = 100
# single-brief updates after a batch workload's batch: enough that update
# times cover most of a pass and a pass alone puts six beyond update_ms_p90
LATE_UPDATES = 60
SETUP_REPEATS = 7
# export and eval are short, so a batch pass runs each this many times;
# their metrics are medians over every run of the command
READ_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"), ("briefs_per_s", "1/s"), ("export_s", "s"), ("eval_s", "s"),
    ("report_s", "s"), ("pipeline_s", "s"), ("update_ms_p50", "ms"),
    ("update_ms_p90", "ms"), ("peak_rss_mb", "MB"),
)
# The end-to-end metrics in the result line and BENCHMARK.json.  On a shared
# two-core VM the host switches between a fast and a slow state, about 1.5x
# apart, for seconds to minutes at a time.  Medians and whole-pass times
# follow the share of the run spent in each state.  Nearly every run spends
# more than a tenth of its time in the slow state, so the 90th percentile of
# the 100-180 update times spread over a run repeats, and peak memory does
# not drift.  Every run still prints all of END_TO_END.
RESULT = ("setup_s", "update_ms_p90", "peak_rss_mb")
PER_LAYER = tuple(
    [(f"{name}_s" if name != "cli" else "cli.self_s", "s") for name in tracing.SPAN_NAMES]
    + [("trace.overhead_s", "s")]
    + [(name, "count") for name in (
        "corpus.briefs", "corpus.sentences", "corpus.tokens",
        "corpus.tokens_per_sentence_p50", "corpus.tokens_per_sentence_p90",
        "lexicon.surfaces", "matcher.lexical_spans", "matcher.merged_spans",
        "measures.numeric_spans", "assembler.events", "store.write_calls",
        "store.rows_read", "evaluation.reports", "evaluation.pair_candidates")]
    + [("matcher.tokens_per_s", "tokens/s"), ("matcher.kept_ratio", "ratio"),
       ("store.db_bytes", "bytes"), ("store.bytes_per_event", "bytes"),
       ("report.html_bytes", "bytes")]
)

# one fresh interpreter running `brieflens extract <empty dir>`, as the
# console script does
SETUP_SNIPPET = "import sys; from brieflens.cli import main; sys.exit(main(sys.argv[1:]))"


class SetupError(Exception):
    """The benchmark cannot run here: no program sources or no fixture corpus."""


# -- workloads ---------------------------------------------------------------


@dataclass
class Checkpoint:
    """Export and eval against the store as it stands at one point of a pass."""

    gold: Path
    expected: gen.Expected
    repeats: int


@dataclass
class Plan:
    """Generated inputs of one workload and the outputs they must produce."""

    batch_dir: Path | None  # extracted by one command before anything else
    batch_briefs: int
    updates: list[Path]  # one brief each: extract it, then report
    template: Path | None  # archive store copied in before every pass
    # keyed by the number of updates applied when export and eval run
    checkpoints: dict[int, Checkpoint]
    final: gen.Expected  # the store after the last command
    corpus_sha256: str


def _write_updates(briefs: list[gen.Brief], directory: Path) -> list[Path]:
    # one directory per update, since a revision reuses its report's file name
    paths = []
    for i, brief in enumerate(briefs):
        gen.write_briefs([brief], directory / f"{i:03d}")
        paths.append(directory / f"{i:03d}" / brief.filename)
    return paths


def _plan(wdir: Path, model: gen.StoreModel, batch: list[gen.Brief],
          updates: list[gen.Brief], checkpoints: dict[int, int],
          template: Path | None = None) -> Plan:
    """Apply ``batch`` and then ``updates`` to ``model``, snapshotting the
    expected outputs at each checkpoint (updates applied -> repeats)."""
    digest = hashlib.sha256()
    for brief in batch + updates:
        digest.update(f"{brief.filename}\0{brief.text}\0".encode("utf-8"))
    if batch:
        gen.write_briefs(batch, wdir / "briefs")
    for brief in batch:
        model.apply(brief)
    taken = {}
    for done in range(len(updates) + 1):
        if done:
            model.apply(updates[done - 1])
        if done in checkpoints:
            expected = model.expected()
            gold = wdir / f"gold-{done}.csv"
            gold.write_text(expected.gold_csv, encoding="utf-8")
            digest.update(expected.gold_csv.encode("utf-8"))
            taken[done] = Checkpoint(gold, expected, checkpoints[done])
    return Plan(wdir / "briefs" if batch else None, len(batch),
                _write_updates(updates, wdir / "updates"), template, taken,
                model.expected(), digest.hexdigest())


def monthly_batch(seed: int, wdir: Path) -> Plan:
    """About 1000 realistic monthly briefs, then 60 late briefs one by one."""
    rng = random.Random(f"monthly-batch:{seed}")
    writer = gen.BriefWriter(rng)
    corpus = [writer.monthly(*key) for key in gen.monthly_ids(rng, MONTHLY_BRIEFS)]
    tail = [writer.monthly(*key) for key in gen.monthly_ids(rng, LATE_UPDATES, prefix="late-")]
    return _plan(wdir, gen.StoreModel(), corpus, tail, {0: READ_REPEATS})


def dense_dossiers(seed: int, wdir: Path) -> Plan:
    """Twelve long compendium briefs, then 60 late monthly briefs one by one."""
    rng = random.Random(f"dense-dossiers:{seed}")
    writer = gen.BriefWriter(rng)
    corpus = [writer.dossier(*key) for key in gen.monthly_ids(rng, DOSSIERS)]
    tail = [writer.monthly(*key) for key in gen.monthly_ids(rng, LATE_UPDATES, prefix="late-")]
    return _plan(wdir, gen.StoreModel(), corpus, tail, {0: READ_REPEATS})


def incremental_archive(seed: int, wdir: Path) -> Plan:
    """An archive store built through EventStore, then 100 single-brief updates.

    Every other update revises an existing report and every fifth revision
    withdraws all of its events, which leaves the old rows in the store.
    Export and eval run after every 25 updates.
    """
    from brieflens.assembler import TraffickingEvent
    from brieflens.store import EventStore

    rng = random.Random(f"incremental-archive:{seed}")
    writer = gen.BriefWriter(rng)
    archive = [writer.monthly(*key) for key in gen.monthly_ids(rng, ARCHIVE_REPORTS)]
    known = [(b.report_id, b.year, b.month) for b in archive]
    fresh = iter(gen.monthly_ids(rng, UPDATES, prefix="late-"))
    updates = []
    for i in range(UPDATES):
        if i % 2 == 0:
            key = rng.choice(known)
            revision = i // 2
            updates.append(writer.empty_revision(*key) if revision % 5 == 2
                           else writer.monthly(*key))
        else:
            key = next(fresh)
            known.append(key)
            updates.append(writer.monthly(*key))

    template = wdir / "archive.db"
    model = gen.StoreModel()
    with EventStore(template) as store:
        for brief in archive:
            store.register_report(brief.report_id, brief.year, brief.month,
                                  f"archive/{brief.filename}")
            model.apply(brief)
        store.ingest([TraffickingEvent(*e) for b in archive for e in b.events])
    checkpoints = {n: 1 for n in range(UPDATES // 4, UPDATES + 1, UPDATES // 4)}
    return _plan(wdir, model, [], updates, checkpoints, template)


WORKLOADS = {
    "monthly-batch": monthly_batch,
    "dense-dossiers": dense_dossiers,
    "incremental-archive": incremental_archive,
}


# -- driving the command line ------------------------------------------------


class Session:
    """Runs brieflens commands in-process and counts what was attempted."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def command(self, label: str, argv: list, briefs: int = 0) -> float:
        argv = [str(a) for a in argv]
        if self.tracer is not None:
            self.tracer.context = label
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)  # looked up per call, so tracing sees it
            except Exception:  # a crashing command is a failure; the run goes on
                traceback.print_exc()
                code = -1
        elapsed = perf_counter() - start
        # extract reports each brief it could not read as one "error:" line
        errors = sum(line.startswith("error: ") for line in err.getvalue().splitlines())
        self.attempted += 1 + briefs
        self.failed += (code != 0) + min(errors, briefs)
        if code != 0:
            self.errors.append(f"{label}: exit {code}: {err.getvalue().strip()[:300]}")
        return elapsed

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what} {detail}".rstrip())


@dataclass
class Pass:
    pipeline_s: float = 0.0
    briefs: int = 0
    extract_s: list[float] = field(default_factory=list)
    export_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)


def run_pass(plan: Plan, session: Session, wdir: Path,
             between: Callable[[], float] = lambda: 0.0) -> Pass:
    """One pass of the workload's command sequence.  ``between`` runs after
    the batch and after every update; the seconds it returns are left out
    of the pass's time."""
    store = wdir / "events.db"
    for stale in (store, Path(f"{store}-journal")):
        stale.unlink(missing_ok=True)
    if plan.template is not None:
        shutil.copyfile(plan.template, store)
    store_flag = ["--store", store]
    done = Pass(briefs=plan.batch_briefs + len(plan.updates))

    def read(applied: int) -> None:
        checkpoint = plan.checkpoints.get(applied)
        for _ in range(checkpoint.repeats if checkpoint else 0):
            done.export_s.append(session.command(
                "export", ["export", wdir / f"export-{applied}.csv", *store_flag]))
            done.eval_s.append(session.command(
                "eval", ["eval", "--gold", checkpoint.gold, *store_flag,
                         "--out", wdir / f"eval-{applied}"]))

    start, aside = perf_counter(), 0.0
    if plan.batch_dir is not None:
        done.extract_s.append(session.command(
            "extract", ["extract", plan.batch_dir, *store_flag], briefs=plan.batch_briefs))
        read(0)
        done.report_s.append(session.command(
            "report", ["report", *store_flag, "--out", wdir / "site-batch"]))
        aside += between()
    for i, path in enumerate(plan.updates, 1):
        e = session.command(f"update-{i:03d}:extract", ["extract", path, *store_flag], briefs=1)
        r = session.command(f"update-{i:03d}:report",
                            ["report", *store_flag, "--out", wdir / "site"])
        done.extract_s.append(e)
        done.report_s.append(r)
        done.update_s.append(e + r)
        read(i)
        aside += between()
    done.pipeline_s = perf_counter() - start - aside
    return done


# -- output checks -----------------------------------------------------------


def _eval_counts(path: Path) -> dict[str, int]:
    counts = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key != "detection_rate":
            counts[key] = int(value)
    return counts


def _store_version(site: Path) -> str:
    try:
        page = (site / "dashboard.html").read_text(encoding="utf-8")
    except OSError:
        return ""
    match = re.search(r'data-metric="store_version">([0-9a-f]+)<', page)
    return match.group(1) if match else ""


def _check_report(session: Session, site: Path, expected: gen.Expected, what: str) -> None:
    try:
        summary = json.loads((site / "summary.json").read_text(encoding="utf-8"))
        version = _store_version(site)
    except (OSError, ValueError) as exc:
        session.check(f"{what} readable", False, str(exc))
        return
    session.check(f"{what} summary.json", summary == expected.summary)
    session.check(f"{what} store version", version == expected.content_hash,
                  f"{version} != {expected.content_hash}")


def check_pass(plan: Plan, session: Session, wdir: Path) -> dict:
    """Compare a pass's outputs with the planted gold; returns the observed digests."""
    counts: dict = {}
    for applied, checkpoint in plan.checkpoints.items():
        want_csv, want = checkpoint.expected.csv, checkpoint.expected.eval
        try:
            exported = (wdir / f"export-{applied}.csv").read_text(encoding="utf-8")
            counts = _eval_counts(wdir / f"eval-{applied}" / "eval_report.txt")
        except (OSError, ValueError) as exc:
            session.check(f"checkpoint {applied} outputs readable", False, str(exc))
            continue
        if exported == want_csv:
            session.check(f"checkpoint {applied} export", True)
        else:
            got_rows, want_rows = exported.splitlines(), want_csv.splitlines()
            row = next((i for i, (x, y) in enumerate(zip(got_rows, want_rows)) if x != y),
                       min(len(got_rows), len(want_rows)))
            session.check(f"checkpoint {applied} export", False,
                          f"first difference at row {row}: {got_rows[row:row + 1]}"
                          f" vs {want_rows[row:row + 1]}")
        got = {key: counts.get(key) for key in want}
        session.check(f"checkpoint {applied} eval counts", got == want, f"{got} != {want}")
        agree = [v for k, v in counts.items() if k.startswith("agree_")]
        session.check(f"checkpoint {applied} eval field agreement",
                      len(agree) == 6 and all(v == want["fully"] for v in agree), str(agree))
    if plan.batch_dir is not None:
        _check_report(session, wdir / "site-batch", plan.checkpoints[0].expected, "batch report")
    _check_report(session, wdir / "site", plan.final, "final report")
    summary = wdir / "site" / "summary.json"
    return {
        "corpus_sha256": plan.corpus_sha256,
        "content_hash": _store_version(wdir / "site"),
        "summary_sha256": hashlib.sha256(summary.read_bytes()).hexdigest()
        if summary.exists() else "",
        "eval": {key: counts.get(key) for key in gen.EVAL_KEYS},
    }


def check_fixture(session: Session, wdir: Path) -> None:
    """The shipped fixture corpus must score all fully correct through the CLI."""
    briefs, gold = FIXTURES / "briefs", FIXTURES / "gold.csv"
    if not briefs.is_dir() or not gold.is_file():
        raise SetupError(f"fixture corpus not found under {FIXTURES}")
    store = wdir / "fixture.db"
    n = len(list(briefs.glob("*.txt")))
    session.command("fixture:extract", ["extract", briefs, "--store", store], briefs=n)
    session.command("fixture:export", ["export", wdir / "fixture.csv", "--store", store])
    session.command("fixture:eval", ["eval", "--gold", gold, "--store", store,
                                     "--out", wdir / "fixture-eval"])
    session.command("fixture:report", ["report", "--store", store, "--out", wdir / "fixture-site"])
    rows = len(gold.read_text(encoding="utf-8").splitlines()) - 1
    try:
        counts = _eval_counts(wdir / "fixture-eval" / "eval_report.txt")
    except (OSError, ValueError) as exc:
        session.check("fixture eval report readable", False, str(exc))
        return
    ok = (counts.get("fully") == counts.get("total_gold") == rows
          and counts.get("partial") == counts.get("unrelated") == counts.get("undetected") == 0)
    session.check("fixture corpus fully correct", ok, str(counts))


def check_expected(session: Session, workload: str, observed: dict) -> None:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload)
    if expected is None:
        session.check(f"expected digests recorded for {workload}", False)
        return
    for key, value in expected.items():
        if key != "seed":
            session.check(f"default-seed {key}", observed.get(key) == value,
                          f"{observed.get(key)} != {value}")


# -- measurements ------------------------------------------------------------


class SetupSampler:
    """Wall times of fresh `brieflens extract <empty dir>` runs, spread over the run.

    The host's speed drifts over tens of seconds, so set-up samples are
    taken between commands throughout the timed window rather than all at
    its start, and ``setup_s`` is their median.
    """

    def __init__(self, session: Session, wdir: Path, interval: float) -> None:
        self.session, self.interval = session, interval
        empty = wdir / "setup-empty"
        empty.mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.argv = [sys.executable, "-c", SETUP_SNIPPET, "extract", str(empty),
                     "--store", str(wdir / "setup.db")]
        self.times: list[float] = []
        self._one()  # warms the file cache; not a sample
        self.last = perf_counter()

    def _one(self) -> float:
        start = perf_counter()
        done = subprocess.run(self.argv, env=self.env, capture_output=True, timeout=120)
        elapsed = perf_counter() - start
        self.session.check("set-up run",
                           done.returncode == 0 and b"no briefs found" in done.stderr,
                           done.stderr.decode(errors="replace")[-300:])
        return elapsed

    def sample(self) -> float:
        """Take one sample; returns the seconds it took."""
        elapsed = self._one()
        self.times.append(elapsed)
        self.last = perf_counter()
        return elapsed

    def due(self) -> float:
        """Take a sample if ``interval`` has passed since the last one."""
        return self.sample() if perf_counter() - self.last >= self.interval else 0.0

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def reference_loop() -> float:
    """A fixed arithmetic loop, recorded as context and never used to normalise."""
    times = []
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(3_000_000):
            x = (x + i * 7) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


def _filesystem(path: Path) -> str:
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    resolved = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and (resolved == parts[1] or resolved.startswith(parts[1].rstrip("/") + "/")):
            if len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    return fstype


def environment(wdir: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "store_fs": _filesystem(wdir),
        "env.reference_loop_s": round(reference_loop(), 4),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    def pooled(kind: str) -> list[float]:
        return [x for p in passes for x in getattr(p, kind)]

    updates = [u * 1000.0 for u in pooled("update_s")]
    return {
        "setup_s": setup_s,
        "briefs_per_s": statistics.median(p.briefs / sum(p.extract_s) for p in passes),
        "export_s": statistics.median(pooled("export_s")),
        "eval_s": statistics.median(pooled("eval_s")),
        "report_s": statistics.median(pooled("report_s")),
        "pipeline_s": statistics.median(p.pipeline_s for p in passes),
        "update_ms_p50": statistics.median(updates),
        "update_ms_p90": _p90(updates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, db_bytes: int, stored_events: int) -> dict[str, float]:
    t, c = tracer.self_time, tracer.counts
    metrics = {f"{name}_s": t[name] for name in tracing.SPAN_NAMES if name != "cli"}
    metrics["cli.self_s"] = t["cli"]
    metrics.update({name: c[name] for name, unit in PER_LAYER if unit == "count"})
    lengths = tracer.sentence_tokens or [0]
    metrics["corpus.tokens_per_sentence_p50"] = statistics.median(lengths)
    metrics["corpus.tokens_per_sentence_p90"] = _p90(lengths) if len(lengths) > 1 else lengths[0]
    metrics["matcher.tokens_per_s"] = c["matcher.tokens"] / max(t["matcher.find_entities"], 1e-9)
    candidates = c["matcher.lexical_spans"] + c["measures.numeric_spans"]
    metrics["matcher.kept_ratio"] = c["matcher.merged_spans"] / max(candidates, 1)
    metrics["store.db_bytes"] = db_bytes
    metrics["store.bytes_per_event"] = db_bytes / max(stored_events, 1)
    metrics["report.html_bytes"] = c["report.html_bytes"]
    return metrics


# -- runs --------------------------------------------------------------------


def more(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether to start another pass: always a first one, then another as
    long as at least half of a typical pass fits in the time left."""
    if not durations:
        return True
    return perf_counter() - start + statistics.median(durations) / 2 < seconds


def timed_run(plan: Plan, session: Session, wdir: Path, seconds: float) -> tuple[dict, dict]:
    setup = SetupSampler(session, wdir, interval=seconds / SETUP_REPEATS)
    passes, observed = [], {}
    start = perf_counter()
    while more(start, seconds, [p.pipeline_s for p in passes]):
        passes.append(run_pass(plan, session, wdir, setup.due))
        observed = check_pass(plan, session, wdir)
    metrics = end_to_end(passes, setup.median())
    return metrics, {"passes": len(passes), "updates": sum(len(p.update_s) for p in passes),
                     "setups": len(setup.times), "observed": observed,
                     "raw": {"setup_s": setup.times, "passes": [asdict(p) for p in passes]}}


def traced_run(plan: Plan, session: Session, wdir: Path, seconds: float) -> tuple[dict, dict]:
    # untraced and traced passes alternate, so the overhead estimate does
    # not depend on which kind of pass ran first
    start = perf_counter()
    untraced, traced, tracers = [], [], []
    observed = {}
    while more(start, seconds, [p.pipeline_s + t.pipeline_s
                                for p, t in zip(untraced, traced)]):
        untraced.append(run_pass(plan, session, wdir))
        check_pass(plan, session, wdir)
        tracer = tracing.Tracer(origin=start)
        session.tracer = tracer
        try:
            with tracing.installed(tracer):
                traced.append(run_pass(plan, session, wdir))
        finally:
            session.tracer = None
        observed = check_pass(plan, session, wdir)
        tracers.append(tracer)
    db_bytes = (wdir / "events.db").stat().st_size
    stored = plan.final.events
    for i, tracer in enumerate(tracers):
        silent = [name for name in tracing.SPAN_NAMES if tracer.calls[name] == 0]
        session.check(f"traced pass {i}: every boundary recorded calls", not silent,
                      f"no calls at {silent}")
    layers = [per_layer(t, db_bytes, stored) for t in tracers]
    metrics = {name: statistics.median(m[name] for m in layers)
               for name, _ in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(p.pipeline_s for p in traced)
                                   - statistics.median(p.pipeline_s for p in untraced))
    with open(wdir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for i, tracer in enumerate(tracers):
            tracer.write(handle, i)
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(untraced),
                     "spans": sum(len(t.spans) for t in tracers), "observed": observed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help=f"store this run's digests in expected.json (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    if not (SRC / "brieflens" / "cli.py").is_file():
        print(f"error: brieflens sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from brieflens import cli

    wdir = WORK / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    session = Session(cli)
    try:
        env = environment(wdir)
        check_fixture(session, wdir)
        plan = WORKLOADS[args.workload](args.seed, wdir)
        # the generated corpus and its model live as long as the run; keep
        # them out of the collections the program's own allocations trigger
        gc.collect()
        gc.freeze()
        run = traced_run if args.trace else timed_run
        metrics, details = run(plan, session, wdir, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    observed = details.pop("observed")
    raw = details.pop("raw", None)
    if args.seed == DEFAULT_SEED and args.record_expected:
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        recorded[args.workload] = {"seed": DEFAULT_SEED, **observed}
        EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True, ensure_ascii=False)
                            + "\n", encoding="utf-8")
    elif args.seed == DEFAULT_SEED:
        check_expected(session, args.workload, observed)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    reported = units if args.trace else {name: units[name] for name in RESULT}
    error_rate = session.failed / session.attempted
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "details": details, "metrics": metrics, "error_rate": error_rate,
              "errors": session.errors, "raw": raw}
    (wdir / "run.json").write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n",
                                   encoding="utf-8")

    for line in session.errors:
        print(f"error: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, ensure_ascii=False))
    print("samples " + json.dumps(details))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    print(f"  {'error_rate':34s} {error_rate:>16.6f} ratio"
          f" ({session.failed} of {session.attempted} failed)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
