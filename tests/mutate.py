"""Mutation probe: which small changes to the rules does Tier-1 notice?

Each mutant changes one site of one module of ``src/brieflens``: it swaps
``<`` and ``<=``, or ``>`` and ``>=``, at one comparison, swaps ``and`` and
``or`` in one boolean expression, or adds 1 or -1 to one integer
constant.  The probe copies ``src/`` and ``tests/`` to a temporary
directory and checks that Tier-1 passes there.  It then writes one mutant
at a time into the copy and runs Tier-1 on it with ``-x``, in one child
process.  A run that fails or outlives the timeout kills the mutant.  The
probe prints every survivor that ``KNOWN_EQUIVALENTS`` does not explain,
and exits 1 if there is one.  README "Tests" says how to run it and why
it is not part of Tier-1.  Standard library only; pytest does not
collect this file.  Mutation testing: DeMillo, Lipton & Sayward, "Hints
on Test Data Selection", IEEE Computer 1978.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("assembler", "measures", "matcher", "lexicon", "corpus", "evaluation", "store")

_SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
_BOOL_SWAPS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}

# Mutants no test can tell from the module as written, each group with its
# reason.  A key is "<module>.py:<function>: <the mutated lines>".
_EQUIVALENT_GROUPS = [
    ("only the text before the first '#' is read, which any maxsplit above 0 gives", [
        'assembler.py:load_heuristics: line = raw.split("#", 2)[0].strip()',
    ]),
    ("the span and its anchor are two merged spans of one sentence, which are disjoint", [
        "assembler.py:_ends_before: _apart(span, anchor) if anchor and span.last_token"
        " <= anchor.first_token else None",
    ]),
    ("sentences are cut at whitespace, so no span starts at a sentence's end_char", [
        "assembler.py:assemble: while doc.sentences[si].end_char < span.start_char:",
    ]),
    ("the arrest-only event is its sentence's only one, so rule 3 gives it the first"
     " weight, and from an anchor that starts at or before token 0 the nearest"
     " country is the sentence's first (rule 5)", [
        f"assembler.py:assemble: shells = [_Shell(None, None, {anchor})]"
        for anchor in ("_Range((-1), len(sentence.tokens) - 1)",
                       "_Range(0, len(sentence.tokens) - 2)",
                       "_Range(0, len(sentence.tokens) - 0)")
    ]),
    ("the first character is a decimal digit already, and the scan steps over it", [
        "measures.py:_split_unit: end = 0",
    ]),
    ("at exactly _MAX_DIGITS digits the prefix that any() reads is empty", [
        "measures.py:_parse_digits: if len(digits) >= _MAX_DIGITS and any(int(ch) for ch"
        " in digits[:-_MAX_DIGITS]):",
    ]),
    ("every value above MAX_NUMBER is skipped alike", [
        "measures.py:_parse_digits: value = MAX_NUMBER + 2",
        "measures.py:_parse_digits: value = min(value * 1000 + int(group[0]), MAX_NUMBER + 2)",
    ]),
    ("token indices start at 0, so none is below either", [
        "matcher.py:find_entities: resume = (-1)",
    ]),
    ("a lexical and a numeric span never touch: two touching letter-or-digit runs are one token", [
        "matcher.py:merge_spans: while i < len(kept) and kept[i].end_char < span.start_char:",
        "matcher.py:merge_spans: if i == len(kept) or span.end_char < kept[i].start_char:",
    ]),
    ("a one-character gap cannot hold a blank line, so the second test fails as well", [
        f"corpus.py:_blank_line_between: return start - end {op}"
        " and len(text[end : start + 1].splitlines()) > 2"
        for op in (">= 1", "> 0")
    ]),
    ("a character after the next token's first can end its line but never add one:"
     " splitlines drops a trailing empty line", [
        "corpus.py:_blank_line_between: return start - end > 1"
        " and len(text[end : start + 2].splitlines()) > 2",
    ]),
    ("sentence 0 follows none: the gap from the last sentence back to it is negative,"
     " which _blank_line_between rejects", [
        "corpus.py:document_from_text: i for i in range(0, len(sentences))",
    ]),
    ("agreement starts with every compared field, the only names a MatchResult counts", [
        f"evaluation.py:compute_report: agreement[name] = agreement.get(name, {d}) + count"
        for d in (1, "(-1)")
    ]),
    ("the row has one column", [
        'store.py:__init__: encoding = self._conn.execute("PRAGMA encoding").fetchone()[(-1)]',
        'store.py:__init__: if self._conn.execute("PRAGMA user_version").fetchone()[(-1)]'
        " < _SCHEMA_VERSION:",
        "store.py:export_csv: return row[(-1)] if row else 0",
    ]),
    ("tallies are read in primary-key order, so species of one count already come by"
     " name, and the sort is stable", [
        f"store.py:summarize: species.sort(key=lambda item: (-item[1], item[{i}]))"
        for i in (1, "(-1)")
    ]),
]
KNOWN_EQUIVALENTS = {key: reason for reason, keys in _EQUIVALENT_GROUPS for key in keys}


@dataclass(frozen=True)
class Mutant:
    key: str  # "<module>.py:<function>: <the mutated lines>", unique
    module: str
    line: int
    source: str  # the whole mutated module


def _code_match(pattern: str, code: bytes) -> re.Match:
    """The first match of ``pattern`` in ``code`` outside a comment."""
    for m in re.finditer(rf"#[^\n]*|{pattern}".encode(), code):
        if not m.group().startswith(b"#"):
            return m
    raise ValueError(f"no {pattern!r} in {code!r}")


class _Sites(ast.NodeVisitor):
    """Every mutable site of a module: (node, function, [(start, end, replacement)])."""

    def __init__(self, source: bytes) -> None:
        self.source = source
        self.line_starts = [0]
        for line in source.splitlines(keepends=True):
            self.line_starts.append(self.line_starts[-1] + len(line))
        self.function = ["<module>"]
        self.sites: list[tuple[ast.AST, str, list[tuple[int, int, str]]]] = []

    def _start(self, node: ast.AST) -> int:
        return self.line_starts[node.lineno - 1] + node.col_offset

    def _end(self, node: ast.AST) -> int:
        return self.line_starts[node.end_lineno - 1] + node.end_col_offset

    def _gap_edit(self, left: ast.AST, right: ast.AST, pattern: str, text: str):
        """Replace the operator written between two operands."""
        start, end = self._end(left), self._start(right)
        m = _code_match(pattern, self.source[start:end])
        return start + m.start(), start + m.end(), text

    def _scope(self, node: ast.AST) -> None:
        self.function.append(node.name)
        self.generic_visit(node)
        self.function.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        pass  # before 3.12, the positions of nodes inside an f-string are not reliable

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                old, new = _SWAPS[type(op)]
                edit = self._gap_edit(operands[i], operands[i + 1], rf"{old}(?!=)", new)
                self.sites.append((node, self.function[-1], [edit]))
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        old, new = _BOOL_SWAPS[type(node.op)]
        edits = [
            self._gap_edit(a, b, rf"\b{old}\b", new) for a, b in zip(node.values, node.values[1:])
        ]
        self.sites.append((node, self.function[-1], edits))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if type(node.value) is int:
            for value in (node.value + 1, node.value - 1):
                text = str(value) if value >= 0 else f"({value})"
                self.sites.append(
                    (node, self.function[-1], [(self._start(node), self._end(node), text)])
                )


def _lines(source: bytes, first: int, last: int) -> str:
    """Lines ``first`` to ``last`` (1-based) of ``source``, whitespace collapsed."""
    return " ".join(b" ".join(source.splitlines()[first - 1 : last]).decode().split())


def mutants(modules=MODULES) -> list[Mutant]:
    """Every mutant of ``modules`` of ``src/brieflens``, in module and site order."""
    found: list[Mutant] = []
    for module in modules:
        name = f"{module}.py"
        source = (ROOT / "src" / "brieflens" / name).read_bytes()
        sites = _Sites(source)
        sites.visit(ast.parse(source))
        seen: dict[str, int] = {}
        for node, function, edits in sites.sites:
            mutated = source
            for start, end, text in sorted(edits, reverse=True):
                mutated = mutated[:start] + text.encode() + mutated[end:]
            key = f"{name}:{function}: {_lines(mutated, node.lineno, node.end_lineno)}"
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key += f" [{seen[key]}]"
            found.append(Mutant(key, module, node.lineno, mutated.decode()))
    return found


def _pytest(work: Path, tests: list[str], timeout: float | None) -> tuple[bool | None, float]:
    """Run pytest in ``work``: (passed, seconds); passed is None on a timeout."""
    path = [str(work / "src"), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        # a mutant and the module it replaces may have one size and one mtime
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *tests]
    began = time.monotonic()
    child = subprocess.Popen(
        command, cwd=work, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the run and any process it started
        child.wait()
        return None, time.monotonic() - began
    return code == 0, time.monotonic() - began


def _test_files(work: Path, module: str) -> list[str]:
    """Tier-1's test files, the module's own first and the pinned digest second.

    Each is named, since pytest runs a file named beside its directory in
    the directory's order.  ``test_mutate.py`` reads the mutated module as
    data, so it would fail on every mutant of a line a known equivalent names.
    """
    first = [f"tests/test_{module}.py", "tests/test_pinned_output.py"]
    rest = sorted(f"tests/{p.name}" for p in (work / "tests").glob("test_*.py"))
    return first + [f for f in rest if f not in first and f != "tests/test_mutate.py"]


def probe(chosen: list[Mutant]) -> dict[str, str]:
    """Run each mutant on a copy of this checkout: its key -> "killed", "timeout" or "survived"."""
    outcome: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # test_readme.py runs the README's code
            shutil.copy2(ROOT / name, work)
        passed, seconds = _pytest(work, ["tests"], None)
        if not passed:
            sys.exit(f"Tier-1 fails on the unmutated copy of {ROOT}; no mutant was run")
        # a mutant that only slows the suite down is killed too
        timeout = 1.5 * seconds + 10
        print(f"unmutated Tier-1: {seconds:.1f} s; timeout per mutant {timeout:.0f} s", flush=True)
        for n, mutant in enumerate(chosen, 1):
            target = work / "src" / "brieflens" / f"{mutant.module}.py"
            original = target.read_text(encoding="utf-8")
            target.write_text(mutant.source, encoding="utf-8")
            try:
                passed, seconds = _pytest(work, _test_files(work, mutant.module), timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            status = {True: "survived", False: "killed", None: "timeout"}[passed]
            outcome[mutant.key] = status
            print(f"[{n}/{len(chosen)}] {status:8} {seconds:5.1f} s  "
                  f"{mutant.module}.py:{mutant.line}  {mutant.key}", flush=True)
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        help=f"modules to mutate (default: {' '.join(MODULES)})")
    parser.add_argument("--only", type=Path,
                        help="file of mutant keys, one a line: run only those")
    parser.add_argument("--list", action="store_true", help="print the mutants and run none")
    args = parser.parse_args(argv)
    if set(args.modules) - set(MODULES):
        parser.error(f"modules are among {', '.join(MODULES)}")

    chosen = mutants(args.modules or MODULES)
    if args.only:
        wanted = set(args.only.read_text(encoding="utf-8").splitlines()) - {""}
        unknown = wanted - {m.key for m in chosen}
        if unknown:
            parser.error(f"{len(unknown)} key(s) name no mutant, the first {sorted(unknown)[0]!r}")
        chosen = [m for m in chosen if m.key in wanted]
    if args.list:
        for mutant in chosen:
            print(f"{mutant.module}.py:{mutant.line}  {mutant.key}")
        return 0

    outcome = probe(chosen)
    print()
    for module in dict.fromkeys(m.module for m in chosen):
        statuses = [outcome[m.key] for m in chosen if m.module == module]
        print(f"{module}.py: {len(statuses)} mutants, {statuses.count('killed')} killed,"
              f" {statuses.count('timeout')} timed out, {statuses.count('survived')} survived")
    survivors = [m for m in chosen if outcome[m.key] == "survived"]
    for mutant in survivors:
        tag = "known equivalent" if mutant.key in KNOWN_EQUIVALENTS else "SURVIVOR"
        print(f"{tag}: {mutant.module}.py:{mutant.line}  {mutant.key}")
    for mutant in chosen:
        if mutant.key in KNOWN_EQUIVALENTS and outcome[mutant.key] != "survived":
            print(f"listed as equivalent but {outcome[mutant.key]}: {mutant.key}")
    return 1 if any(m.key not in KNOWN_EQUIVALENTS for m in survivors) else 0


if __name__ == "__main__":
    sys.exit(main())
