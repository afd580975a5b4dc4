"""Analyzer engine: shared by all three layers, plus the token layer.

It owns file discovery, reading and lexing (once per file per run),
suppressions, the finding fold, reporting and the CLI. The AST layer
(ast/engine.py) and the IPA layer (ipa/engine.py) plug into it and keep
only what differs: the token layer checks each file's token stream, the
AST layer builds a TU per file, and the IPA layer builds one
whole-program model (and caches its report).

Public surface (re-exported from tools/analysis/__init__.py):

  analyze_paths(paths, ...) -> AnalysisResult
  main(argv) -> exit code      (0 clean, 1 findings, 2 usage/config error)

Suppression syntax, valid in // or /* */ comments, for a rule of any layer
(the only way to silence a finding):

  // ll-analysis: allow(rule-a, rule-b) reason the finding is intended

A suppression covers its own line and the next line that carries code
(so it can sit on the offending line or directly above it). An unknown
rule name inside allow(...) or a missing reason is a hard configuration
error (exit 2), never a silent no-op: a typo'd suppression must not
rot into a finding leak.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .lexer import Comment, Token, tokenize
from .rules import ALL_RULES, RULES_BY_NAME

ALL_RULE_NAMES = tuple(r.name for r in ALL_RULES)

# `--frontend` values of the AST and IPA layers.
FRONTENDS = ("auto", "internal", "clang")

HEADER_SUFFIXES = (".h", ".hpp", ".hh")
_SOURCE_SUFFIXES = (".cc", ".cpp", ".cxx") + HEADER_SUFFIXES

# Directory roots (relative to the repo root) the analyzer will walk; a
# directory argument outside these is a usage error so nobody "scans" a
# build tree by accident.
ALLOWED_ROOTS = ("src", "bench", "tests", "tools", "examples")

# Directory *components* skipped during walks, wherever they appear.
_SKIP_COMPONENT = re.compile(r"^(build.*|\.git|_deps|\.cache)$")

# Fixture trees are intentionally full of findings; they are skipped by
# directory walks and only analyzed when a CLI argument points inside them
# (which is exactly what the self-tests do).
_FIXTURE_FRAGMENTS = ("tools/analysis/fixtures",
                      "tools/analysis/ast/fixtures",
                      "tools/analysis/ipa/fixtures")

_SUPPRESS_RE = re.compile(
    r"ll-analysis:\s*allow\(\s*([^)]*?)\s*\)\s*(.*)", re.DOTALL
)


class AnalysisError(Exception):
    """Configuration error (bad suppression, bad path): exit code 2."""


def known_rule_names() -> Set[str]:
    """Token-, AST- and IPA-layer rule names: a suppression may name a rule
    of any layer, so every layer validates against this one union.
    Imported lazily: analysis.ast and analysis.ipa import back into this
    module."""
    from .ast.rules import AST_RULES_BY_NAME
    from .ipa.rules import IPA_RULES_BY_NAME
    return (set(RULES_BY_NAME) | set(AST_RULES_BY_NAME)
            | set(IPA_RULES_BY_NAME))


class Finding(NamedTuple):
    path: str      # repo-relative, '/'-separated
    line: int
    rule: str
    message: str
    snippet: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}: " \
               f"{self.snippet}"


class AnalysisResult(NamedTuple):
    findings: List[Finding]
    suppressed: int
    files_scanned: int
    # Per-rule breakdowns (additive; the report stays "version": 1).
    # suppressed_by_rule counts inline suppressions keyed by rule name;
    # rule_elapsed is wall-clock seconds spent inside each rule's check()
    # summed over files.
    suppressed_by_rule: Dict[str, int] = {}
    rule_elapsed: Dict[str, float] = {}

    def to_json(self) -> dict:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "suppressed_by_rule": dict(sorted(
                self.suppressed_by_rule.items())),
            "rule_elapsed_seconds": {
                name: round(secs, 4)
                for name, secs in sorted(self.rule_elapsed.items())},
            "findings": [f._asdict() for f in self.findings],
        }


def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


def _parse_suppressions(
    comments: Sequence[Comment], tokens: Sequence, path: str,
    known_rules: Set[str],
) -> Set[Tuple[int, str]]:
    """Returns the set of (line, rule) pairs suppressed in this file."""
    suppressed: Set[Tuple[int, str]] = set()
    for c in comments:
        if "ll-analysis" not in c.text:
            continue
        m = _SUPPRESS_RE.search(c.text)
        if not m:
            raise AnalysisError(
                f"{path}:{c.line}: malformed ll-analysis comment; expected "
                "'ll-analysis: allow(<rule>[, <rule>...]) <reason>'")
        rule_list = [r.strip() for r in m.group(1).split(",") if r.strip()]
        reason = " ".join(m.group(2).split())
        if not rule_list:
            raise AnalysisError(
                f"{path}:{c.line}: ll-analysis allow() names no rules")
        for rule in rule_list:
            if rule not in known_rules:
                raise AnalysisError(
                    f"{path}:{c.line}: unknown rule '{rule}' in ll-analysis "
                    f"suppression (known: {', '.join(sorted(known_rules))})")
        if not reason:
            raise AnalysisError(
                f"{path}:{c.line}: ll-analysis suppression for "
                f"{', '.join(rule_list)} carries no reason; every "
                "suppression must say why")
        # A suppression covers its own line plus the statement that starts
        # on the next code line (through its terminating ';'/'{'/'}' at
        # depth 0), so multi-line expressions stay covered.
        covered = {c.line}
        start = next(
            (k for k, t in enumerate(tokens) if t.line > c.line), None)
        if start is not None:
            depth = 0
            for t in tokens[start:]:
                covered.add(t.line)
                if t.kind == "op":
                    if t.text in ("(", "["):
                        depth += 1
                    elif t.text in (")", "]"):
                        depth -= 1
                    elif t.text in (";", "{", "}") and depth <= 0:
                        break
        for rule in rule_list:
            for ln in covered:
                suppressed.add((ln, rule))
    return suppressed


class Source(NamedTuple):
    """One scanned file as the engine reads it, for every layer."""
    rel: str                 # repo-relative, '/'-separated
    path: Path
    lines: List[str]
    tokens: List[Token]
    suppressions: Set[Tuple[int, str]]   # (line, rule) pairs


def _lex(path: Path) -> Tuple[str, List[Token], List[Comment]]:
    text = path.read_text(encoding="utf-8", errors="replace")
    return (text, *tokenize(text))


class Reader:
    """One run's file reads: each file is read and lexed once. A TU loader
    reads a .cc file's sibling header ahead of the walk, which reaches the
    header after the .cc; that lex is held until the walk takes it."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._ahead: Dict[Path, Tuple[str, List[Token], List[Comment]]] = {}

    def lex(self, path: Path) -> Tuple[str, List[Token], List[Comment]]:
        """A read ahead of the walk."""
        key = path.resolve()
        if key not in self._ahead:
            self._ahead[key] = _lex(path)
        return self._ahead[key]

    def source(self, rel: str, path: Path) -> Source:
        """The walk's read of `path`."""
        text, tokens, comments = \
            self._ahead.pop(path.resolve(), None) or _lex(path)
        return Source(rel, path, text.splitlines(), tokens,
                      _parse_suppressions(comments, tokens, rel,
                                          known_rule_names()))


def _iter_source_files(arg: Path) -> Iterable[Path]:
    if arg.is_file():
        yield arg
        return
    in_fixtures = any(
        frag in arg.resolve().as_posix() for frag in _FIXTURE_FRAGMENTS
    )
    for p in sorted(arg.rglob("*")):
        if not p.is_file() or p.suffix not in _SOURCE_SUFFIXES:
            continue
        try:
            rel_parts = p.relative_to(arg).parts
        except ValueError:
            rel_parts = p.parts
        if any(_SKIP_COMPONENT.match(part) for part in rel_parts[:-1]):
            continue
        if not in_fixtures and any(
            frag in p.as_posix() for frag in _FIXTURE_FRAGMENTS
        ):
            continue
        yield p


def _check_allowed(root: Path, arg: Path) -> None:
    try:
        rel = arg.resolve().relative_to(root)
    except ValueError:
        return  # outside the repo (temp fixture dirs in tests): allowed as-is
    if rel.parts and rel.parts[0] not in ALLOWED_ROOTS:
        raise AnalysisError(
            f"refusing to analyze '{arg}': analyzer roots are "
            f"{', '.join(ALLOWED_ROOTS)} (build trees and dot-dirs are "
            "never scanned)")


def walk(paths: Sequence[str], root: Path) -> Iterator[Tuple[str, Path]]:
    """Yields (repo-relative name, path) for every source file under the
    path arguments. Lazy, so a per-file layer meets a bad path or a bad
    suppression in argument order."""
    for arg in paths:
        p = Path(arg)
        if not p.exists():
            raise AnalysisError(f"no such path: {arg}")
        _check_allowed(root, p)
        for f in _iter_source_files(p):
            try:
                rel = f.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = f.as_posix()
            yield rel, f


class Tally:
    """The finding fold: each rule's check() is timed through run(), each
    raw hit goes through add() (suppressed, or kept with its source line
    as the snippet), and result() sorts what is left."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.suppressed_by_rule: Dict[str, int] = {}
        self.rule_elapsed: Dict[str, float] = {}

    def run(self, rule, subject) -> list:
        started = time.monotonic()
        hits = list(rule.check(subject))
        self.rule_elapsed[rule.name] = (
            self.rule_elapsed.get(rule.name, 0.0)
            + (time.monotonic() - started))
        return hits

    def add(self, src: Source, line: int, rule: str, message: str) -> None:
        if (line, rule) in src.suppressions:
            self.suppressed_by_rule[rule] = \
                self.suppressed_by_rule.get(rule, 0) + 1
            return
        lines = src.lines
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        self.findings.append(Finding(src.rel, line, rule, message, snippet))

    def result(self, files_scanned: int) -> AnalysisResult:
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return AnalysisResult(
            self.findings, sum(self.suppressed_by_rule.values()),
            files_scanned, self.suppressed_by_rule, self.rule_elapsed)


def analyze_each_file(
    paths: Sequence[str], rules: Sequence,
    subject: Callable[[Source, Reader], object], root: Optional[Path] = None,
) -> AnalysisResult:
    """The per-file layers: every rule that applies to a file checks
    `subject(source, reader)`, its token stream or its TU."""
    root = (root or repo_root()).resolve()
    reader = Reader(root)
    tally = Tally()
    scanned = 0
    for rel, path in walk(paths, root):
        src = reader.source(rel, path)
        scanned += 1
        checked = subject(src, reader)
        for rule in rules:
            if rule.applies_to(rel):
                for line, message in tally.run(rule, checked):
                    tally.add(src, line, rule.name, message)
    return tally.result(scanned)


def analyze_paths(
    paths: Sequence[str], root: Optional[Path] = None,
) -> AnalysisResult:
    return analyze_each_file(
        paths, ALL_RULES, lambda src, _reader: src.tokens, root)


# --- CLI ---------------------------------------------------------------------


def _frontend(value: str) -> str:
    if value not in FRONTENDS:
        raise ValueError(value)
    return value


# Options that take a value, in usage order: flag -> (metavar, parser,
# complaint when the value is missing or malformed). Every layer takes
# --json; each layer names which of the others it takes.
_VALUE_OPTIONS = {
    "--json": ("OUT", Path, "--json needs a file argument"),
    "--frontend": ("|".join(FRONTENDS), _frontend,
                   f"--frontend needs one of: {', '.join(FRONTENDS)}"),
    "--cache": ("FILE", Path, "--cache needs a file argument"),
    "--budget-seconds": ("N", float, "--budget-seconds needs a number"),
}


class Layer(NamedTuple):
    """What one analyzer layer plugs into the shared CLI."""
    # "ast"/"ipa": reports carry the layer, its frontend and the elapsed
    # time ("ast-analysis[internal]: ... in 1.2s"). "" for the token layer,
    # which has no frontend ("analysis: ...").
    name: str
    script: str                  # entry script, named in the usage lines
    doc: str                     # printed by -h
    rules: Sequence              # printed by --list-rules
    options: Tuple[str, ...]     # value options taken besides --json
    # analyze(paths, options, warnings) -> (result, extra --json keys,
    # note appended to the summary line)
    analyze: Callable[[List[str], dict, List[str]],
                      Tuple[AnalysisResult, dict, str]]


def run_cli(layer: Layer, argv: Sequence[str]) -> int:
    """Every layer's main(): parses argv, runs the layer, reports."""
    args = list(argv[1:])
    accepted = ("--json",) + layer.options
    opts: dict = {"--frontend": "auto"}  # read only by the frontend layers
    paths: List[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a in accepted:
            _, parse, complaint = _VALUE_OPTIONS[a]
            i += 1
            try:
                opts[a] = parse(args[i])
            except (IndexError, ValueError):
                print(complaint, file=sys.stderr)
                return 2
        elif a == "--list-rules":
            for r in layer.rules:
                print(f"{r.name}: {r.doc}")
            return 0
        elif a in ("-h", "--help"):
            print(layer.doc)
            print(f"usage: {layer.script} " + "".join(
                f"[{flag} {meta}] " for flag, (meta, _, _)
                in _VALUE_OPTIONS.items() if flag in accepted) + "PATH...")
            return 0
        elif a.startswith("-"):
            print(f"unknown option: {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
        i += 1
    if not paths:
        print(f"usage: {layer.script} [--json OUT] PATH...", file=sys.stderr)
        return 2
    frontend = opts["--frontend"]
    if frontend == "clang":
        from .ast.clang_frontend import clang_available
        ok, detail = clang_available()
        if not ok:
            # Loud skip, success exit: mirrors run_clang_tidy.sh so CI legs
            # that install libclang conditionally stay green without it.
            print(f"SKIP: {layer.name}-analysis clang frontend unavailable: "
                  f"{detail}", file=sys.stderr)
            print("SKIP: install libclang + python3-clang to run this leg; "
                  "the internal frontend still gates via "
                  "`--frontend internal`", file=sys.stderr)
            return 0
    started = time.monotonic()
    warnings: List[str] = []
    try:
        result, extra, note = layer.analyze(paths, opts, warnings)
    except AnalysisError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for f in result.findings:
        print(f.render())
    payload = result.to_json()
    tag = "analysis"
    if layer.name:
        payload.update(layer=layer.name, frontend=frontend,
                       elapsed_seconds=round(elapsed, 3), **extra)
        tag = f"{layer.name}-analysis[{frontend}]"
        note = f" in {elapsed:.1f}s{note}"
    if "--json" in opts:
        opts["--json"].write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"{tag}: {len(result.findings)} finding(s), "
          f"{result.suppressed} suppressed, "
          f"{result.files_scanned} file(s) scanned{note}", file=sys.stderr)
    budget = opts.get("--budget-seconds")
    if budget is not None and elapsed > budget:
        print(f"analysis error: wall-clock budget exceeded "
              f"({elapsed:.1f}s > {budget:.1f}s)", file=sys.stderr)
        return 2
    return 1 if result.findings else 0


TOKEN_LAYER = Layer("", "run_analysis.py", __doc__, ALL_RULES, (),
                    lambda paths, _opts, _warnings:
                    (analyze_paths(paths), {}, ""))


def main(argv: Sequence[str]) -> int:
    return run_cli(TOKEN_LAYER, argv)
