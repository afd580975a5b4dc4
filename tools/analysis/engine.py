"""Analyzer engine: file discovery, suppressions, reporting.

Public surface (re-exported from tools/analysis/__init__.py):

  analyze_paths(paths, ...) -> AnalysisResult
  main(argv) -> exit code      (0 clean, 1 findings, 2 usage/config error)

Suppression syntax, valid in // or /* */ comments:

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
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .lexer import Comment, tokenize
from .rules import ALL_RULES, RULES_BY_NAME, Rule

ALL_RULE_NAMES = tuple(r.name for r in ALL_RULES)

_SOURCE_SUFFIXES = (".cc", ".cpp", ".cxx", ".h", ".hpp", ".hh")

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


def _known_rule_names() -> set:
    """Token-layer plus AST-layer plus IPA-layer rule names. Suppressions
    and allowlists may name a rule from any layer (the AST and IPA engines
    reuse this file's machinery), so validation always runs against the
    union. Imported lazily: analysis.ast / analysis.ipa import back into
    this module."""
    names = set(RULES_BY_NAME)
    try:
        from .ast.rules import AST_RULES_BY_NAME
        names |= set(AST_RULES_BY_NAME)
    except ImportError:
        pass
    try:
        from .ipa.rules import IPA_RULES_BY_NAME
        names |= set(IPA_RULES_BY_NAME)
    except ImportError:
        pass
    return names


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
    # suppressed_by_rule counts inline + allowlist suppressions keyed by
    # rule name; rule_elapsed is wall-clock seconds spent inside each
    # rule's check() summed over files. Defaults keep older construction
    # sites (three positional fields) working unchanged.
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


def analyze_file(
    fs_path: Path, rel: str, rules: Sequence[Rule],
    suppressed_by_rule: Optional[Dict[str, int]] = None,
    rule_elapsed: Optional[Dict[str, float]] = None,
) -> Tuple[List[Finding], int]:
    """Analyzes one file; returns (findings, suppressed_count).

    When the caller passes accumulator dicts, inline suppressions are
    counted per rule name and rule.check() wall-clock is summed per rule.
    """
    text = fs_path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    tokens, comments = tokenize(text)
    # Suppressions must name *any* known rule (any layer), not just the
    # active subset, so a `--rules` run doesn't choke on suppressions for
    # other or AST-layer rules.
    suppressions = _parse_suppressions(
        comments, tokens, rel, _known_rule_names())
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        if not rule.applies_to(rel):
            continue
        started = time.monotonic()
        hits = list(rule.check(tokens))
        if rule_elapsed is not None:
            rule_elapsed[rule.name] = (
                rule_elapsed.get(rule.name, 0.0)
                + (time.monotonic() - started))
        for line, message in hits:
            if (line, rule.name) in suppressions:
                suppressed += 1
                if suppressed_by_rule is not None:
                    suppressed_by_rule[rule.name] = \
                        suppressed_by_rule.get(rule.name, 0) + 1
                continue
            snippet = lines[line - 1].strip() if 0 < line <= len(lines) \
                else ""
            findings.append(Finding(rel, line, rule.name, message, snippet))
    return findings, suppressed


def _iter_source_files(root: Path, arg: Path) -> Iterable[Path]:
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


def _load_allowlist(path: Path) -> List[Tuple[str, str, Optional[str]]]:
    """--allowlist FILE: '<rule> <path-substring> [<line-substr>]'."""
    entries = []
    if not path.is_file():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 2)
        if len(parts) < 2:
            raise AnalysisError(
                f"{path}: malformed allowlist line: {raw!r}")
        rule, frag = parts[0], parts[1]
        line_frag = parts[2] if len(parts) > 2 else None
        if rule not in _known_rule_names():
            raise AnalysisError(
                f"{path}: unknown rule '{rule}' in allowlist")
        entries.append((rule, frag, line_frag))
    return entries


def _allowlist_match(
    f: Finding, entries: Sequence[Tuple[str, str, Optional[str]]],
) -> Optional[int]:
    """Index of the first matching allowlist entry, or None."""
    for k, (rule, frag, line_frag) in enumerate(entries):
        if f.rule != rule or frag not in f.path:
            continue
        if line_frag is None or line_frag in f.snippet:
            return k
    return None


def _allowlisted(
    f: Finding, entries: Sequence[Tuple[str, str, Optional[str]]],
) -> bool:
    return _allowlist_match(f, entries) is not None


def _stale_entry_trace(
    frag: str, line_frag: Optional[str],
    scanned: Sequence[Tuple[str, Path]],
) -> str:
    """Where a stale allowlist entry last matched: the file:line whose
    content still carries the entry's line fragment (the code survives but
    the rule no longer fires there), or a note that the fragment is gone
    entirely. Only runs on the error path, so re-reading files is fine."""
    candidates = [(rel, fs) for rel, fs in scanned if frag in rel]
    if not candidates:
        return "path fragment matches no scanned file"
    if line_frag is None:
        rel = candidates[0][0]
        extra = f" (+{len(candidates) - 1} more)" if len(candidates) > 1 \
            else ""
        return f"path still matches {rel}{extra}, rule fired nowhere in it"
    for rel, fs in candidates:
        text = fs.read_text(encoding="utf-8", errors="replace")
        last = None
        for n, line in enumerate(text.splitlines(), 1):
            if line_frag in line:
                last = n
        if last is not None:
            return (f"line content last matched at {rel}:{last}, "
                    "rule no longer fires there")
    return (f"line fragment no longer appears in any matching file "
            f"(checked {', '.join(rel for rel, _ in candidates)})")


def check_stale_allowlist(
    entries: Sequence[Tuple[str, str, Optional[str]]],
    used: Set[int], active_rule_names: Set[str],
    scanned: Sequence[Tuple[str, Path]] = (),
) -> None:
    """Hard-errors on entries whose rule was active this run yet matched
    nothing — stale suppressions must not rot silently. Entries for rules
    outside the active set (e.g. other rules' entries during a `--rules`
    run) are left alone. When the caller passes the
    scanned (rel, fs_path) list, each stale entry's message pins the
    file:line its fragment last matched, so the reporter can tell "code
    deleted" from "rule stopped firing" without a manual grep."""
    stale = [entries[k] for k in range(len(entries))
             if k not in used and entries[k][0] in active_rule_names]
    if stale:
        rendered = ", ".join(
            "'" + " ".join(x for x in (r, frag, lf) if x) + "'"
            + (f" [{_stale_entry_trace(frag, lf, scanned)}]"
               if scanned else "")
            for r, frag, lf in stale)
        raise AnalysisError(
            f"stale allowlist entries matched no finding: {rendered} — "
            "delete them (a stale suppression hides the next real "
            "finding at that site)")


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
    allowlist: Optional[Path] = None,
) -> AnalysisResult:
    root = (root or repo_root()).resolve()
    rules = list(rules) if rules is not None else list(ALL_RULES)
    entries = _load_allowlist(allowlist) if allowlist else []
    findings: List[Finding] = []
    used_entries: Set[int] = set()
    suppressed = 0
    suppressed_by_rule: Dict[str, int] = {}
    rule_elapsed: Dict[str, float] = {}
    scanned_files: List[Tuple[str, Path]] = []
    for arg in paths:
        p = Path(arg)
        if not p.exists():
            raise AnalysisError(f"no such path: {arg}")
        _check_allowed(root, p)
        for f in _iter_source_files(root, p):
            try:
                rel = f.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = f.as_posix()
            file_findings, file_suppressed = analyze_file(
                f, rel, rules, suppressed_by_rule, rule_elapsed)
            scanned_files.append((rel, f))
            suppressed += file_suppressed
            for finding in file_findings:
                k = _allowlist_match(finding, entries)
                if k is not None:
                    used_entries.add(k)
                    suppressed += 1
                    suppressed_by_rule[finding.rule] = \
                        suppressed_by_rule.get(finding.rule, 0) + 1
                else:
                    findings.append(finding)
    check_stale_allowlist(entries, used_entries, {r.name for r in rules},
                          scanned_files)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisResult(findings, suppressed, len(scanned_files),
                          suppressed_by_rule, rule_elapsed)


def main(argv: Sequence[str]) -> int:
    args = list(argv[1:])
    json_out: Optional[Path] = None
    rule_filter: Optional[List[Rule]] = None
    allowlist: Optional[Path] = None
    paths: List[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--json":
            i += 1
            if i >= len(args):
                print("--json needs a file argument", file=sys.stderr)
                return 2
            json_out = Path(args[i])
        elif a == "--rules":
            i += 1
            if i >= len(args):
                print("--rules needs a comma-separated list",
                      file=sys.stderr)
                return 2
            names = [x.strip() for x in args[i].split(",") if x.strip()]
            unknown = [x for x in names if x not in RULES_BY_NAME]
            if unknown:
                print(f"unknown rule(s): {', '.join(unknown)}",
                      file=sys.stderr)
                return 2
            rule_filter = [RULES_BY_NAME[x] for x in names]
        elif a == "--allowlist":
            i += 1
            if i >= len(args):
                print("--allowlist needs a file argument", file=sys.stderr)
                return 2
            allowlist = Path(args[i])
        elif a == "--list-rules":
            for r in ALL_RULES:
                print(f"{r.name}: {r.doc}")
            return 0
        elif a in ("-h", "--help"):
            print(__doc__)
            print("usage: run_analysis.py [--json OUT] [--rules a,b] "
                  "[--allowlist FILE] PATH...")
            return 0
        elif a.startswith("-"):
            print(f"unknown option: {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
        i += 1
    if not paths:
        print("usage: run_analysis.py [--json OUT] PATH...", file=sys.stderr)
        return 2
    try:
        result = analyze_paths(paths, rules=rule_filter, allowlist=allowlist)
    except AnalysisError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 2
    for f in result.findings:
        print(f.render())
    if json_out is not None:
        json_out.write_text(
            json.dumps(result.to_json(), indent=2) + "\n", encoding="utf-8")
    print(
        f"analysis: {len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed, "
        f"{result.files_scanned} file(s) scanned",
        file=sys.stderr)
    return 1 if result.findings else 0
