"""IPA-layer engine: one whole-program model, run on the shared engine.

Runs on the shared engine (tools/analysis/engine.py): the same
Finding format, --json report shape, exit codes (0 clean, 1 findings,
2 config error) and `ll-analysis: allow(...)` suppression syntax, and the
AST layer's TU loader and `--frontend`. The difference from the per-file
layers: every path is loaded into one Program (call graph + summaries)
before any rule runs, so a finding in file A can be caused by a summary
computed from file B.

`--cache FILE` persists the full report keyed on a hash of every scanned
file's content, the analyzer's own code and the frontend; a warm run with
identical inputs replays the report without rebuilding the call graph
(the CI step caches this file keyed on the same sources).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import (
    AnalysisResult, Finding, Layer, Reader, Source, Tally, repo_root, run_cli,
    walk,
)
from ..ast.engine import tu_loader
from .callgraph import Program
from .rules import IPA_RULES


def _cache_key(files: Sequence[Tuple[str, bytes]], frontend: str) -> str:
    """Hashes the frontend, every scanned file and the analyzer's own code
    (tools/analysis/**/*.py), so editing a rule, a summary or the engine
    invalidates the cache like editing a scanned file does."""
    h = hashlib.sha256()
    h.update(frontend.encode())
    package = Path(__file__).resolve().parents[1]
    code = [(p.relative_to(package).as_posix(), p.read_bytes())
            for p in package.rglob("*.py")]
    for rel, blob in sorted(code) + sorted(files):
        h.update(rel.encode())
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _result_from_payload(payload: dict) -> AnalysisResult:
    findings = [Finding(**f) for f in payload.get("findings", [])]
    return AnalysisResult(
        findings, payload.get("suppressed", 0),
        payload.get("files_scanned", 0),
        dict(payload.get("suppressed_by_rule", {})),
        dict(payload.get("rule_elapsed_seconds", {})))


def analyze_paths_ipa(
    paths: Sequence[str],
    root: Optional[Path] = None,
    frontend: str = "auto",
    warnings: Optional[List[str]] = None,
    cache: Optional[Path] = None,
    stats: Optional[dict] = None,
) -> AnalysisResult:
    warnings = warnings if warnings is not None else []
    load = tu_loader(frontend, warnings)
    root = (root or repo_root()).resolve()

    # Every file's content feeds the cache key before anything is parsed.
    files = list(walk(paths, root))
    key = _cache_key([(rel, f.read_bytes()) for rel, f in files], frontend)
    if cache is not None and cache.is_file():
        try:
            cached = json.loads(cache.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            cached = None
        if cached and cached.get("key") == key:
            warnings.append(
                f"cache hit ({cache}): replaying report for "
                f"{len(files)} file(s)")
            if stats is not None:
                stats.update(cached.get("stats", {}))
                stats["cache_hit"] = True
            return _result_from_payload(cached.get("payload", {}))

    reader = Reader(root)
    by_rel: Dict[str, Source] = {}
    tus = []
    for rel, f in files:
        src = by_rel[rel] = reader.source(rel, f)
        tus.append(load(src, reader))
    program = Program(tus)
    if stats is not None:
        stats["functions"] = len(program.nodes)
        stats["call_edges"] = sum(
            len(n.summary.calls) for n in program.nodes)
        stats["cache_hit"] = False

    # Rules run over the whole program; suppressions stay per file. Every
    # hit names a function of a scanned file.
    tally = Tally()
    for rule in IPA_RULES:
        for rel, line, message in tally.run(rule, program):
            if rule.applies_to(rel):
                tally.add(by_rel[rel], line, rule.name, message)
    result = tally.result(len(files))

    if cache is not None:
        try:
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_text(json.dumps({
                "key": key,
                "stats": dict(stats or {}),
                "payload": result.to_json(),
            }, indent=2) + "\n", encoding="utf-8")
        except OSError as e:
            warnings.append(f"cache write failed ({e})")
    return result


def _analyze(paths: List[str], opts: dict, warnings: List[str]):
    stats: dict = {}
    result = analyze_paths_ipa(
        paths, frontend=opts["--frontend"], warnings=warnings,
        cache=opts.get("--cache"), stats=stats)
    graph = {"functions": stats.get("functions", 0),
             "call_edges": stats.get("call_edges", 0),
             "cache_hit": stats.get("cache_hit", False)}
    note = (f" ({graph['functions']} functions, "
            f"{graph['call_edges']} call edges"
            f"{', cached' if graph['cache_hit'] else ''})")
    return result, {"callgraph": graph}, note


LAYER = Layer("ipa", "run_ipa_analysis.py", __doc__, IPA_RULES,
              ("--frontend", "--cache", "--budget-seconds"), _analyze)


def main(argv: Sequence[str]) -> int:
    return run_cli(LAYER, argv)
