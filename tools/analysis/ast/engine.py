"""AST-layer engine: one TU per file, run on the shared engine.

Runs on the shared engine (tools/analysis/engine.py): the same
finding format, `--json` report shape, exit codes (0 clean, 1 findings,
2 config error) and `ll-analysis: allow(...)` suppression syntax — a
suppression written for a token rule and one written for an AST rule are
indistinguishable to the reader, and every layer validates rule names
against the union of all layers' rules so cross-layer comments never
hard-error.

Frontend selection (`--frontend auto|internal|clang`):

  internal  pure-Python parser; always available; what the selftest pins.
  clang     libclang symbol augmentation; requested explicitly. When
            libclang is missing the CLI prints a loud skip and exits 0
            (mirroring tools/run_clang_tidy.sh) so a CI leg that installs
            libclang conditionally stays green either way.
  auto      clang when loadable, else internal with a one-line warning.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..engine import (
    FRONTENDS, HEADER_SUFFIXES, AnalysisError, AnalysisResult, Layer, Reader,
    Source, analyze_each_file, run_cli,
)
from ..lexer import Token
from . import clang_frontend
from . import parser as internal_parser
from .astmodel import TranslationUnit
from .rules import AST_RULES


def tu_loader(frontend: str, warnings: List[str],
              ) -> Callable[[Source, Reader], TranslationUnit]:
    """The TU loader of the AST and IPA layers: load(source, reader) parses
    one file through `frontend`, right after the walk read it. The internal
    frontend parses the tokens the engine already lexed, and parses each
    header once per run, whether the walk reaches it first or a .cc file
    merges it as its sibling first. An unknown frontend is a config
    error."""
    if frontend not in FRONTENDS:
        raise AnalysisError(f"unknown frontend '{frontend}' "
                            f"(expected one of {', '.join(FRONTENDS)})")
    headers: Dict[Path, TranslationUnit] = {}

    def parse(path: Path, rel: str,
              tokens: Callable[[], List[Token]]) -> TranslationUnit:
        if path.suffix not in HEADER_SUFFIXES:
            return internal_parser.parse_tokens(rel, tokens())
        key = path.resolve()
        if key not in headers:
            headers[key] = internal_parser.parse_tokens(rel, tokens())
        return dataclasses.replace(headers[key], rel=rel)

    def load(src: Source, reader: Reader) -> TranslationUnit:
        if frontend in ("clang", "auto"):
            ok, detail = clang_frontend.clang_available()
            if ok or frontend == "clang":
                return clang_frontend.load_tu(
                    src.path, src.rel, reader.root, warn=warnings.append)
            if not warnings:  # one-line note, not per-file spam
                warnings.append(
                    f"clang frontend unavailable ({detail}); "
                    "using internal frontend")
        tu = parse(src.path, src.rel, lambda: src.tokens)
        sibling = internal_parser.sibling_header(src.path)
        if sibling is not None:
            internal_parser.merge_header(tu, parse(
                sibling, src.rel, lambda: reader.lex(sibling)[1]))
        return tu
    return load


def analyze_paths_ast(
    paths: Sequence[str],
    root: Optional[Path] = None,
    frontend: str = "auto",
    warnings: Optional[List[str]] = None,
) -> AnalysisResult:
    load = tu_loader(frontend, [] if warnings is None else warnings)
    return analyze_each_file(paths, AST_RULES, load, root)


LAYER = Layer("ast", "run_ast_analysis.py", __doc__, AST_RULES,
              ("--frontend", "--budget-seconds"),
              lambda paths, opts, warnings: (analyze_paths_ast(
                  paths, frontend=opts["--frontend"], warnings=warnings),
                  {}, ""))


def main(argv: Sequence[str]) -> int:
    return run_cli(LAYER, argv)
