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

from pathlib import Path
from typing import Callable, List, Optional, Sequence

from ..engine import (
    FRONTENDS, AnalysisError, AnalysisResult, Layer, Source,
    analyze_each_file, run_cli,
)
from . import clang_frontend
from . import parser as internal_parser
from .astmodel import TranslationUnit
from .rules import AST_RULES


def tu_loader(frontend: str, warnings: List[str],
              ) -> Callable[[Source, Path], TranslationUnit]:
    """The TU loader of the AST and IPA layers: load(source, root) parses
    one file through `frontend`. An unknown frontend is a config error."""
    if frontend not in FRONTENDS:
        raise AnalysisError(f"unknown frontend '{frontend}' "
                            f"(expected one of {', '.join(FRONTENDS)})")

    def load(src: Source, root: Path) -> TranslationUnit:
        if frontend in ("clang", "auto"):
            ok, detail = clang_frontend.clang_available()
            if ok or frontend == "clang":
                return clang_frontend.load_tu(
                    src.path, src.rel, root, warn=warnings.append)
            if not warnings:  # one-line note, not per-file spam
                warnings.append(
                    f"clang frontend unavailable ({detail}); "
                    "using internal frontend")
        return internal_parser.load_tu(src.path, src.rel)
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
