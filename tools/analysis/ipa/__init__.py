"""longlook interprocedural analyzer (tools/analysis/ipa).

The whole-program layer above the CFG-lite AST layer: a call graph
(direct calls, method calls resolved through the merged symbol table,
callback-registration edges for deferred lambdas), per-function summaries
(locks acquired/held, pool handles released, callback parameters that
escape into the event queue, blocking operations), and four rules for the
bug classes that only appear across call boundaries. Runs on the shared
engine (tools/analysis/engine.py): the same Finding format, --json
report shape, exit codes and inline `ll-analysis: allow(...)`
suppressions. See docs/static_analysis.md for the rule catalog.
"""

from .engine import analyze_paths_ipa, main  # noqa: F401
from .rules import IPA_RULES, IPA_RULES_BY_NAME  # noqa: F401
