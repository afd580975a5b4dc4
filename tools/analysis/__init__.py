"""longlook token-aware static analyzer (tools/analysis).

A small multi-pass analyzer for the repo's C++ sources. Unlike the original
line-regex lint it lexes the input (string/char literals, //, /* */ and raw
strings handled; preprocessor lines skipped), so rules see real token
streams, survive multi-line constructs, and never fire inside comments or
literals. See docs/static_analysis.md for the rule catalog and the
`// ll-analysis: allow(<rule>) <reason>` suppression syntax.
"""

from .engine import (  # noqa: F401
    ALL_RULE_NAMES,
    AnalysisError,
    Finding,
    analyze_paths,
    main,
)
