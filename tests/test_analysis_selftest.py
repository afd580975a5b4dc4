#!/usr/bin/env python3
"""Self-test for tools/analysis (ctest `analysis-selftest`).

Pins the analyzer's behavior so a rule regression fails ctest instead of
failing open:

  * exact per-rule finding counts on tools/analysis/fixtures/bad/;
  * the clean fixtures — including an inline suppression — stay spotless;
  * an unknown rule tag or a reason-less suppression is a hard error
    (exit 2), never a silent no-op;
  * the --json report is valid and agrees with the text output.

Usage: test_analysis_selftest.py   (exit 0 pass, 1 fail)
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analysis import AnalysisError, analyze_paths, main  # noqa: E402

FIXTURES = REPO / "tools" / "analysis" / "fixtures"

# rule -> EXACT number of findings the bad fixtures must produce. These
# are pinned exactly: any drift means a rule loosened or tightened and the
# fixture plus this table must move together.
EXPECTED_BAD = {
    "narrowing-time-arith": 6,
    "container-mutation-in-loop": 3,
    "missing-lock-annotation": 2,
    # bad/sim/wall_clock_in_sim.cc: two reads, each firing both the
    # everywhere-scoped determinism rule and the sim-layer-scoped rule;
    # bad/harness/every_rule.cc: one more read (harness is exempt from the
    # scoped rule).
    "wall-clock": 3,
    "wall-clock-outside-obs": 2,
    # Determinism family, one violation per line of
    # bad/harness/every_rule.cc ("harness/" puts it in an order-sensitive
    # layer) and bad/cc/direct_io.cc ("cc/" puts it in a sink-enforced
    # layer).
    "raw-rand": 2,
    "unordered-iteration": 1,
    "unordered-in-report": 1,
    "pointer-keyed-map": 2,
    "uninitialized-pod": 2,
    "direct-io": 3,
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run_analysis.py"] + argv)
    return code, out.getvalue(), err.getvalue()


def main_selftest() -> int:
    failures = []

    # --- bad fixtures: exact per-rule counts --------------------------------
    result = analyze_paths([str(FIXTURES / "bad")])
    counts = {}
    for f in result.findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    for rule, expected in EXPECTED_BAD.items():
        got = counts.get(rule, 0)
        if got != expected:
            failures.append(
                f"bad fixtures: rule '{rule}' fired {got} time(s), "
                f"expected exactly {expected}")
    total = sum(EXPECTED_BAD.values())
    if len(result.findings) != total:
        failures.append(
            f"bad fixtures: {len(result.findings)} total findings, expected "
            f"exactly {total}; extra rules fired: "
            f"{sorted(set(counts) - set(EXPECTED_BAD))}")
    code, _, _ = run_main([str(FIXTURES / "bad")])
    if code != 1:
        failures.append(f"bad fixtures: expected exit 1, got {code}")

    # --- clean fixtures: spotless, with the suppression exercised -----------
    result = analyze_paths([str(FIXTURES / "clean")])
    if result.findings:
        failures.append(
            "clean fixtures: expected no findings, got:\n  " +
            "\n  ".join(f.render() for f in result.findings))
    if result.suppressed != 6:
        failures.append(
            f"clean fixtures: expected exactly 6 suppressed findings "
            f"(the demonstrative allow-note, the obs wall-clock exemption, "
            f"and the suppress_scope.cc edge cases — the multi-line "
            f"statement fires on both of its lines under one suppression, "
            f"plus macro-jump and end-of-file), got {result.suppressed}")

    # --- suppression misuse is a hard error ---------------------------------
    for fixture, fragment in [
        ("unknown_rule.cc", "unknown rule"),
        ("missing_reason.cc", "carries no reason"),
    ]:
        path = FIXTURES / "error" / fixture
        try:
            analyze_paths([str(path)])
            failures.append(f"{fixture}: expected AnalysisError, got none")
        except AnalysisError as e:
            if fragment not in str(e):
                failures.append(
                    f"{fixture}: error message missing {fragment!r}: {e}")
        code, _, err = run_main([str(path)])
        if code != 2:
            failures.append(f"{fixture}: expected exit 2 via CLI, got {code}")

    # --- stale allowlist entries are a hard error ---------------------------
    # An entry whose rule is active this run but matches nothing must fail
    # the run (exit 2): stale suppressions would silently hide the next
    # real finding at that site. An entry that does match stays legal.
    with tempfile.TemporaryDirectory() as td:
        stale = Path(td) / "stale_allowlist.txt"
        stale.write_text(
            "narrowing-time-arith no/such/file.cc\n", encoding="utf-8")
        try:
            analyze_paths([str(FIXTURES / "bad")], allowlist=stale)
            failures.append(
                "stale allowlist: expected AnalysisError, got none")
        except AnalysisError as e:
            if "stale allowlist" not in str(e):
                failures.append(
                    f"stale allowlist: error message missing "
                    f"'stale allowlist': {e}")
            # The error must say where the entry's fragment last matched —
            # here the path fragment names a file that was never scanned.
            if "path fragment matches no scanned file" not in str(e):
                failures.append(
                    f"stale allowlist: error lacks last-matched detail: {e}")
        code, _, _ = run_main(
            ["--allowlist", str(stale), str(FIXTURES / "bad")])
        if code != 2:
            failures.append(
                f"stale allowlist: expected exit 2 via CLI, got {code}")

        live = Path(td) / "live_allowlist.txt"
        live.write_text(
            "narrowing-time-arith fixtures/bad\n", encoding="utf-8")
        try:
            result = analyze_paths([str(FIXTURES / "bad")], allowlist=live)
            expected_live = (total - EXPECTED_BAD["narrowing-time-arith"])
            if len(result.findings) != expected_live:
                failures.append(
                    f"live allowlist: {len(result.findings)} findings after "
                    f"allowlisting narrowing-time-arith, expected "
                    f"{expected_live}")
        except AnalysisError as e:
            failures.append(f"live allowlist raised unexpectedly: {e}")

    # --- JSON report agrees with the text output ----------------------------
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "report.json"
        code, out, _ = run_main(
            ["--json", str(report), str(FIXTURES / "bad")])
        data = json.loads(report.read_text())
        if data.get("version") != 1:
            failures.append(f"json report: bad version: {data.get('version')}")
        if len(data.get("findings", [])) != total:
            failures.append(
                f"json report: {len(data.get('findings', []))} findings, "
                f"expected {total}")
        text_lines = [ln for ln in out.splitlines() if ln.strip()]
        if len(text_lines) != total:
            failures.append(
                f"text output: {len(text_lines)} finding lines, "
                f"expected {total}")
        for f in data.get("findings", []):
            for key in ("path", "line", "rule", "message", "snippet"):
                if key not in f:
                    failures.append(f"json report: finding missing '{key}'")
                    break
        # Per-rule elapsed time: every rule that fired must have a timing
        # entry (rules are timed whenever they run, so the firing set is a
        # lower bound on the timed set).
        elapsed = data.get("rule_elapsed_seconds")
        if not isinstance(elapsed, dict):
            failures.append("json report: missing rule_elapsed_seconds")
        else:
            missing = sorted(set(EXPECTED_BAD) - set(elapsed))
            if missing:
                failures.append(
                    f"json report: rule_elapsed_seconds missing rules that "
                    f"fired: {missing}")
            bad_vals = {k: v for k, v in elapsed.items()
                        if not isinstance(v, (int, float)) or v < 0}
            if bad_vals:
                failures.append(
                    f"json report: non-numeric/negative elapsed: {bad_vals}")

    # --- per-rule suppression counts in the JSON report ---------------------
    # The clean fixtures carry 6 inline suppressions; the per-rule breakdown
    # must be present and sum to the scalar `suppressed` count.
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "clean_report.json"
        code, _, _ = run_main(["--json", str(report), str(FIXTURES / "clean")])
        data = json.loads(report.read_text())
        by_rule = data.get("suppressed_by_rule")
        if not isinstance(by_rule, dict):
            failures.append("json report: missing suppressed_by_rule")
        elif sum(by_rule.values()) != data.get("suppressed"):
            failures.append(
                f"json report: suppressed_by_rule sums to "
                f"{sum(by_rule.values())}, scalar suppressed is "
                f"{data.get('suppressed')}")
        elif data.get("suppressed") != 6:
            failures.append(
                f"json report: clean fixtures expected 6 suppressed, got "
                f"{data.get('suppressed')}")

    if failures:
        print("analysis_selftest: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"analysis_selftest: OK ({total} pinned findings on bad fixtures, "
          "clean fixtures spotless, suppression misuse rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main_selftest())
