// Scenario-DSL perf comparison path: runs a parsed workload::ScenarioSpec
// (quicperf-style transactions, dependent streams, uploads, page graphs)
// over both stacks through the same runner and cell builder as the
// page-load path in compare.h (both live in compare.cc). A workload here is
// a string, not a translation unit — bench_perf feeds `--scenario` strings
// straight into these entry points.
#pragma once

#include <optional>

#include "harness/compare.h"
#include "workload/scenario.h"

namespace longlook::harness {

// Runs one scenario in a fresh testbed; returns stats or nullopt on
// timeout. The token cache persists across calls via `tokens`, exactly like
// run_quic_page_load, so 0-RTT scenarios warm the same way. Besides the
// transport counters, an observer's metrics receive the scn_* totals, and
// run:start carries the spec's totals plus its DSL string.
std::optional<ScenarioRunStats> run_quic_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, quic::TokenCache& tokens,
    const RunObserver* observer = nullptr);
std::optional<ScenarioRunStats> run_tcp_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, const RunObserver* observer = nullptr);

// Full QUIC-vs-TCP cell over one scenario: rounds x (QUIC, TCP) with paired
// seeds and the t-test. The CellResult's "plt" vectors hold scenario
// completion times in seconds; metrics carry the scn_* transaction/byte
// totals alongside the usual transport counters. Same job-graph determinism
// contract as compare_plt_async (byte-identical at any LL_JOBS).
SweepRunner::Ticket compare_scenario_async(
    SweepRunner& runner, const Scenario& scenario,
    const workload::ScenarioSpec& spec, const CompareOptions& opts,
    CellResult* out, ProgressReporter* progress = nullptr);

}  // namespace longlook::harness
