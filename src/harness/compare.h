// Paired comparison cells (the paper's core methodology, Secs. 3.3/5.2):
// >=10 rounds per scenario, the two arms back-to-back with the same network
// randomness per round, Welch's t-test at p < 0.01, and persistent 0-RTT
// state across rounds (sockets closed, token cache kept).
//
// One runner drives every run: SingleRun<Stack> below, a fresh testbed with
// the stack's server and client session and a workload::ScenarioRunner over
// a workload::ScenarioSpec. A page load is the one-entry spec
// workload::page_spec() builds; the scenario entry points in perf.h hand
// their parsed spec straight in. Callers that need the server or simulator
// around a run hold the object instead of a duration.
//
// One cell builder drives every cell: two arms (QUIC vs TCP, or QUIC vs
// QUIC under two configurations), a warm job per QUIC arm, one job per
// paired round, and a commit job folding the rounds in order. The public
// builders below (and compare_scenario_async in perf.h) pick the arms.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>

#include "harness/runner.h"
#include "harness/testbed.h"
#include "http/h2_session.h"
#include "http/quic_session.h"
#include "net/trace.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/timer.h"
#include "stats/stats.h"
#include "workload/executor.h"
#include "workload/scenario.h"

namespace longlook::harness {

// A page: object_count objects of object_bytes each.
using Workload = workload::PageGraph;

struct CompareOptions {
  int rounds = 10;
  Duration timeout = seconds(600);
  quic::QuicConfig quic{};
  tcp::TcpConfig tcp{};
  // Warm the token cache with a discarded fetch so measured rounds use
  // 0-RTT, like the paper's methodology.
  bool warm_zero_rtt = true;
  // Hook to customise the testbed before each run (e.g. start a variable-
  // bandwidth schedule, place a proxy). Called after servers exist. The
  // returned keep-alive owns whatever the hook created (proxy, schedule)
  // and is destroyed before the testbed, so nothing outlives the simulator.
  std::function<std::shared_ptr<void>(Testbed&)> setup;
  // Override the address/port the client connects to (proxy experiments).
  std::optional<Port> quic_connect_port;
  std::optional<Port> tcp_connect_port;
  bool quic_connect_to_mid = false;  // connect to the mid host (proxy)
  bool tcp_connect_to_mid = false;
  // Structured-trace artifacts: when non-empty (or LL_TRACE_OUT is set),
  // every run writes a JSON-lines event trace under this directory, one file
  // per (cell, round, protocol). File names are derived from a
  // submission-order cell id, so artifacts are byte-identical at any
  // LL_JOBS. Empty + unset env == tracing disabled (zero cost).
  std::string trace_dir;
  // Periodic internal-state sampling (trace schema v3 `ts:` records): when
  // true (or LL_SAMPLE is set) and tracing is on, every run drives an
  // obs::StateSampler every 10 ms of virtual time, snapshotting connection
  // congestion state, access-link queues, and host egress into the run's
  // trace artifact. Off (and no sink) == zero cost: the run takes the exact
  // untraced code path.
  bool sample_state = false;
  // Testbed self-observability: when non-null, every run folds its
  // simulator/link work counters (events dispatched, timer ops, packets
  // forwarded, bytes moved) and wall time into the calling worker's shard.
  // nullptr == profiling disabled, zero cost, byte-identical output. Must
  // outlive the sweep.
  obs::Profiler* profiler = nullptr;
};

struct CellResult {
  std::vector<double> quic_plt_s;
  std::vector<double> tcp_plt_s;
  double quic_mean_s = 0;
  double tcp_mean_s = 0;
  double pct_diff = 0;  // positive: QUIC faster
  double p_value = 1.0;
  bool significant = false;
  bool all_complete = true;
  // Per-cell transport/link totals, folded from every round in round order
  // (keys prefixed "quic." / "tcp.", or "quic_a." / "quic_b." for pair
  // cells). Always populated by the async runners; cheap integer counters.
  obs::MetricsRegistry metrics;
};

// Optional per-run observability hooks threaded through the runner:
// `trace` receives the run's structured events (null == tracing disabled,
// zero formatting cost), `metrics` receives per-run totals under `prefix`
// (e.g. "quic.packets_sent").
struct RunObserver {
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::string prefix;
};

// Virtual-time result of one completed run.
struct ScenarioRunStats {
  double duration_s = 0;  // connect initiation to last transaction's fin
  std::uint64_t transactions = 0;
  std::uint64_t upload_bytes = 0;    // request body bytes (headers excluded)
  std::uint64_t download_bytes = 0;  // response bytes received
};

// One run of stack P in a fresh testbed: the path every entry point and
// every cell round takes. The constructor builds and starts the testbed,
// the stack's server, the opts.setup hook, the client session and a
// workload::ScenarioRunner (plus link observers and the state sampler when
// traced). finish() runs until the workload completes or opts.timeout,
// folds the run summary, profile counters and observer metrics, and returns
// the totals (nullopt on timeout); call it once. The accessors stay valid
// before and after finish(), so a caller can set up the server before
// traffic, schedule probes on the simulator, or read server state after.
//
// `tokens` is the QUIC client's persistent 0-RTT cache; null means a fresh
// one (TCP ignores it). `opts` is read only by the constructor; `observer`
// and a scenario's `spec` must outlive the object.
template <Protocol P>
class SingleRun {
 public:
  using Server = std::conditional_t<P == Protocol::kQuic,
                                    http::QuicObjectServer,
                                    http::TcpObjectServer>;
  using Session = std::conditional_t<P == Protocol::kQuic,
                                     http::QuicClientSession,
                                     http::H2ClientSession>;

  // A page load: run:start names its object count and size.
  SingleRun(const Scenario& scenario, const Workload& page,
            const CompareOptions& opts, quic::TokenCache* tokens = nullptr,
            const RunObserver* observer = nullptr);
  // A scenario: run:start names the spec's totals and DSL string, and an
  // observer's metrics also receive the scn_* totals.
  SingleRun(const Scenario& scenario, const workload::ScenarioSpec& spec,
            const CompareOptions& opts, quic::TokenCache* tokens = nullptr,
            const RunObserver* observer = nullptr);
  // The runner keeps a reference to the spec, so a temporary would dangle.
  SingleRun(const Scenario& scenario, const workload::ScenarioSpec&& spec,
            const CompareOptions& opts, quic::TokenCache* tokens = nullptr,
            const RunObserver* observer = nullptr) = delete;
  SingleRun(const SingleRun&) = delete;
  SingleRun& operator=(const SingleRun&) = delete;

  std::optional<ScenarioRunStats> finish();

  Testbed& testbed() { return tb_; }
  Server& server() { return *server_; }
  Session& session() { return *session_; }
  const workload::ScenarioResult& result() const { return runner_->result(); }

 private:
  // Both forms: `spec` is the caller's scenario, or null to run `page`.
  SingleRun(const Scenario& scenario, workload::ScenarioSpec page,
            const workload::ScenarioSpec* spec, const CompareOptions& opts,
            quic::TokenCache* tokens, const RunObserver* observer);

  // Declaration order is construction order. Teardown runs in reverse: the
  // endpoints deregister before the sampler dies, and the run timer, built
  // first, also times the teardown.
  const RunObserver* observer_ = nullptr;
  obs::ProfilerShard* prof_ = nullptr;
  obs::ScopedTimer run_timer_;
  Duration timeout_ = kNoDuration;
  std::uint64_t dumps_before_ = 0;
  bool page_form_ = false;
  workload::ScenarioSpec page_;  // the page form's one-entry spec
  std::optional<obs::StateSampler> sampler_;
  Testbed tb_;
  std::optional<LinkEventObserver> up_obs_;
  std::optional<LinkEventObserver> down_obs_;
  std::optional<Server> server_;
  std::shared_ptr<void> keepalive_;  // what opts.setup built
  quic::TokenCache fresh_tokens_;
  std::optional<Session> session_;
  std::optional<workload::ScenarioRunner> runner_;
  std::optional<PeriodicTimer> sample_timer_;
};

extern template class SingleRun<Protocol::kQuic>;
extern template class SingleRun<Protocol::kTcp>;

// Runs a single QUIC page load in a fresh testbed; returns PLT seconds or
// nullopt on timeout. The token cache persists across calls via `tokens`.
std::optional<double> run_quic_page_load(const Scenario& scenario,
                                         const Workload& workload,
                                         const CompareOptions& opts,
                                         quic::TokenCache& tokens,
                                         const RunObserver* observer = nullptr);
std::optional<double> run_tcp_page_load(const Scenario& scenario,
                                        const Workload& workload,
                                        const CompareOptions& opts,
                                        const RunObserver* observer = nullptr);

// Full comparison cell: rounds x (QUIC, TCP) with paired seeds + the t-test.
CellResult compare_plt(const Scenario& scenario, const Workload& workload,
                       const CompareOptions& opts);

// QUIC-vs-QUIC comparison (0-RTT study, proxy study, MACW study): runs the
// same workload under two QUIC configurations. Arm "a" fills the quic_*
// fields of the result, arm "b" the tcp_* (baseline) ones. Both option sets
// must ask for the same number of rounds; trace_dir comes from `a_opts`.
CellResult compare_quic_pair(const Scenario& scenario, const Workload& workload,
                             const CompareOptions& a_opts,
                             const CompareOptions& b_opts);

// --- Parallel sweeps (SweepRunner) ---------------------------------------
//
// The async variants enqueue one job per paired round onto `runner` plus an
// explicit job-graph edge for the 0-RTT warm fetch: the warm job fills a
// token cache per QUIC arm, and every measured round starts from its own
// copy of the post-warm cache, so rounds are independent and the folded
// CellResult is byte-identical for any worker count (LL_JOBS=1 included).
// A commit job, gated on all of the cell's rounds, folds the per-round
// results in round order into *out and ticks `progress` (may be nullptr).
// `out` and `progress` must outlive runner.wait_all(). The returned ticket
// is the commit job, usable as a dependency for downstream work.
SweepRunner::Ticket compare_plt_async(SweepRunner& runner,
                                      const Scenario& scenario,
                                      const Workload& workload,
                                      const CompareOptions& opts,
                                      CellResult* out,
                                      ProgressReporter* progress = nullptr);
SweepRunner::Ticket compare_quic_pair_async(SweepRunner& runner,
                                            const Scenario& scenario,
                                            const Workload& workload,
                                            const CompareOptions& a_opts,
                                            const CompareOptions& b_opts,
                                            CellResult* out,
                                            ProgressReporter* progress =
                                                nullptr);

// Runs a whole QUIC-vs-TCP grid (rows = scenarios, cols = workloads) on
// `runner`: every (row, col, round) is an independent job, results land in
// row-major submission order. This is what the bench heatmaps are built on.
std::vector<std::vector<CellResult>> run_plt_grid(
    SweepRunner& runner, const std::vector<Scenario>& rows,
    const std::vector<Workload>& cols, const CompareOptions& opts,
    ProgressReporter* progress = nullptr);

}  // namespace longlook::harness
