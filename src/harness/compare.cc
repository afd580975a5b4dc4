#include "harness/compare.h"

#include <array>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <type_traits>

#include "harness/compare_detail.h"
#include "harness/perf.h"
#include "net/trace.h"
#include "obs/flight_recorder.h"
#include "sim/timer.h"
#include "util/check.h"
#include "workload/executor.h"

namespace longlook::harness {

namespace detail {

void emit_run_summary(obs::TraceSink* sink, bool done, Duration plt,
                      TimePoint now) {
  if (sink == nullptr) return;
  obs::TraceEvent ev("run:summary", now);
  if (done) {
    ev.i("plt_ns", plt.count());
  } else {
    ev.b("timed_out", true);
  }
  sink->record(ev);
}

void register_testbed_probes(obs::StateSampler& sampler, Testbed& tb) {
  sampler.add_queue("up", [&tb] {
    const LinkStats& s = tb.uplink().stats();
    return obs::QueueSample{tb.uplink().queued_bytes(), s.dropped_queue,
                            s.dropped_random, s.delivered};
  });
  sampler.add_queue("down", [&tb] {
    const LinkStats& s = tb.downlink().stats();
    return obs::QueueSample{tb.downlink().queued_bytes(), s.dropped_queue,
                            s.dropped_random, s.delivered};
  });
  sampler.add_host("client", [&tb] {
    Host& h = tb.client_host();
    return obs::HostSample{h.packets_sent(), h.bytes_sent(),
                           h.packets_received()};
  });
  sampler.add_host("server", [&tb] {
    Host& h = tb.server_host();
    return obs::HostSample{h.packets_sent(), h.bytes_sent(),
                           h.packets_received()};
  });
}

}  // namespace detail

namespace {

// What a run records, the one difference between the page and scenario
// entry points. A page run's run:start names the page's object count and
// per-object size. A scenario run's names the spec's totals (objects =
// transactions, object_bytes = bytes downloaded) plus the DSL string, so
// the trace is self-describing, and the run folds scn_* totals.
enum class RunForm { kPage, kScenario };

void emit_run_start(obs::TraceSink& sink, const char* proto,
                    const Scenario& scenario,
                    const workload::ScenarioSpec& spec, RunForm form,
                    TimePoint now) {
  // "v" is the trace schema version (docs/trace_schema.md); v2 added the
  // run:hist record type, v3 the ts:/flight: families.
  obs::TraceEvent ev("run:start", now);
  ev.u("v", 3)
      .s("proto", proto)
      .s("scenario", scenario.name)
      .u("seed", scenario.seed);
  if (form == RunForm::kPage) {
    const workload::PageGraph& page = *spec.streams.front().page;
    sink.record(ev.u("objects", page.object_count)
                    .u("object_bytes", page.object_bytes));
    return;
  }
  const std::string dsl = spec.format();  // outlives the recorded view
  sink.record(ev.u("objects", spec.total_transactions())
                  .u("object_bytes", spec.total_download_bytes())
                  .s("perf_scenario", dsl));
}

// Folds the run's simulator/link work volume into the profiler shard. The
// values themselves are deterministic (virtual-time bookkeeping); only the
// wall-time histograms alongside them vary run to run.
void fold_profile_counters(obs::ProfilerShard* prof, Testbed& tb) {
  if (prof == nullptr) return;
  prof->add("runs", 1);
  prof->add("sim_events", tb.sim().dispatched_events());
  prof->add("timer_ops", tb.sim().timer_ops());
  const LinkStats& up = tb.uplink().stats();
  const LinkStats& down = tb.downlink().stats();
  prof->add("packets_forwarded", up.delivered + down.delivered);
  prof->add("bytes_moved", up.bytes_delivered + down.bytes_delivered);
  // Allocation telemetry for the pooled sim core. Both counts depend only
  // on the simulated workload (per-Simulator pool high-water mark and
  // oversized-callback count), so they are deterministic and safe to gate
  // with hard floors in CI (tools/bench_report.py perf-floor).
  prof->add("sim_event_pool_slots", tb.sim().event_pool_slots());
  prof->add("sim_callback_heap", tb.sim().callback_heap_allocs());
}

// Periodic `ts:` sampling opt-in: opts.sample_state, or LL_SAMPLE set to
// anything but "" / "0". Only consulted when the run is traced.
bool sampling_enabled(const CompareOptions& opts) {
  if (opts.sample_state) return true;
  const char* env = std::getenv("LL_SAMPLE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

// Folds sampler telemetry into the profiler shard: `ts_samples` (records
// emitted this run) and `flight_dumps` (thread-local dump-count delta since
// `dumps_before`). Null sampler contributes 0 samples.
void fold_sampler_counters(obs::ProfilerShard* prof,
                           const obs::StateSampler* sampler,
                           std::uint64_t dumps_before) {
  if (prof == nullptr) return;
  if (sampler != nullptr) prof->add("ts_samples", sampler->records_emitted());
  const std::uint64_t dumps = obs::FlightRecorder::thread_dumps();
  if (dumps > dumps_before) prof->add("flight_dumps", dumps - dumps_before);
}

// The stack's transport counters: the client connection, then the server's
// latest connection.
void fold_transport(obs::MetricsRegistry& m, const std::string& p,
                    http::QuicClientSession& session,
                    http::QuicObjectServer& server) {
  const quic::ConnectionStats& cs = session.connection().stats();
  m.incr(p + "packets_sent", cs.packets_sent);
  m.incr(p + "packets_received", cs.packets_received);
  m.incr(p + "bytes_sent", cs.bytes_sent);
  m.incr(p + "stream_bytes_delivered", cs.stream_bytes_delivered);
  m.incr(p + "packets_declared_lost", cs.packets_declared_lost);
  m.incr(p + "spurious_losses", cs.spurious_losses);
  m.incr(p + "tail_loss_probes", cs.tail_loss_probes);
  m.incr(p + "rto_count", cs.rto_count);
  m.incr(p + "handshake_rtts", cs.handshake_round_trips);
  if (const quic::QuicConnection* sc = server.server().latest_connection()) {
    const quic::ConnectionStats& ss = sc->stats();
    m.incr(p + "server_packets_sent", ss.packets_sent);
    m.incr(p + "server_declared_lost", ss.packets_declared_lost);
    m.incr(p + "server_spurious_losses", ss.spurious_losses);
    m.incr(p + "server_rto_count", ss.rto_count);
  }
}

void fold_transport(obs::MetricsRegistry& m, const std::string& p,
                    http::H2ClientSession& session,
                    http::TcpObjectServer& server) {
  const tcp::TcpStats& cs = session.connection().stats();
  m.incr(p + "segments_sent", cs.segments_sent);
  m.incr(p + "segments_received", cs.segments_received);
  m.incr(p + "bytes_sent", cs.bytes_sent);
  m.incr(p + "retransmitted_segments", cs.retransmitted_segments);
  m.incr(p + "fast_retransmits", cs.fast_retransmits);
  m.incr(p + "tail_loss_probes", cs.tail_loss_probes);
  m.incr(p + "rto_count", cs.rto_count);
  m.incr(p + "dsack_events", cs.dsack_events);
  m.incr(p + "handshake_rtts", cs.handshake_round_trips);
  if (const tcp::TcpConnection* sc = server.server().latest_connection()) {
    const tcp::TcpStats& ss = sc->stats();
    m.incr(p + "server_segments_sent", ss.segments_sent);
    m.incr(p + "server_retransmitted", ss.retransmitted_segments);
    m.incr(p + "server_dsack_events", ss.dsack_events);
    m.incr(p + "server_rto_count", ss.rto_count);
  }
}

// Per-run metrics + trace epilogue. The run's duration (page PLT or
// scenario completion time) is observed as "<prefix>plt_us" on completion.
template <typename Session, typename Server>
void fold_run_metrics(const RunObserver& observer, RunForm form, bool done,
                      const workload::ScenarioResult& res, Session& session,
                      Server& server, Testbed& tb) {
  if (observer.metrics == nullptr) return;
  obs::MetricsRegistry& m = *observer.metrics;
  const std::string& p = observer.prefix;
  if (form == RunForm::kScenario) {
    m.incr(p + "scn_transactions", res.transactions);
    m.incr(p + "scn_upload_bytes", res.upload_bytes);
    m.incr(p + "scn_download_bytes", res.download_bytes);
  }
  m.incr(p + "runs");
  if (!done) m.incr(p + "timeouts");
  fold_transport(m, p, session, server);
  const LinkStats& up = tb.uplink().stats();
  const LinkStats& down = tb.downlink().stats();
  m.incr(p + "link_drops_queue", up.dropped_queue + down.dropped_queue);
  m.incr(p + "link_drops_random", up.dropped_random + down.dropped_random);
  m.incr(p + "link_reordered",
         up.delivered_out_of_order + down.delivered_out_of_order);
  if (done) m.observe(p + "plt_us", res.duration.count() / 1000);
  if (observer.trace != nullptr) {
    // Histograms first: run:metrics stays the artifact's last line.
    m.record_histograms_to(*observer.trace, tb.sim().now());
    m.record_to(*observer.trace, tb.sim().now());
  }
}

// The one run path: drives `spec` over stack P in a fresh testbed and
// returns its totals, or nullopt on timeout. `tokens` is the QUIC client's
// persistent 0-RTT cache (unused, may be null, for TCP).
template <Protocol P>
std::optional<ScenarioRunStats> run_once(const Scenario& scenario,
                                         const workload::ScenarioSpec& spec,
                                         RunForm form,
                                         const CompareOptions& opts,
                                         quic::TokenCache* tokens,
                                         const RunObserver* observer) {
  constexpr bool kQuic = P == Protocol::kQuic;
  using Server = std::conditional_t<kQuic, http::QuicObjectServer,
                                    http::TcpObjectServer>;
  using Session = std::conditional_t<kQuic, http::QuicClientSession,
                                     http::H2ClientSession>;
  // The stack's transport config within a CompareOptions.
  const auto stack_config = [](auto& o) -> auto& {
    if constexpr (P == Protocol::kQuic) {
      return o.quic;
    } else {
      return o.tcp;
    }
  };

  obs::ProfilerShard* prof = obs::Profiler::local(opts.profiler);
  obs::ScopedTimer run_timer(prof, kQuic ? "run:quic" : "run:tcp");
  obs::TraceSink* sink = observer != nullptr ? observer->trace : nullptr;
  // Tracing enabled: run under a copy of the options that carries the sink
  // into the stack's transport config. Disabled: the original options pass
  // through untouched (no copy, no null-sink formatting anywhere).
  CompareOptions traced;
  const CompareOptions* eff = &opts;
  if (sink != nullptr) {
    traced = opts;
    stack_config(traced).trace = sink;
    eff = &traced;
  }
  // Periodic `ts:` sampling (schema v3). Declared before the endpoints so
  // connections deregister (in their destructors) before the sampler dies.
  std::optional<obs::StateSampler> sampler;
  const std::uint64_t dumps_before = obs::FlightRecorder::thread_dumps();
  if (sink != nullptr && sampling_enabled(opts)) {
    sampler.emplace(sink);
    stack_config(traced).sampler = &*sampler;
  }

  Testbed tb(scenario);
  // Declared after tb so they detach from the links before teardown.
  std::optional<LinkEventObserver> up_obs;
  std::optional<LinkEventObserver> down_obs;
  if (sink != nullptr) {
    up_obs.emplace(tb.uplink(), *sink, "up");
    down_obs.emplace(tb.downlink(), *sink, "down");
    emit_run_start(*sink, kQuic ? "quic" : "tcp", scenario, spec, form,
                   tb.sim().now());
  }
  if (sampler) detail::register_testbed_probes(*sampler, tb);
  const auto& config = stack_config(*eff);
  const Port server_port = kQuic ? kQuicPort : kTcpPort;
  Server server(tb.sim(), tb.server_host(), server_port, config);
  const std::shared_ptr<void> keepalive =
      eff->setup ? eff->setup(tb) : nullptr;

  // Proxy experiments connect to the mid host and/or another port.
  const bool to_mid =
      kQuic ? eff->quic_connect_to_mid : eff->tcp_connect_to_mid;
  const Address target =
      to_mid ? tb.mid_host().address() : tb.server_host().address();
  const Port port = (kQuic ? eff->quic_connect_port : eff->tcp_connect_port)
                        .value_or(server_port);
  Session session = [&] {
    if constexpr (kQuic) {
      return Session(tb.sim(), tb.client_host(), target, port, config,
                     *tokens);
    } else {
      return Session(tb.sim(), tb.client_host(), target, port, config);
    }
  }();
  workload::ScenarioRunner runner(tb.sim(), session, spec);
  runner.start();
  std::optional<PeriodicTimer> sample_timer;
  if (sampler) {
    sample_timer.emplace(tb.sim(), eff->sample_interval,
                         [&] { sampler->sample(tb.sim().now()); });
  }
  const bool done =
      tb.run_until([&] { return runner.finished(); }, eff->timeout);
  const workload::ScenarioResult& res = runner.result();
  detail::emit_run_summary(sink, done, res.duration, tb.sim().now());
  fold_profile_counters(prof, tb);
  fold_sampler_counters(prof, sampler ? &*sampler : nullptr, dumps_before);
  if (observer != nullptr) {
    fold_run_metrics(*observer, form, done, res, session, server, tb);
  }
  if (!done) return std::nullopt;
  return ScenarioRunStats{to_seconds(res.duration), res.transactions,
                          res.upload_bytes, res.download_bytes};
}

}  // namespace

std::optional<double> run_quic_page_load(const Scenario& scenario,
                                         const Workload& page,
                                         const CompareOptions& opts,
                                         quic::TokenCache& tokens,
                                         const RunObserver* observer) {
  const auto run =
      run_once<Protocol::kQuic>(scenario, workload::page_spec(page),
                                RunForm::kPage, opts, &tokens, observer);
  if (!run) return std::nullopt;
  return run->duration_s;
}

std::optional<double> run_tcp_page_load(const Scenario& scenario,
                                        const Workload& page,
                                        const CompareOptions& opts,
                                        const RunObserver* observer) {
  const auto run =
      run_once<Protocol::kTcp>(scenario, workload::page_spec(page),
                               RunForm::kPage, opts, nullptr, observer);
  if (!run) return std::nullopt;
  return run->duration_s;
}

std::optional<ScenarioRunStats> run_quic_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, quic::TokenCache& tokens,
    const RunObserver* observer) {
  return run_once<Protocol::kQuic>(scenario, spec, RunForm::kScenario, opts,
                                   &tokens, observer);
}

std::optional<ScenarioRunStats> run_tcp_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, const RunObserver* observer) {
  return run_once<Protocol::kTcp>(scenario, spec, RunForm::kScenario, opts,
                                  nullptr, observer);
}

namespace {

// Cell ids are assigned at submission time. Submissions happen serially on
// the calling thread regardless of LL_JOBS, so the id — and therefore every
// artifact file name — is identical for any worker count.
std::atomic<std::uint64_t> g_cell_counter{0};

std::string sanitize_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

// Trace artifacts land in opts.trace_dir, or $LL_TRACE_OUT when that is
// empty; both empty == tracing disabled.
std::string trace_directory(const CompareOptions& opts) {
  if (!opts.trace_dir.empty()) return opts.trace_dir;
  const char* env = std::getenv("LL_TRACE_OUT");
  return env != nullptr ? std::string(env) : std::string();
}

// One side of a paired cell.
struct Arm {
  Protocol stack = Protocol::kQuic;
  CompareOptions opts;
  std::string prefix;  // metrics key prefix, e.g. "quic."
  std::string suffix;  // trace file name suffix, e.g. "_quic"
  // A QUIC arm warms its token cache at seed scenario.seed + this offset.
  std::uint64_t warm_seed_offset = 0;
};

Arm quic_arm(const CompareOptions& opts) {
  return {Protocol::kQuic, opts, "quic.", "_quic", 7919};
}

Arm tcp_arm(const CompareOptions& opts) {
  return {Protocol::kTcp, opts, "tcp.", "_tcp", 0};
}

// Everything a cell's jobs share. The plan (scenario through label) is
// fixed at submission. The warm job fills `tokens` before any round starts
// (job-graph edge); round jobs write disjoint slots and each copies the
// settled post-warm cache, so rounds never share mutable state and the
// fold is independent of the worker count.
struct Cell {
  Scenario scenario;
  workload::ScenarioSpec spec;
  RunForm form = RunForm::kPage;
  std::array<Arm, 2> arms;
  std::string dir;    // trace artifact directory; empty == untraced
  std::string label;  // submission-ordered artifact name stem
  std::array<quic::TokenCache, 2> tokens;
  std::array<std::vector<std::optional<double>>, 2> durations;
  // Per-round metric totals, merged into CellResult::metrics in round order
  // by the commit job.
  std::vector<obs::MetricsRegistry> round_metrics;
};

std::optional<ScenarioRunStats> run_arm(const Cell& cell, const Arm& arm,
                                        const Scenario& round,
                                        quic::TokenCache& tokens,
                                        const RunObserver& observer) {
  if (arm.stack == Protocol::kQuic) {
    return run_once<Protocol::kQuic>(round, cell.spec, cell.form, arm.opts,
                                     &tokens, &observer);
  }
  return run_once<Protocol::kTcp>(round, cell.spec, cell.form, arm.opts,
                                  nullptr, &observer);
}

// Folds per-round slots into the CellResult in round order (arm a into the
// quic_* fields, arm b into the tcp_* ones; means, Welch's t-test, merged
// metrics) and ticks `progress` (may be nullptr).
void commit_cell(const Cell& cell, CellResult* out,
                 ProgressReporter* progress) {
  CellResult result;
  const auto collect = [&result](const std::vector<std::optional<double>>& in,
                                 std::vector<double>& to) {
    for (const auto& d : in) {
      if (d) to.push_back(*d); else result.all_complete = false;
    }
  };
  collect(cell.durations[0], result.quic_plt_s);
  collect(cell.durations[1], result.tcp_plt_s);
  result.quic_mean_s = stats::mean(result.quic_plt_s);
  result.tcp_mean_s = stats::mean(result.tcp_plt_s);
  const auto welch = stats::welch_t_test(result.tcp_plt_s, result.quic_plt_s);
  result.p_value = welch.p_value;
  result.significant = welch.significant();
  result.pct_diff =
      stats::percent_difference(result.tcp_mean_s, result.quic_mean_s);
  for (const obs::MetricsRegistry& m : cell.round_metrics) {
    result.metrics.merge(m);
  }
  *out = result;
  if (progress != nullptr) progress->tick();
}

// The one cell builder: a warm job filling each QUIC arm's token cache, one
// job per paired round (arm a, then arm b, on the round's seed), and a
// commit job gated on every round.
SweepRunner::Ticket submit_cell(SweepRunner& runner, const Scenario& scenario,
                                workload::ScenarioSpec spec, RunForm form,
                                Arm a, Arm b, CellResult* out,
                                ProgressReporter* progress) {
  LL_CHECK(a.opts.rounds == b.opts.rounds)
      << "cell arms disagree on rounds: " << a.opts.rounds << " vs "
      << b.opts.rounds;
  const auto rounds = static_cast<std::size_t>(a.opts.rounds);
  auto cell = std::make_shared<Cell>();
  cell->scenario = scenario;
  cell->spec = std::move(spec);
  cell->form = form;
  // Resolved now, on the submitting thread, so names don't depend on which
  // worker eventually runs the round.
  cell->dir = trace_directory(a.opts);
  if (!cell->dir.empty()) {
    cell->label = "c" + std::to_string(g_cell_counter.fetch_add(1)) + "_" +
                  sanitize_label(a.opts.trace_label.empty()
                                     ? scenario.name
                                     : a.opts.trace_label);
    std::filesystem::create_directories(cell->dir);
  }
  cell->arms = {std::move(a), std::move(b)};
  for (auto& d : cell->durations) d.resize(rounds);
  cell->round_metrics.resize(rounds);

  const SweepRunner::Ticket warm = runner.submit([cell] {
    for (std::size_t i = 0; i < cell->arms.size(); ++i) {
      const Arm& arm = cell->arms[i];
      if (arm.stack != Protocol::kQuic || !arm.opts.warm_zero_rtt) continue;
      Scenario w = cell->scenario;
      w.seed += arm.warm_seed_offset;
      (void)run_quic_page_load(w, {1, 1024}, arm.opts, cell->tokens[i]);
    }
  });
  std::vector<SweepRunner::Ticket> round_jobs;
  round_jobs.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    round_jobs.push_back(runner.submit(
        [cell, r] {
          // Same network, per-round derived seed; both arms see identical
          // network randomness.
          Scenario round = cell->scenario;
          round.seed += r * 1000003;
          for (std::size_t i = 0; i < cell->arms.size(); ++i) {
            const Arm& arm = cell->arms[i];
            quic::TokenCache tokens = cell->tokens[i];
            obs::JsonLinesSink sink;
            const RunObserver observer{cell->dir.empty() ? nullptr : &sink,
                                       &cell->round_metrics[r], arm.prefix};
            if (const auto run = run_arm(*cell, arm, round, tokens, observer)) {
              cell->durations[i][r] = run->duration_s;
            }
            if (observer.trace != nullptr) {
              LL_CHECK(sink.write_file(cell->dir + "/" + cell->label + "_r" +
                                       std::to_string(r) + arm.suffix +
                                       ".jsonl"));
            }
          }
        },
        {warm}));
  }
  return runner.submit(
      [cell, out, progress] { commit_cell(*cell, out, progress); },
      round_jobs);
}

// Runs one cell to completion on a private runner.
template <typename Submit>
CellResult run_cell(const Submit& submit) {
  SweepRunner runner;
  CellResult out;
  submit(runner, &out);
  runner.wait_all();
  return out;
}

}  // namespace

SweepRunner::Ticket compare_plt_async(SweepRunner& runner,
                                      const Scenario& scenario,
                                      const Workload& page,
                                      const CompareOptions& opts,
                                      CellResult* out,
                                      ProgressReporter* progress) {
  return submit_cell(runner, scenario, workload::page_spec(page),
                     RunForm::kPage, quic_arm(opts), tcp_arm(opts), out,
                     progress);
}

SweepRunner::Ticket compare_quic_pair_async(SweepRunner& runner,
                                            const Scenario& scenario,
                                            const Workload& page,
                                            const CompareOptions& a_opts,
                                            const CompareOptions& b_opts,
                                            CellResult* out,
                                            ProgressReporter* progress) {
  return submit_cell(runner, scenario, workload::page_spec(page),
                     RunForm::kPage,
                     {Protocol::kQuic, a_opts, "quic_a.", "_a", 7919},
                     {Protocol::kQuic, b_opts, "quic_b.", "_b", 104729}, out,
                     progress);
}

SweepRunner::Ticket compare_scenario_async(
    SweepRunner& runner, const Scenario& scenario,
    const workload::ScenarioSpec& spec, const CompareOptions& opts,
    CellResult* out, ProgressReporter* progress) {
  return submit_cell(runner, scenario, spec, RunForm::kScenario,
                     quic_arm(opts), tcp_arm(opts), out, progress);
}

std::vector<std::vector<CellResult>> run_plt_grid(
    SweepRunner& runner, const std::vector<Scenario>& rows,
    const std::vector<Workload>& cols, const CompareOptions& opts,
    ProgressReporter* progress) {
  std::vector<std::vector<CellResult>> grid(rows.size(),
                                            std::vector<CellResult>(cols.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      compare_plt_async(runner, rows[r], cols[c], opts, &grid[r][c], progress);
    }
  }
  runner.wait_all();
  return grid;
}

CellResult compare_plt(const Scenario& scenario, const Workload& workload,
                       const CompareOptions& opts) {
  return run_cell([&](SweepRunner& runner, CellResult* out) {
    compare_plt_async(runner, scenario, workload, opts, out);
  });
}

CellResult compare_quic_pair(const Scenario& scenario,
                             const Workload& workload,
                             const CompareOptions& a_opts,
                             const CompareOptions& b_opts) {
  return run_cell([&](SweepRunner& runner, CellResult* out) {
    compare_quic_pair_async(runner, scenario, workload, a_opts, b_opts, out);
  });
}

CellResult compare_scenario(const Scenario& scenario,
                            const workload::ScenarioSpec& spec,
                            const CompareOptions& opts) {
  return run_cell([&](SweepRunner& runner, CellResult* out) {
    compare_scenario_async(runner, scenario, spec, opts, out);
  });
}

}  // namespace longlook::harness
