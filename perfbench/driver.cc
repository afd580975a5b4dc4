// longlook_bench: the testbed benchmark driver.
//
//   longlook_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <file>]
//
// The unit of work is a round: one QUIC run followed by one TCP run on the
// same generated harness::Scenario, each starting from a copy of a token
// cache warmed once during set-up — the paper's paired methodology. Rounds
// run one at a time on a harness::SweepRunner until --seconds have passed.
//
// --trace 0 measures the end-to-end metrics with the profiler off. --trace 1
// runs the same rounds twice, untraced and then traced (obs::Profiler plus
// link taps), checks that both runs agree on every round's deterministic
// digest, and replays the captured packets through each layer (replay.h).
//
// Prints one JSON object on stdout; perfbench/run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/perf.h"
#include "harness/runner.h"
#include "obs/profiler.h"
#include "replay.h"
#include "workloads.h"

namespace longlook::perfbench {
namespace {

constexpr std::size_t kMinTimedRounds = 100;
// Set-up repetitions with --trace 0; setup_s is their median.
constexpr int kSetups = 11;

std::int64_t now_ns() { return obs::Profiler::wall_now_ns(); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

// One executed round.
struct RoundRecord {
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  double wall_ms = 0;
  double quic_ms = 0;
  double tcp_ms = 0;
  double wait_ms = 0;  // submission to start on a runner worker
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::map<std::string, std::uint64_t> counters;  // RunObserver totals
};

struct Phase {
  std::vector<RoundRecord> rounds;
  double wall_s = 0;
  double busy_s = 0;
};

// Per-round hooks for the traced phase.
struct TraceHooks {
  obs::Profiler* kept = nullptr;  // rounds whose capture is kept
  obs::Profiler* rest = nullptr;  // every later round
  std::vector<RoundCapture>* captures = nullptr;  // one slot per kept round
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::int64_t duration_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

// Transactions a run of `spec` completes: one per object for page entries
// (ScenarioSpec::total_transactions counts a page once).
std::uint64_t expected_transactions(const workload::ScenarioSpec& spec) {
  std::uint64_t n = 0;
  for (const workload::StreamSpec& s : spec.streams) {
    n += s.repeat * (s.is_page() ? s.page->object_count : 1);
  }
  return n;
}

// A run is correct when it finished and moved exactly what the spec asks.
std::string check_run(const char* stack,
                      const std::optional<harness::ScenarioRunStats>& r,
                      const workload::ScenarioSpec& spec) {
  if (!r) return std::string(stack) + " timed out";
  if (r->transactions != expected_transactions(spec) ||
      r->upload_bytes != spec.total_upload_bytes() ||
      r->download_bytes != spec.total_download_bytes()) {
    return std::string(stack) + " totals differ from the spec";
  }
  return {};
}

// One paired round: QUIC then TCP on the same scenario and seed. With a
// capture, both runs are tapped and fold into `profiler`.
void run_round(const RoundInput& in, const harness::CompareOptions& base,
               const quic::TokenCache& warm, obs::Profiler* profiler,
               RoundCapture* capture, RoundRecord& rec) {
  obs::MetricsRegistry metrics;
  harness::RunObserver quic_obs{nullptr, &metrics, "quic."};
  harness::RunObserver tcp_obs{nullptr, &metrics, "tcp."};
  quic::TokenCache tokens = warm;

  const harness::CompareOptions* quic_opts = &base;
  const harness::CompareOptions* tcp_opts = &base;
  harness::CompareOptions traced_quic;
  harness::CompareOptions traced_tcp;
  if (capture != nullptr) {
    capture->scenario = in.scenario;
    capture->upload_bytes = in.spec.total_upload_bytes();
    capture->download_bytes = in.spec.total_download_bytes();
    traced_quic = base;
    traced_quic.profiler = profiler;
    traced_tcp = traced_quic;
    traced_quic.setup = [capture](harness::Testbed& tb) {
      return install_taps(tb, capture->quic);
    };
    traced_tcp.setup = [capture](harness::Testbed& tb) {
      return install_taps(tb, capture->tcp);
    };
    quic_opts = &traced_quic;
    tcp_opts = &traced_tcp;
  }

  const std::int64_t t0 = now_ns();
  const auto q = harness::run_quic_scenario(in.scenario, in.spec, *quic_opts,
                                            tokens, &quic_obs);
  const std::int64_t t1 = now_ns();
  const auto t = harness::run_tcp_scenario(in.scenario, in.spec, *tcp_opts,
                                           &tcp_obs);
  const std::int64_t t2 = now_ns();

  rec.start_ns = t0;
  rec.end_ns = t2;
  rec.quic_ms = static_cast<double>(t1 - t0) / 1e6;
  rec.tcp_ms = static_cast<double>(t2 - t1) / 1e6;
  rec.wall_ms = static_cast<double>(t2 - t0) / 1e6;
  rec.error = check_run("quic", q, in.spec);
  if (rec.error.empty()) rec.error = check_run("tcp", t, in.spec);
  rec.ok = rec.error.empty();
  rec.counters = metrics.counters();

  // Deterministic digest: virtual durations in ns plus every transport
  // counter of both stacks.
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, "quic_ns=" + std::to_string(q ? duration_ns(q->duration_s) : -1));
  h = fnv1a(h, ";tcp_ns=" + std::to_string(t ? duration_ns(t->duration_s) : -1));
  for (const auto& [key, value] : rec.counters) {
    h = fnv1a(h, ";" + key + "=" + std::to_string(value));
  }
  rec.digest = h;
}

// Runs rounds one at a time on the runner and appends them to `phase`,
// continuing its schedule: round i runs pool[i % pool.size()]. Stops once
// `seconds` have passed and the phase holds at least `min_rounds` rounds, or
// once it holds exactly `exact_rounds` when that is non-zero.
void run_phase(Phase& phase, harness::SweepRunner& runner,
               const std::vector<RoundInput>& pool,
               const harness::CompareOptions& opts,
               const quic::TokenCache& warm, double seconds,
               std::size_t min_rounds, std::size_t exact_rounds,
               const TraceHooks* hooks) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + duration_ns(seconds);
  for (std::size_t i = phase.rounds.size();
       exact_rounds != 0 ? i < exact_rounds
                         : i < min_rounds || now_ns() < deadline;
       ++i) {
    RoundRecord& rec = phase.rounds.emplace_back();
    const std::int64_t submitted = now_ns();
    runner.submit([&, i, submitted] {
      rec.wait_ms = static_cast<double>(now_ns() - submitted) / 1e6;
      obs::Profiler* profiler = nullptr;
      std::optional<RoundCapture> discarded;  // freed before the next round
      RoundCapture* capture = nullptr;
      if (hooks != nullptr) {
        // Every traced round taps its links; only the first few keep the
        // capture for the replay, so the cost of tracing is uniform.
        const bool kept = i < hooks->captures->size();
        profiler = kept ? hooks->kept : hooks->rest;
        capture = kept ? &(*hooks->captures)[i] : &discarded.emplace();
        capture->round = i;
      }
      run_round(pool[i % pool.size()], opts, warm, profiler, capture, rec);
    });
    runner.wait_all();
    phase.busy_s += rec.wall_ms / 1e3;
  }
  phase.wall_s += static_cast<double>(now_ns() - start) / 1e9;
}

template <typename F>
std::vector<double> column(const Phase& p, F&& get) {
  std::vector<double> out;
  for (const RoundRecord& r : p.rounds) out.push_back(get(r));
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- JSON output -----------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ",";
    out += quoted(m.name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + quoted(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

// --- Set-up ----------------------------------------------------------------

struct Setup {
  std::vector<RoundInput> pool;
  quic::TokenCache warm;
  double parse_us = 0;  // mean parse_scenario time per pool string
  std::string error;
};

// Input generation, DSL parse, the 0-RTT warm fetch and the warm-up rounds.
Setup set_up(const WorkloadDef& def, std::uint64_t seed,
             harness::SweepRunner& runner,
             const harness::CompareOptions& opts) {
  Setup s;
  s.pool = generate_pool(def, seed);
  const std::int64_t t0 = now_ns();
  if (!parse_inputs(s.pool)) {
    s.error = "scenario DSL rejected";
    return s;
  }
  s.parse_us = static_cast<double>(now_ns() - t0) / 1e3 /
               static_cast<double>(s.pool.size());

  std::vector<RoundInput> warm_fetch{warm_fetch_input(def, seed)};
  std::vector<RoundInput> warm_up;
  for (std::size_t k = 0; k < def.warmup_rounds; ++k) {
    warm_up.push_back(warmup_round(def, seed, k));
  }
  if (!parse_inputs(warm_fetch) || !parse_inputs(warm_up)) {
    s.error = "scenario DSL rejected";
    return s;
  }
  const RoundInput& w = warm_fetch.front();
  if (!harness::run_quic_scenario(w.scenario, w.spec, opts, s.warm)) {
    s.error = "0-RTT warm fetch timed out";
    return s;
  }
  Phase p;
  run_phase(p, runner, warm_up, opts, s.warm, 0, 0, warm_up.size(), nullptr);
  for (const RoundRecord& r : p.rounds) {
    if (!r.ok) s.error = "warm-up round failed: " + r.error;
  }
  return s;
}

// --- Metrics ---------------------------------------------------------------

std::vector<Metric> end_to_end(const Phase& p, const std::vector<double>& setups) {
  const std::vector<double> wall = column(p, [](const RoundRecord& r) {
    return r.wall_ms;
  });
  std::size_t completed = 0;
  for (const RoundRecord& r : p.rounds) completed += r.ok;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", quantile(setups, 0.5), "s", setups.size()},
      {"rounds_per_s", ratio(static_cast<double>(completed), p.wall_s), "1/s",
       p.rounds.size()},
      {"round_ms_p50", quantile(wall, 0.5), "ms", wall.size()},
      {"round_ms_p90", quantile(wall, 0.9), "ms", wall.size()},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1},
  };
}

std::uint64_t sum_counters(const Phase& p, std::size_t rounds,
                           std::initializer_list<const char*> keys) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rounds && i < p.rounds.size(); ++i) {
    for (const char* k : keys) {
      auto it = p.rounds[i].counters.find(k);
      if (it != p.rounds[i].counters.end()) total += it->second;
    }
  }
  return total;
}

// Per-layer metrics of the traced run. Counts are per round over the kept
// rounds (a fixed prefix of the schedule, so they are deterministic); times
// come from the replay of the same rounds.
std::vector<Metric> per_layer(const Phase& untraced, const Phase& traced,
                              const obs::ProfilerSnapshot& kept,
                              const obs::ProfilerSnapshot& rest,
                              const std::vector<RoundCapture>& caps,
                              const ReplayTotals& rt, double parse_us) {
  const std::size_t c = caps.size();
  const double n = static_cast<double>(c);
  const auto per_round = [&](std::initializer_list<const char*> keys) {
    return static_cast<double>(sum_counters(traced, c, keys)) / n;
  };
  const auto prof = [&](const char* key) {
    return static_cast<double>(kept.counter(key)) / n;
  };
  const auto per_op = [&](Layer l) {
    return ratio(static_cast<double>(rt.ns[l]), static_cast<double>(rt.ops[l]));
  };
  const auto ops = [&](Layer l) { return static_cast<std::size_t>(rt.ops[l]); };
  // A layer's share: its replay time over the traced round's wall time,
  // median over the kept rounds (the typical round, not the largest).
  const auto share = [&](std::initializer_list<Layer> layers) {
    std::vector<double> v;
    for (std::size_t i = 0; i < rt.round_ns.size(); ++i) {
      double ns = 0;
      for (Layer l : layers) ns += static_cast<double>(rt.round_ns[i][l]);
      v.push_back(ratio(ns, traced.rounds[i].wall_ms * 1e6));
    }
    return quantile(v, 0.5);
  };
  double traced_s = 0;
  for (const RoundRecord& r : traced.rounds) traced_s += r.wall_ms / 1e3;
  double spec_bytes = 0;
  for (const RoundCapture& rc : caps) {
    spec_bytes += static_cast<double>(rc.upload_bytes + rc.download_bytes);
  }
  const double quic_sent =
      per_round({"quic.packets_sent", "quic.server_packets_sent"});
  const double quic_lost =
      per_round({"quic.packets_declared_lost", "quic.server_declared_lost"});
  const double tcp_sent =
      per_round({"tcp.segments_sent", "tcp.server_segments_sent"});
  const auto ms = [](const RoundRecord& r) { return r.wall_ms; };
  const std::size_t all = traced.rounds.size();

  return {
      {"sim.events", prof("sim_events"), "count", c},
      {"sim.timer_ops", prof("timer_ops"), "count", c},
      {"sim.event_pool_slots", prof("sim_event_pool_slots"), "count", c},
      {"sim.events_per_s",
       ratio(static_cast<double>(kept.counter("sim_events") +
                                 rest.counter("sim_events")),
             traced_s),
       "1/s", all},
      {"sim.ns_per_event", per_op(kSim), "ns", ops(kSim)},
      {"sim.share", share({kSim}), "ratio", c},
      {"net.packets", prof("packets_forwarded"), "count", c},
      {"net.drops",
       per_round({"quic.link_drops_queue", "quic.link_drops_random",
                  "tcp.link_drops_queue", "tcp.link_drops_random"}),
       "count", c},
      {"net.reordered",
       per_round({"quic.link_reordered", "tcp.link_reordered"}), "count", c},
      {"net.ns_per_packet", per_op(kLink), "ns", ops(kLink)},
      {"net.share", share({kLink}), "ratio", c},
      {"quic.packets_sent", quic_sent, "count", c},
      {"quic.codec.ns_per_packet", per_op(kQuicCodec), "ns", ops(kQuicCodec)},
      {"quic.codec.share", share({kQuicCodec}), "ratio", c},
      {"quic.recovery.ns_per_send", per_op(kRecoverySend), "ns",
       ops(kRecoverySend)},
      {"quic.recovery.ns_per_ack", per_op(kRecoveryAck), "ns",
       ops(kRecoveryAck)},
      {"quic.recovery.window_pkts_p50", quantile(rt.window_pkts_p50, 0.5),
       "count", c},
      {"quic.recovery.window_pkts_max",
       static_cast<double>(rt.window_pkts_max), "count", c},
      {"quic.recovery.share", share({kRecoverySend, kRecoveryAck}), "ratio", c},
      {"quic.ackmgr.ns_per_packet", per_op(kAckManager), "ns",
       ops(kAckManager)},
      {"quic.ackmgr.ranges_p50", quantile(rt.ack_ranges_p50, 0.5), "count", c},
      {"quic.ackmgr.share", share({kAckManager}), "ratio", c},
      {"quic.retx_ratio", ratio(quic_lost, quic_sent), "ratio", c},
      {"quic.spurious_ratio",
       ratio(per_round({"quic.spurious_losses", "quic.server_spurious_losses"}),
             quic_lost),
       "ratio", c},
      {"quic.goodput_ratio",
       ratio(spec_bytes, static_cast<double>(rt.quic_wire_bytes)), "ratio", c},
      {"tcp.segments_sent", tcp_sent, "count", c},
      {"tcp.codec.ns_per_segment", per_op(kTcpCodec), "ns", ops(kTcpCodec)},
      {"tcp.codec.share", share({kTcpCodec}), "ratio", c},
      {"tcp.retx_ratio",
       ratio(per_round({"tcp.retransmitted_segments",
                        "tcp.server_retransmitted"}),
             tcp_sent),
       "ratio", c},
      {"tcp.dsack_events",
       per_round({"tcp.dsack_events", "tcp.server_dsack_events"}), "count", c},
      {"cc.ns_per_event", per_op(kCongestionControl), "ns",
       ops(kCongestionControl)},
      {"cc.share", share({kCongestionControl}), "ratio", c},
      {"http.h2.ns_per_kb",
       ratio(static_cast<double>(rt.ns[kH2]),
             static_cast<double>(rt.h2_bytes) / 1024.0),
       "ns/KB", c},
      {"http.h2.share", share({kH2}), "ratio", c},
      {"workload.parse_us", parse_us, "us", 1},
      {"harness.quic_run_ms_p50",
       quantile(column(traced, [](const RoundRecord& r) { return r.quic_ms; }),
                0.5),
       "ms", all},
      {"harness.tcp_run_ms_p50",
       quantile(column(traced, [](const RoundRecord& r) { return r.tcp_ms; }),
                0.5),
       "ms", all},
      {"harness.testbed_us", per_op(kTestbed) / 1e3, "us", ops(kTestbed)},
      {"harness.runner_wait_ms_p50",
       quantile(column(traced, [](const RoundRecord& r) { return r.wait_ms; }),
                0.5),
       "ms", all},
      {"harness.worker_busy_frac",
       ratio(traced.busy_s, traced.wall_s), "ratio", all},
      {"obs.trace_overhead_frac",
       ratio(quantile(column(traced, ms), 0.5),
             quantile(column(untraced, ms), 0.5)) - 1,
       "ratio", all},
  };
}

void write_spans(const std::string& path, const Phase& traced,
                 const std::vector<Span>& replay) {
  if (path.empty()) return;
  std::vector<Span> spans;
  for (std::size_t i = 0; i < traced.rounds.size(); ++i) {
    const RoundRecord& r = traced.rounds[i];
    const auto split = r.start_ns + static_cast<std::int64_t>(r.quic_ms * 1e6);
    spans.push_back({i, "round", "", r.start_ns, r.end_ns});
    spans.push_back({i, "run:quic", "round", r.start_ns, split});
    spans.push_back({i, "run:tcp", "round", split, r.end_ns});
  }
  spans.insert(spans.end(), replay.begin(), replay.end());
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"round\":" << s.round << ",\"name\":" << quoted(s.name)
        << ",\"parent\":" << quoted(s.parent) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

// --- main ------------------------------------------------------------------

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = v;
    } else if (key == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--spans-out") {
      o.spans_out = v;
    } else {
      std::fprintf(stderr, "longlook_bench: unknown option %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "longlook_bench: bad value %s for %s\n", v,
                   key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "longlook_bench: option %s needs a value\n",
                 argv[argc - 1]);
    return false;
  }
  return o.seconds > 0;
}

int run(const Options& o) {
  const std::int64_t process_start = now_ns();
  const WorkloadDef* def = find_workload(o.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "longlook_bench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  // One round at a time; see the note on workers in workloads.cc.
  harness::SweepRunner runner(1);
  const harness::CompareOptions opts;  // untraced, profiler off

  // Untraced timed phase (the whole run with --trace 0, half with --trace 1).
  // It runs at least the rounds the digest pins and the replay keeps, and
  // with --trace 0 at least kMinTimedRounds, so that ten or more samples lie
  // beyond round_ms_p90.
  //
  // With --trace 0 the phase is cut into kSetups equal segments and set-up
  // runs again before each one, so that setup_s samples the machine over the
  // whole run rather than its first second. The first set-up counts from
  // process start. Every set-up builds the same pool and token cache, and the
  // segments continue one schedule, so the rounds are those of one phase.
  std::size_t min_rounds = std::max(def->digest_rounds, def->capture_rounds);
  if (!o.trace) min_rounds = std::max(min_rounds, kMinTimedRounds);
  const int segments = o.trace ? 1 : kSetups;
  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> setups;
  Setup setup;
  Phase untraced;
  for (int k = 0; k < segments; ++k) {
    const std::int64_t t0 = k == 0 ? process_start : now_ns();
    setup = set_up(*def, o.seed, runner, opts);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!setup.error.empty()) {
      std::fprintf(stderr, "longlook_bench: set-up failed: %s\n",
                   setup.error.c_str());
      return 1;
    }
    run_phase(untraced, runner, setup.pool, opts, setup.warm,
              phase_s / segments, k + 1 == segments ? min_rounds : 0, 0,
              nullptr);
  }

  std::vector<Metric> metrics;
  Phase traced;
  bool trace_matches = true;
  ReplayTotals replay;
  std::size_t replay_failed = 0;  // kept rounds whose codec or h2 replay failed
  if (!o.trace) {
    metrics = end_to_end(untraced, setups);
  } else {
    // Traced phase over exactly the same rounds.
    obs::Profiler kept;
    obs::Profiler rest;
    std::vector<RoundCapture> captures(def->capture_rounds);
    TraceHooks hooks{&kept, &rest, &captures};
    runner.set_profiler(&rest);
    run_phase(traced, runner, setup.pool, opts, setup.warm, 0, 0,
              untraced.rounds.size(), &hooks);
    runner.set_profiler(nullptr);
    for (std::size_t i = 0; i < traced.rounds.size(); ++i) {
      trace_matches = trace_matches &&
                      traced.rounds[i].digest == untraced.rounds[i].digest;
    }
    std::vector<Span> spans;
    for (const RoundCapture& rc : captures) {
      const auto mismatches = [&replay] {
        return replay.quic_codec_mismatches + replay.tcp_codec_mismatches +
               replay.h2_mismatches;
      };
      const std::uint64_t before = mismatches();
      replay_round(rc, replay, spans);
      if (mismatches() != before) ++replay_failed;
    }
    metrics = per_layer(untraced, traced, kept.snapshot(), rest.snapshot(),
                        captures, replay, setup.parse_us);
    write_spans(o.spans_out, traced, spans);
  }

  // Failures: rounds of either phase that timed out or moved the wrong
  // totals, plus replayed rounds whose codec or h2 check failed.
  const std::size_t attempted = untraced.rounds.size() + traced.rounds.size();
  std::size_t failed = replay_failed;
  std::vector<std::string> errors;
  for (const Phase* p : std::initializer_list<const Phase*>{&untraced, &traced}) {
    for (const RoundRecord& r : p->rounds) {
      if (r.ok) continue;
      ++failed;
      if (errors.size() < 5) errors.push_back(r.error);
    }
  }
  if (replay_failed > 0) errors.push_back("replay: codec or h2 mismatch");

  std::string digests = "[";
  for (std::size_t i = 0; i < def->digest_rounds; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(untraced.rounds[i].digest));
    digests += (i > 0 ? "," : "") + std::string(buf);
  }
  digests += "]";
  // Fingerprint of the generated round mix (the seed's inputs).
  std::uint64_t mix = 0xcbf29ce484222325ull;
  for (const RoundInput& in : setup.pool) {
    mix = fnv1a(mix, in.dsl + "@" + std::to_string(in.scenario.seed));
  }
  std::string error_list = "[";
  for (const std::string& e : errors) {
    error_list += (error_list.size() > 1 ? "," : "") + quoted(e);
  }
  error_list += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"attempted\":%zu,"
      "\"failed\":%zu,\"codec_mismatches\":%llu,\"errors\":%s,"
      "\"trace_matches_untraced\":%s,"
      "\"digests\":%s,\"mix\":\"%016llx\",\"metrics\":%s}\n",
      quoted(def->name).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, attempted, failed,
      static_cast<unsigned long long>(replay.quic_codec_mismatches),
      error_list.c_str(),
      trace_matches ? "true" : "false", digests.c_str(),
      static_cast<unsigned long long>(mix), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace longlook::perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Keep freed memory in the process. With glibc's defaults a
  // lossy_reorder round returns and re-faults about 17 MB of heap: 18% of
  // its wall time went to minor page faults, whose cost swings with the
  // host far more than the simulation's own.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  longlook::perfbench::Options o;
  if (!longlook::perfbench::parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: longlook_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  return longlook::perfbench::run(o);
}
