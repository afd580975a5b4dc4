// Tests for the structured-trace observability layer: JSON-lines rendering,
// metrics aggregation, the recording sink, schema conformance of real
// QUIC/TCP run artifacts, and byte-identity of traced sweeps at any worker
// count (the property the parallel sweep engine guarantees for stdout,
// extended here to trace artifacts).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "harness/compare.h"
#include "harness/perf.h"
#include "harness/runner.h"
#include "harness/testbed.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "smi/inference.h"
#include "util/check.h"

namespace longlook {
namespace {

namespace fs = std::filesystem;
using harness::CellResult;
using harness::CompareOptions;
using harness::RunObserver;
using harness::Scenario;
using harness::SweepRunner;
using harness::Workload;

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + milliseconds(ms); }

// --- JsonLinesSink -------------------------------------------------------

TEST(JsonLinesSink, RendersOneObjectPerLineInEmissionOrder) {
  obs::JsonLinesSink sink;
  sink.record(obs::TraceEvent("quic:packet_sent", at_ms(1))
                  .s("side", "client")
                  .u("pn", 7)
                  .u("bytes", 1378)
                  .b("rtxable", true));
  sink.record(obs::TraceEvent("quic:rto", at_ms(2)).i("n", -1));
  EXPECT_EQ(sink.line_count(), 2u);
  EXPECT_EQ(sink.text(),
            "{\"t\":1000000,\"ev\":\"quic:packet_sent\",\"side\":\"client\","
            "\"pn\":7,\"bytes\":1378,\"rtxable\":true}\n"
            "{\"t\":2000000,\"ev\":\"quic:rto\",\"n\":-1}\n");
}

TEST(JsonLinesSink, EscapesStrings) {
  obs::JsonLinesSink sink;
  sink.record(obs::TraceEvent("x", TimePoint{}).s("k", "a\"b\\c\nd"));
  EXPECT_EQ(sink.text(), "{\"t\":0,\"ev\":\"x\",\"k\":\"a\\\"b\\\\c\\nd\"}\n");
}

TEST(JsonLinesSink, WriteFileRoundTrips) {
  obs::JsonLinesSink sink;
  sink.record(obs::TraceEvent("e", at_ms(3)).u("v", 42));
  const std::string path =
      (fs::temp_directory_path() / "ll_obs_write_test.jsonl").string();
  ASSERT_TRUE(sink.write_file(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), sink.text());
  fs::remove(path);
}

// --- RecordingSink -------------------------------------------------------

TEST(RecordingSink, DeepCopiesFieldsForLookup) {
  obs::RecordingSink rec;
  {
    // Strings go out of scope after record(): the sink must have copied.
    std::string side = "server";
    rec.record(obs::TraceEvent("cc:state", at_ms(9))
                   .s("side", side)
                   .s("to", "Recovery")
                   .u("cwnd", 14520));
  }
  ASSERT_EQ(rec.events().size(), 1u);
  const obs::StoredEvent& ev = rec.events()[0];
  EXPECT_EQ(ev.name, "cc:state");
  EXPECT_EQ(ev.at, at_ms(9));
  EXPECT_EQ(ev.str("side"), "server");
  EXPECT_EQ(ev.str("to"), "Recovery");
  EXPECT_EQ(ev.uint("cwnd"), 14520u);
  EXPECT_TRUE(ev.has("cwnd"));
  EXPECT_FALSE(ev.has("missing"));
  EXPECT_EQ(ev.str("missing"), "");
  EXPECT_EQ(ev.uint("missing"), 0u);
}

// --- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistry, MergeSumsCountersAndOverwritesGauges) {
  obs::MetricsRegistry a;
  a.incr("quic.packets_sent", 10);
  a.set_gauge("quic.final_cwnd", 100);
  obs::MetricsRegistry b;
  b.incr("quic.packets_sent", 5);
  b.incr("tcp.segments_sent", 3);
  b.set_gauge("quic.final_cwnd", 250);
  a.merge(b);
  EXPECT_EQ(a.counter("quic.packets_sent"), 15u);
  EXPECT_EQ(a.counter("tcp.segments_sent"), 3u);
  EXPECT_EQ(a.gauges().at("quic.final_cwnd"), 250);
  EXPECT_EQ(a.to_json(),
            "{\"quic.final_cwnd\":250,\"quic.packets_sent\":15,"
            "\"tcp.segments_sent\":3}");
}

TEST(MetricsRegistry, RecordToEmitsFooterEvent) {
  obs::MetricsRegistry m;
  m.incr("runs");
  obs::RecordingSink rec;
  m.record_to(rec, at_ms(50));
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "run:metrics");
  EXPECT_EQ(rec.events()[0].uint("runs"), 1u);
}

// --- Schema conformance of real run artifacts ----------------------------

// Minimal structural check for one JSON line: object braces, a leading
// integer "t", a string "ev", and sane quoting. (Not a full JSON parser —
// the writer only ever emits flat objects of integers/bools/strings.)
void expect_schema_line(const std::string& line) {
  ASSERT_GE(line.size(), 2u) << line;
  EXPECT_EQ(line.front(), '{') << line;
  EXPECT_EQ(line.back(), '}') << line;
  EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
  EXPECT_NE(line.find(",\"ev\":\""), std::string::npos) << line;
  std::size_t quotes = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0u) << line;
}

std::string event_name(const std::string& line) {
  const std::size_t start = line.find(",\"ev\":\"");
  if (start == std::string::npos) return "";
  const std::size_t lo = start + 7;
  return line.substr(lo, line.find('"', lo) - lo);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

Scenario lossy_scenario() {
  Scenario s;
  s.name = "obs-golden";
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.01;
  s.seed = 42;
  return s;
}

TEST(TraceSchema, QuicRunEmitsDocumentedEventsAndIsDeterministic) {
  const Workload workload{4, 128 * 1024};
  const CompareOptions opts;
  Scenario scenario = lossy_scenario();
  scenario.loss_rate = 0.03;  // enough transfer + loss to exercise recovery
  std::string first_text;
  for (int rep = 0; rep < 2; ++rep) {
    obs::JsonLinesSink sink;
    obs::MetricsRegistry metrics;
    RunObserver observer{&sink, &metrics, "quic."};
    quic::TokenCache tokens;
    const auto plt =
        run_quic_page_load(scenario, workload, opts, tokens, &observer);
    ASSERT_TRUE(plt.has_value());
    const std::vector<std::string> lines = split_lines(sink.text());
    ASSERT_GT(lines.size(), 10u);
    std::set<std::string> names;
    for (const std::string& line : lines) {
      expect_schema_line(line);
      names.insert(event_name(line));
    }
    // The lifecycle events a QUIC page load must produce.
    EXPECT_EQ(event_name(lines.front()), "run:start");
    EXPECT_EQ(event_name(lines.back()), "run:metrics");
    for (const char* required :
         {"quic:handshake", "quic:established", "quic:stream_opened",
          "quic:packet_sent", "quic:packet_received", "quic:ack_processed",
          "quic:stream_fin", "run:summary"}) {
      EXPECT_TRUE(names.count(required)) << "missing event: " << required;
    }
    // 1% loss at this size: losses occur and the sender reacts.
    EXPECT_TRUE(names.count("quic:packet_lost") ||
                names.count("quic:rto") || names.count("quic:tlp"));
    EXPECT_GT(metrics.counter("quic.packets_sent"), 0u);
    EXPECT_EQ(metrics.counter("quic.runs"), 1u);
    // Virtual time + integer fields: the artifact is byte-stable.
    if (rep == 0) first_text = sink.text();
    else EXPECT_EQ(sink.text(), first_text);
  }
}

TEST(TraceSchema, TcpRunEmitsDocumentedEvents) {
  const Workload workload{2, 64 * 1024};
  const CompareOptions opts;
  obs::JsonLinesSink sink;
  obs::MetricsRegistry metrics;
  RunObserver observer{&sink, &metrics, "tcp."};
  const auto plt =
      run_tcp_page_load(lossy_scenario(), workload, opts, &observer);
  ASSERT_TRUE(plt.has_value());
  std::set<std::string> names;
  const std::vector<std::string> lines = split_lines(sink.text());
  for (const std::string& line : lines) {
    expect_schema_line(line);
    names.insert(event_name(line));
  }
  EXPECT_EQ(event_name(lines.front()), "run:start");
  for (const char* required :
       {"tcp:established", "tcp:segment_sent", "tcp:segment_received",
        "run:summary", "run:metrics"}) {
    EXPECT_TRUE(names.count(required)) << "missing event: " << required;
  }
  EXPECT_GT(metrics.counter("tcp.segments_sent"), 0u);
}

TEST(TraceSchema, CcStateEventsFeedSmiInference) {
  const Workload workload{1, 512 * 1024};
  smi::StateRecorder rec("cc:state");
  CompareOptions opts;
  opts.quic.trace = &rec;
  Scenario s = lossy_scenario();
  s.loss_rate = 0.02;
  harness::SingleRun<harness::Protocol::kQuic> run(s, workload, opts);
  ASSERT_TRUE(run.finish().has_value());
  const smi::Trace trace = rec.trace(TimePoint{}, run.testbed().sim().now());
  ASSERT_GE(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].state, "Init");
  smi::StateMachineInference inf;
  inf.add_trace(trace);
  EXPECT_GT(inf.visits("SlowStart"), 0u);
}

// --- One run path: page form vs scenario form -----------------------------

// run:start lines captured from the separate page-load and scenario runners
// before they were folded into one; the shared runner must reproduce both
// byte for byte.
constexpr std::string_view kGoldenPageStart =
    R"({"t":0,"ev":"run:start","v":3,"proto":"quic","scenario":"obs-golden",)"
    R"("seed":42,"objects":4,"object_bytes":131072})";
constexpr std::string_view kGoldenScenarioStart =
    R"({"t":0,"ev":"run:start","v":3,"proto":"quic","scenario":"obs-golden",)"
    R"("seed":42,"objects":1,"object_bytes":524288,)"
    R"("perf_scenario":"*1:0:-:page=4x131072;"})";

TEST(OneRunPath, PageAndScenarioFormsDifferOnlyInWhatTheyRecord) {
  const CompareOptions opts;
  obs::JsonLinesSink page_sink;
  obs::JsonLinesSink scn_sink;
  obs::MetricsRegistry page_metrics;
  obs::MetricsRegistry scn_metrics;
  const RunObserver page_obs{&page_sink, &page_metrics, "quic."};
  const RunObserver scn_obs{&scn_sink, &scn_metrics, "quic."};
  quic::TokenCache page_tokens;
  quic::TokenCache scn_tokens;
  const auto plt = run_quic_page_load(lossy_scenario(), {4, 131072}, opts,
                                      page_tokens, &page_obs);
  const workload::ParseResult spec =
      workload::parse_scenario("*1:0:-:page=4x131072;");
  ASSERT_TRUE(spec.ok()) << spec.error;
  const auto scn = run_quic_scenario(lossy_scenario(), *spec.spec, opts,
                                     scn_tokens, &scn_obs);
  ASSERT_TRUE(plt.has_value());
  ASSERT_TRUE(scn.has_value());
  EXPECT_EQ(*plt, scn->duration_s);
  EXPECT_GT(page_metrics.counter("quic.server_declared_lost"), 0u);

  // Same counters, except the scenario form's scn_* totals.
  std::map<std::string, std::uint64_t> scn_counters;
  for (const auto& [key, value] : scn_metrics.counters()) {
    if (key.rfind("quic.scn_", 0) != 0) scn_counters[key] = value;
  }
  EXPECT_EQ(page_metrics.counters(), scn_counters);
  EXPECT_EQ(scn_metrics.counter("quic.scn_transactions"), 4u);
  EXPECT_EQ(scn_metrics.counter("quic.scn_download_bytes"), 4u * 131072);

  // Same trace between the run:start header and the run:metrics footer.
  const std::vector<std::string> page_lines = split_lines(page_sink.text());
  const std::vector<std::string> scn_lines = split_lines(scn_sink.text());
  ASSERT_EQ(page_lines.size(), scn_lines.size());
  EXPECT_EQ(page_lines.front(), kGoldenPageStart);
  EXPECT_EQ(scn_lines.front(), kGoldenScenarioStart);
  for (std::size_t i = 1; i + 1 < page_lines.size(); ++i) {
    EXPECT_EQ(page_lines[i], scn_lines[i]) << "trace line " << i;
  }

  // A page cell records no scenario totals.
  CompareOptions cell_opts;
  cell_opts.rounds = 2;
  const CellResult cell = compare_plt(lossy_scenario(), {4, 131072}, cell_opts);
  EXPECT_EQ(cell.metrics.counter("quic.runs"), 2u);
  EXPECT_EQ(cell.metrics.to_json().find("scn_"), std::string::npos);
}

// --- Sweep artifacts: byte-identical at any LL_JOBS ----------------------

// File names carry a process-wide submission-order cell id ("c<N>_"). Two
// runners in the same test process keep counting (c0..., c1...), whereas two
// bench processes both start at c0 — so here the id prefix is stripped
// before comparing. The CI bench-smoke step diffs full names across
// processes.
std::map<std::string, std::string> slurp_artifacts(const std::string& dir) {
  std::map<std::string, std::string> by_name;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.size() > 1 && name[0] == 'c') {
      std::size_t i = 1;
      while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) ++i;
      if (i < name.size() && name[i] == '_') name = name.substr(i + 1);
    }
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    by_name[name] = ss.str();
  }
  return by_name;
}

TEST(TraceSweep, ArtifactsAndMetricsByteIdenticalSerialVsParallel) {
  const std::string base =
      (fs::temp_directory_path() / "ll_obs_sweep_test").string();
  const std::string serial_dir = base + "/serial";
  const std::string parallel_dir = base + "/parallel";
  fs::remove_all(base);

  Scenario s = lossy_scenario();
  s.name = "sweep-identity";
  const Workload workload{1, 32 * 1024};

  CellResult serial_cell;
  {
    CompareOptions opts;
    opts.rounds = 4;
    opts.trace_dir = serial_dir;
    SweepRunner runner(1);
    compare_plt_async(runner, s, workload, opts, &serial_cell);
    runner.wait_all();
  }
  CellResult parallel_cell;
  {
    CompareOptions opts;
    opts.rounds = 4;
    opts.trace_dir = parallel_dir;
    SweepRunner runner(8);
    compare_plt_async(runner, s, workload, opts, &parallel_cell);
    runner.wait_all();
  }

  const auto serial_files = slurp_artifacts(serial_dir);
  const auto parallel_files = slurp_artifacts(parallel_dir);
  EXPECT_EQ(serial_files.size(), 8u);  // 4 rounds x {quic, tcp}
  ASSERT_EQ(serial_files.size(), parallel_files.size());
  for (const auto& [name, content] : serial_files) {
    auto it = parallel_files.find(name);
    ASSERT_NE(it, parallel_files.end()) << "missing artifact: " << name;
    EXPECT_EQ(content, it->second) << "artifact differs: " << name;
  }
  EXPECT_EQ(serial_cell.metrics.to_json(), parallel_cell.metrics.to_json());
  EXPECT_FALSE(serial_cell.metrics.empty());
  EXPECT_EQ(serial_cell.metrics.counter("quic.runs"), 4u);
  EXPECT_EQ(serial_cell.metrics.counter("tcp.runs"), 4u);
  fs::remove_all(base);
}

// --- StateSampler (schema v3 `ts:` records) ------------------------------

class FakeConn : public obs::Sampleable {
 public:
  FakeConn(std::string_view proto, std::string_view side, std::uint64_t id)
      : proto_(proto), side_(side), id_(id) {}
  void sample_state(obs::ConnSample& out) const override { out = state_; }
  std::string_view sample_proto() const override { return proto_; }
  std::string_view sample_side() const override { return side_; }
  std::uint64_t sample_flow_id() const override { return id_; }
  obs::ConnSample state_;

 private:
  std::string proto_;
  std::string side_;
  std::uint64_t id_ = 0;
};

TEST(StateSampler, EmitsRegistrationOrderedIntegerRecords) {
  obs::JsonLinesSink sink;
  obs::StateSampler sampler(&sink);
  FakeConn conn("quic", "client", 7);
  conn.state_.cwnd_bytes = 14520;
  conn.state_.ssthresh_bytes = 1u << 20;
  conn.state_.srtt_ns = 36'000'000;
  conn.state_.rttvar_ns = 4'000'000;
  conn.state_.bytes_in_flight = 2756;
  conn.state_.pacing_bps = 625'000;
  conn.state_.delivered_bytes = 65536;
  sampler.add_connection(&conn);
  sampler.add_queue("down", [] {
    obs::QueueSample q;
    q.depth_bytes = 30720;
    q.dropped_queue = 3;
    q.delivered = 120;
    return q;
  });
  sampler.add_host("client", [] {
    obs::HostSample h;
    h.tx_packets = 40;
    h.tx_bytes = 55000;
    h.rx_packets = 40;
    return h;
  });
  sampler.sample(at_ms(10));
  EXPECT_EQ(sampler.ticks(), 1u);
  EXPECT_EQ(sampler.records_emitted(), 3u);
  EXPECT_EQ(
      sink.text(),
      "{\"t\":10000000,\"ev\":\"ts:conn\",\"proto\":\"quic\","
      "\"side\":\"client\",\"flow\":7,\"cwnd\":14520,\"ssthresh\":1048576,"
      "\"srtt_ns\":36000000,\"rttvar_ns\":4000000,\"inflight\":2756,"
      "\"pacing_bps\":625000,\"delivered\":65536}\n"
      "{\"t\":10000000,\"ev\":\"ts:queue\",\"dir\":\"down\",\"depth\":30720,"
      "\"drops_queue\":3,\"drops_random\":0,\"delivered\":120}\n"
      "{\"t\":10000000,\"ev\":\"ts:host\",\"host\":\"client\",\"tx_pkts\":40,"
      "\"tx_bytes\":55000,\"rx_pkts\":40}\n");
  // Removal stops emission; a second tick only re-samples what's left.
  sampler.remove_connection(&conn);
  sampler.sample(at_ms(20));
  EXPECT_EQ(sampler.ticks(), 2u);
  EXPECT_EQ(sampler.records_emitted(), 5u);
}

TEST(StateSampler, NullSinkRetainsFlowTimelinesWithoutEmitting) {
  obs::StateSampler sampler(nullptr);
  std::uint64_t delivered = 0;
  const std::size_t idx = sampler.add_flow("QUIC", [&delivered] {
    obs::ConnSample s;
    s.cwnd_bytes = 10000;
    s.delivered_bytes = delivered;
    return s;
  });
  for (int tick = 1; tick <= 3; ++tick) {
    delivered += 50000;
    sampler.sample(at_ms(tick * 500));
  }
  EXPECT_EQ(sampler.records_emitted(), 0u);  // no sink: nothing rendered
  const auto& timeline = sampler.flow_timeline(idx);
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].at, at_ms(500));
  EXPECT_EQ(timeline[2].sample.delivered_bytes, 150000u);
}

TEST(StateSampler, SampledSweepArtifactsByteIdenticalAtAnyWorkerCount) {
  const std::string base =
      (fs::temp_directory_path() / "ll_obs_sampled_sweep_test").string();
  fs::remove_all(base);
  Scenario s = lossy_scenario();
  s.name = "sampled-identity";
  const Workload workload{1, 64 * 1024};

  auto run_at = [&](int workers, const std::string& dir) {
    CompareOptions opts;
    opts.rounds = 2;
    opts.trace_dir = dir;
    opts.sample_state = true;
    CellResult cell;
    SweepRunner runner(workers);
    compare_plt_async(runner, s, workload, opts, &cell);
    runner.wait_all();
  };
  run_at(1, base + "/serial");
  run_at(8, base + "/parallel");

  const auto serial_files = slurp_artifacts(base + "/serial");
  const auto parallel_files = slurp_artifacts(base + "/parallel");
  ASSERT_EQ(serial_files.size(), parallel_files.size());
  bool saw_ts = false;
  for (const auto& [name, content] : serial_files) {
    auto it = parallel_files.find(name);
    ASSERT_NE(it, parallel_files.end()) << "missing artifact: " << name;
    EXPECT_EQ(content, it->second) << "sampled artifact differs: " << name;
    for (const std::string& line : split_lines(content)) {
      expect_schema_line(line);
      if (event_name(line).rfind("ts:", 0) == 0) saw_ts = true;
    }
  }
  EXPECT_TRUE(saw_ts) << "sampling enabled but no ts: records in artifacts";
  fs::remove_all(base);
}

// --- FlightRecorder (schema v3 `flight:` dumps) --------------------------

obs::TraceEvent rtx_event(std::int64_t ms) {
  return obs::TraceEvent("quic:packet_lost", at_ms(ms)).u("pn", 1);
}

TEST(FlightRecorder, ForwardsDownstreamUnchangedAndBuffersWhenEnabled) {
  obs::JsonLinesSink direct;
  direct.record(rtx_event(1));
  obs::JsonLinesSink forwarded;
  obs::FlightRecorderConfig cfg;
  obs::FlightRecorder recorder(cfg, &forwarded, "fwd_test");
  recorder.record(rtx_event(1));
  EXPECT_EQ(forwarded.text(), direct.text());
  EXPECT_EQ(recorder.buffered(), 1u);
  EXPECT_EQ(recorder.dump_count(), 0u);  // no trigger: no dump artifact
}

TEST(FlightRecorder, RingWraparoundKeepsNewestAndMarksTruncation) {
  obs::FlightRecorderConfig cfg;
  cfg.capacity = 4;
  obs::FlightRecorder recorder(cfg, nullptr, "wrap_test");
  for (int i = 0; i < 10; ++i) recorder.record(rtx_event(i));
  EXPECT_EQ(recorder.buffered(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::vector<std::string> lines =
      split_lines(recorder.render_dump("manual", nullptr));
  ASSERT_EQ(lines.size(), 6u);  // header + 4 ring records + footer
  EXPECT_EQ(event_name(lines.front()), "flight:dump");
  EXPECT_NE(lines.front().find("\"dropped\":6"), std::string::npos);
  // Oldest surviving record is absolute ordinal 6: the nonzero first seq
  // is the wraparound-truncation marker consumers key on.
  EXPECT_EQ(event_name(lines[1]), "flight:event");
  EXPECT_NE(lines[1].find("\"seq\":6"), std::string::npos);
  EXPECT_EQ(event_name(lines.back()), "flight:end");
  EXPECT_NE(lines.back().find("\"events\":4"), std::string::npos);
}

TEST(FlightRecorder, RetransmitStormDumpsOnceToConfiguredDir) {
  const std::string dir =
      (fs::temp_directory_path() / "ll_flight_storm_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::FlightRecorderConfig cfg;
  cfg.storm_rtx_threshold = 3;
  cfg.storm_window = seconds(1);
  cfg.dump_dir = dir;
  obs::FlightRecorder recorder(cfg, nullptr, "storm_test");
  // Two rtx events a window apart: no storm yet.
  recorder.record(rtx_event(0));
  recorder.record(rtx_event(2000));
  EXPECT_EQ(recorder.dump_count(), 0u);
  // Burst inside one window trips the trigger; the latch makes the rest of
  // the storm free.
  for (int i = 0; i < 10; ++i) recorder.record(rtx_event(3000 + i));
  EXPECT_EQ(recorder.dump_count(), 1u);
  std::size_t dump_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++dump_files;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::vector<std::string> lines = split_lines(ss.str());
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(event_name(lines.front()), "flight:dump");
    EXPECT_NE(lines.front().find("\"reason\":\"retransmit_storm\""),
              std::string::npos);
    EXPECT_EQ(event_name(lines.back()), "flight:end");
  }
  EXPECT_EQ(dump_files, 1u);
  fs::remove_all(dir);
}

TEST(FlightRecorder, CwndCollapseLatchesOneDump) {
  obs::FlightRecorderConfig cfg;
  cfg.collapse_divisor = 4;
  cfg.collapse_min_peak = 100 * 1024;
  obs::FlightRecorder recorder(cfg, nullptr, "collapse_test");
  auto cwnd_event = [](std::int64_t ms, std::uint64_t cwnd) {
    return obs::TraceEvent("cc:state", at_ms(ms)).u("cwnd", cwnd);
  };
  auto cc_cwnd = [](std::int64_t ms, std::uint64_t cwnd) {
    return obs::TraceEvent("cc:cwnd", at_ms(ms)).u("cwnd", cwnd);
  };
  // Non-cc:cwnd events never arm the trigger.
  recorder.record(cwnd_event(1, 512 * 1024));
  recorder.record(cc_cwnd(2, 200 * 1024));   // peak
  recorder.record(cc_cwnd(3, 120 * 1024));   // above peak/4: no dump
  EXPECT_EQ(recorder.dump_count(), 0u);
  recorder.record(cc_cwnd(4, 40 * 1024));    // below peak/4: collapse
  EXPECT_EQ(recorder.dump_count(), 1u);
  recorder.record(cc_cwnd(5, 10 * 1024));    // latched: still one dump
  EXPECT_EQ(recorder.dump_count(), 1u);
}

using FlightRecorderDeathTest = ::testing::Test;

TEST(FlightRecorderDeathTest, CheckFailureDumpsRingBeforeAbort) {
  const std::string dir =
      (fs::temp_directory_path() / "ll_flight_check_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The child aborts via the default check handler; the observer must dump
  // the ring to stderr (matched here) and to the dump dir (validated after).
  EXPECT_DEATH(
      {
        obs::FlightRecorderConfig cfg;
        cfg.dump_dir = dir;
        obs::FlightRecorder recorder(cfg, nullptr, "check_test");
        recorder.record(rtx_event(1));
        recorder.record(rtx_event(2));
        LL_CHECK(1 + 1 == 3) << "intentional failure";
      },
      "flight:dump");
  std::size_t dump_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++dump_files;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::vector<std::string> lines = split_lines(ss.str());
    // header + 2 buffered records + footer, annotated with the check site.
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(event_name(lines.front()), "flight:dump");
    EXPECT_NE(lines.front().find("\"reason\":\"check\""), std::string::npos);
    EXPECT_NE(lines.front().find("\"kind\":\"CHECK\""), std::string::npos);
    EXPECT_NE(lines.front().find("test_obs.cc"), std::string::npos);
    for (const std::string& line : lines) expect_schema_line(line);
    EXPECT_EQ(event_name(lines[1]), "flight:event");
    EXPECT_EQ(event_name(lines.back()), "flight:end");
  }
  EXPECT_EQ(dump_files, 1u);
  fs::remove_all(dir);
}

TEST(TraceSweep, UntracedSweepPopulatesMetricsOnly) {
  Scenario s = lossy_scenario();
  const Workload workload{1, 32 * 1024};
  CompareOptions opts;
  opts.rounds = 2;
  CellResult cell;
  SweepRunner runner(2);
  compare_plt_async(runner, s, workload, opts, &cell);
  runner.wait_all();
  EXPECT_FALSE(cell.metrics.empty());
  EXPECT_EQ(cell.metrics.counter("quic.runs"), 2u);
  EXPECT_GT(cell.metrics.counter("quic.packets_sent"), 0u);
  EXPECT_GT(cell.metrics.counter("tcp.segments_sent"), 0u);
}

}  // namespace
}  // namespace longlook
