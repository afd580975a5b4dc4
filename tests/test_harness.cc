// Unit/integration tests: testbed topology, the paired comparison runner
// (statistics discipline), heatmap rendering, and the fairness runner.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/compare.h"
#include "harness/fairness.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "workload/executor.h"

namespace longlook::harness {
namespace {

TEST(Testbed, BaseRttIsAbout36Ms) {
  Scenario s;
  s.seed = 3;
  Testbed tb(s);
  // Round-trip a QUIC handshake probe and read the server's RTT estimate.
  http::QuicObjectServer server(tb.sim(), tb.server_host(), kQuicPort, {});
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(), kQuicPort, {},
                                  tokens);
  const workload::ScenarioSpec page = workload::page_spec({1, 100 * 1024});
  workload::ScenarioRunner loader(tb.sim(), session, page);
  loader.start();
  ASSERT_TRUE(tb.run_until([&] { return loader.finished(); }, seconds(10)));
  auto* conn = server.server().latest_connection();
  ASSERT_NE(conn, nullptr);
  // 36 ms base path, +-4% ambient perturbation + processing.
  EXPECT_NEAR(to_millis(conn->rtt().min_rtt()), 36.0, 4.0);
}

TEST(Testbed, ExtraRttIsAddedToPath) {
  Scenario s;
  s.extra_rtt = milliseconds(100);
  Testbed tb(s);
  http::QuicObjectServer server(tb.sim(), tb.server_host(), kQuicPort, {});
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(), kQuicPort, {},
                                  tokens);
  const workload::ScenarioSpec page = workload::page_spec({1, 10 * 1024});
  workload::ScenarioRunner loader(tb.sim(), session, page);
  loader.start();
  ASSERT_TRUE(tb.run_until([&] { return loader.finished(); }, seconds(10)));
  auto* conn = server.server().latest_connection();
  ASSERT_NE(conn, nullptr);
  EXPECT_NEAR(to_millis(conn->rtt().min_rtt()), 136.0, 8.0);
}

TEST(Testbed, SameSeedReproducesIdenticalRuns) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.01;
  s.seed = 77;
  CompareOptions opts;
  quic::TokenCache t1;
  quic::TokenCache t2;
  const auto a = run_quic_page_load(s, {1, 512 * 1024}, opts, t1);
  const auto b = run_quic_page_load(s, {1, 512 * 1024}, opts, t2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(*a, *b);  // full determinism per seed
}

TEST(Testbed, DifferentSeedsVary) {
  Scenario a;
  a.rate_bps = 10'000'000;
  a.seed = 1;
  Scenario b = a;
  b.seed = 2;
  CompareOptions opts;
  quic::TokenCache t1;
  quic::TokenCache t2;
  const auto pa = run_quic_page_load(a, {1, 512 * 1024}, opts, t1);
  const auto pb = run_quic_page_load(b, {1, 512 * 1024}, opts, t2);
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(*pa, *pb);  // ambient noise differs per round
}

TEST(Compare, ProducesRequestedRounds) {
  Scenario s;
  s.rate_bps = 10'000'000;
  CompareOptions opts;
  opts.rounds = 4;
  const CellResult cell = compare_plt(s, {1, 50 * 1024}, opts);
  EXPECT_EQ(cell.quic_plt_s.size(), 4u);
  EXPECT_EQ(cell.tcp_plt_s.size(), 4u);
  EXPECT_TRUE(cell.all_complete);
  EXPECT_GT(cell.tcp_mean_s, 0);
  EXPECT_GT(cell.quic_mean_s, 0);
}

TEST(Compare, SmallObjectCellIsSignificantlyQuicFavoured) {
  Scenario s;
  s.rate_bps = 10'000'000;
  CompareOptions opts;
  opts.rounds = 5;
  const CellResult cell = compare_plt(s, {1, 10 * 1024}, opts);
  // 0-RTT vs 3-RTT setup dominates: must be large, positive, significant.
  EXPECT_TRUE(cell.significant);
  EXPECT_GT(cell.pct_diff, 40.0);
}

TEST(Compare, QuicPairWithIdenticalConfigsInsignificant) {
  Scenario s;
  s.rate_bps = 10'000'000;
  CompareOptions a;
  a.rounds = 5;
  CompareOptions b = a;
  const CellResult cell = compare_quic_pair(s, {1, 200 * 1024}, a, b);
  // Same protocol, same config: only ambient noise separates the samples.
  EXPECT_FALSE(cell.significant);
  EXPECT_LT(std::abs(cell.pct_diff), 10.0);
}

TEST(CompareDeathTest, QuicPairArmsMustAgreeOnRounds) {
  // The pair builder takes rounds from both arms; a mismatch used to be
  // silently resolved in favour of arm a.
  Scenario s;
  CompareOptions a;
  a.rounds = 3;
  CompareOptions b = a;
  b.rounds = 5;
  EXPECT_DEATH(compare_quic_pair(s, {1, 1024}, a, b),
               "CHECK failed.*disagree on rounds: 3 vs 5");
}

TEST(Report, HeatmapRendersSignificanceMarkers) {
  std::ostringstream os;
  print_heatmap(os, "demo", {"a", "b"}, {"r1"},
                {{HeatmapCell{12.34, true, true},
                  HeatmapCell{-5.0, false, true}}});
  const std::string out = os.str();
  EXPECT_NE(out.find("+12.3"), std::string::npos);
  EXPECT_NE(out.find("·"), std::string::npos);  // insignificant cell
  EXPECT_NE(out.find("demo"), std::string::npos);
}

TEST(Report, TableAlignsColumns) {
  std::ostringstream os;
  print_table(os, "t", {"col", "value"}, {{"row-with-long-name", "1.5"}});
  EXPECT_NE(os.str().find("row-with-long-name"), std::string::npos);
}

TEST(Fairness, SameProtocolPairsShareFairly) {
  Scenario s;
  s.rate_bps = 5'000'000;
  s.buffer_bytes = 30 * 1024;
  s.bucket_bytes = 8 * 1024;
  s.seed = 5;
  FairnessConfig cfg;
  cfg.quic_flows = 2;
  cfg.tcp_flows = 0;
  cfg.duration = seconds(20);
  cfg.transfer_bytes = 128 * 1024 * 1024;
  const auto reports = run_fairness(s, cfg);
  ASSERT_EQ(reports.size(), 2u);
  const double ratio = reports[0].avg_mbps / reports[1].avg_mbps;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Fairness, QuicBeatsTcpOnSharedBottleneck) {
  Scenario s;
  s.rate_bps = 5'000'000;
  s.buffer_bytes = 30 * 1024;
  s.bucket_bytes = 8 * 1024;
  s.seed = 6;
  FairnessConfig cfg;
  cfg.duration = seconds(20);
  cfg.transfer_bytes = 128 * 1024 * 1024;
  const auto reports = run_fairness(s, cfg);
  ASSERT_EQ(reports.size(), 2u);
  // The paper's headline unfairness: QUIC takes well over half.
  EXPECT_GT(reports[0].avg_mbps, reports[1].avg_mbps * 1.5);
  // And the link is actually being used.
  EXPECT_GT(reports[0].avg_mbps + reports[1].avg_mbps, 3.0);
}

TEST(Fairness, TimelinesAreSampled) {
  Scenario s;
  s.rate_bps = 5'000'000;
  FairnessConfig cfg;
  cfg.duration = seconds(5);
  cfg.sample_interval = milliseconds(500);
  cfg.transfer_bytes = 64 * 1024 * 1024;
  const auto reports = run_fairness(s, cfg);
  for (const auto& r : reports) {
    EXPECT_GE(r.timeline.size(), 9u);
    EXPECT_LE(r.timeline.size(), 11u);
  }
}

TEST(Testbed, CellularScenarioUsesProfile) {
  Scenario s;
  s.cellular = verizon_lte();
  s.seed = 9;
  CompareOptions opts;
  quic::TokenCache tokens;
  const auto plt = run_quic_page_load(s, {1, 100 * 1024}, opts, tokens);
  ASSERT_TRUE(plt.has_value());
  // 4 Mbps downlink + 60 ms RTT: the 100 KB page takes a fraction of a
  // second but clearly longer than the wired path would.
  EXPECT_GT(*plt, 0.2);
  EXPECT_LT(*plt, 5.0);
}

}  // namespace
}  // namespace longlook::harness
