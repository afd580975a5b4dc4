// End-to-end TCP(+TLS)+HTTP/2 integration tests through the emulated
// testbed: handshake cost, bulk transfer, loss recovery, DSACK reordering
// adaptation, and HOL blocking behaviour.
#include <gtest/gtest.h>

#include "harness/compare.h"
#include "workload/executor.h"

namespace longlook {
namespace {

using harness::Scenario;

struct TcpRun {
  std::optional<double> plt_s;
  tcp::TcpStats client_stats;
  tcp::TcpStats server_stats;
  std::size_t server_dupthresh = 3;
  workload::ScenarioResult page;
};

TcpRun run_tcp(const Scenario& scenario, std::size_t objects,
               std::size_t bytes, tcp::TcpConfig config = {},
               Duration timeout = seconds(120)) {
  harness::CompareOptions opts;
  opts.tcp = config;
  opts.timeout = timeout;
  harness::SingleRun<harness::Protocol::kTcp> run(scenario, {objects, bytes},
                                                  opts);
  TcpRun out;
  if (const auto stats = run.finish()) out.plt_s = stats->duration_s;
  out.page = run.result();
  out.client_stats = run.session().connection().stats();
  if (auto* sc = run.server().server().latest_connection()) {
    out.server_stats = sc->stats();
    out.server_dupthresh = sc->dupthresh();
  }
  return out;
}

TEST(TcpE2E, SingleSmallObjectCompletes) {
  Scenario s;
  s.rate_bps = 10'000'000;
  const TcpRun run = run_tcp(s, 1, 10 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 10 * 1024u);
  // TCP+TLS needs 3 round trips (~108 ms) before the request leaves.
  EXPECT_GT(*run.plt_s, 0.1);
  EXPECT_LT(*run.plt_s, 1.0);
}

TEST(TcpE2E, HandshakeCostsThreeRtts) {
  Scenario s;
  s.rate_bps = 10'000'000;
  const TcpRun run = run_tcp(s, 1, 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.client_stats.handshake_round_trips, 3u);
  // 4 RTTs total (3 setup + 1 request/response) at 36 ms: >= 0.14 s.
  EXPECT_GE(*run.plt_s, 0.14);
}

TEST(TcpE2E, TlsDisabledIsOneRttFaster) {
  Scenario s;
  s.rate_bps = 10'000'000;
  tcp::TcpConfig no_tls;
  no_tls.tls_enabled = false;
  const TcpRun with_tls = run_tcp(s, 1, 1024);
  const TcpRun without = run_tcp(s, 1, 1024, no_tls);
  ASSERT_TRUE(with_tls.plt_s.has_value());
  ASSERT_TRUE(without.plt_s.has_value());
  // The TLS model costs 2 RTT = 72 ms.
  EXPECT_NEAR(*with_tls.plt_s - *without.plt_s, 0.072, 0.03);
}

TEST(TcpE2E, LargeObjectAtHighBandwidth) {
  Scenario s;
  s.rate_bps = 100'000'000;
  const TcpRun run = run_tcp(s, 1, 10 * 1024 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_LT(*run.plt_s, 3.0);
  const double goodput_mbps = 10.0 * 8.0 * 1024 * 1024 / *run.plt_s / 1e6;
  EXPECT_GT(goodput_mbps, 40.0);
}

TEST(TcpE2E, RecoversFromLoss) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.02;
  const TcpRun run = run_tcp(s, 1, 1024 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 1024 * 1024u);
  EXPECT_GT(run.server_stats.retransmitted_segments, 0u);
}

TEST(TcpE2E, MultipleObjectsShareOneConnection) {
  Scenario s;
  s.rate_bps = 20'000'000;
  const TcpRun run = run_tcp(s, 20, 50 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  for (const auto& obj : run.page.detail) {
    EXPECT_EQ(obj.download_bytes, 50 * 1024u);
  }
  // HTTP/2 over TCP: exactly one connection on the server.
}

TEST(TcpE2E, DsackAdaptsDupthreshUnderReordering) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);
  s.jitter = milliseconds(10);
  const TcpRun run = run_tcp(s, 1, 5 * 1024 * 1024, {}, seconds(300));
  ASSERT_TRUE(run.plt_s.has_value());
  // Reordering must have taught the sender a deeper threshold (RR-TCP).
  EXPECT_GT(run.server_dupthresh, 3u);
}

TEST(TcpE2E, ReorderingRobustnessBeatsNaiveConfig) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);
  s.jitter = milliseconds(10);
  tcp::TcpConfig no_dsack;
  no_dsack.dsack_enabled = false;
  const TcpRun adaptive = run_tcp(s, 1, 5 * 1024 * 1024, {}, seconds(300));
  const TcpRun fixed = run_tcp(s, 1, 5 * 1024 * 1024, no_dsack, seconds(300));
  ASSERT_TRUE(adaptive.plt_s.has_value());
  ASSERT_TRUE(fixed.plt_s.has_value());
  EXPECT_LE(*adaptive.plt_s, *fixed.plt_s * 1.05);
  EXPECT_LE(adaptive.server_stats.retransmitted_segments,
            fixed.server_stats.retransmitted_segments);
}

TEST(TcpE2E, SurvivesBlackoutViaRto) {
  Scenario s;
  s.rate_bps = 5'000'000;
  s.loss_rate = 0.30;  // brutal loss: forces RTO paths, must still finish
  const TcpRun run = run_tcp(s, 1, 200 * 1024, {}, seconds(600));
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 200 * 1024u);
}

}  // namespace
}  // namespace longlook
