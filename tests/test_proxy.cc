// Integration tests: split-connection TCP proxy and the QUIC proxy — data
// integrity through the relay, the 0-RTT penalty of the proxied path, and
// loss-recovery benefits on the split segments.
#include <gtest/gtest.h>

#include "harness/compare.h"
#include "proxy/quic_proxy.h"
#include "proxy/tcp_proxy.h"

namespace longlook {
namespace {

using namespace longlook::harness;

// The run's PLT once every object arrived whole; nullopt on timeout.
template <Protocol P>
std::optional<double> finish_intact(SingleRun<P>& run, std::size_t bytes) {
  const auto stats = run.finish();
  if (!stats) return std::nullopt;
  for (const auto& obj : run.result().detail) {
    EXPECT_EQ(obj.download_bytes, bytes);
  }
  return stats->duration_s;
}

// Page loads through a proxy on the mid host, placed as Figs. 17/18 do.
std::optional<double> proxied_tcp_load(const Scenario& scenario,
                                       std::size_t objects, std::size_t bytes,
                                       std::size_t* served = nullptr) {
  CompareOptions opts;
  opts.timeout = seconds(120);
  opts.tcp_connect_to_mid = true;
  opts.tcp_connect_port = kProxyPort;
  opts.setup = [](Testbed& tb) -> std::shared_ptr<void> {
    return std::make_shared<proxy::TcpProxy>(
        tb.sim(), tb.mid_host(), kProxyPort, tb.server_host().address(),
        kTcpPort, tcp::TcpConfig{});
  };
  SingleRun<Protocol::kTcp> run(scenario, {objects, bytes}, opts);
  const auto plt = finish_intact(run, bytes);
  if (served != nullptr) *served = run.server().service().requests_served();
  return plt;
}

std::optional<double> proxied_quic_load(const Scenario& scenario,
                                        std::size_t objects,
                                        std::size_t bytes,
                                        quic::TokenCache& tokens) {
  CompareOptions opts;
  opts.timeout = seconds(120);
  opts.quic_connect_to_mid = true;
  opts.quic_connect_port = kProxyPort;
  opts.setup = [](Testbed& tb) -> std::shared_ptr<void> {
    return std::make_shared<proxy::QuicProxy>(
        tb.sim(), tb.mid_host(), kProxyPort, tb.server_host().address(),
        kQuicPort, quic::QuicConfig{});
  };
  SingleRun<Protocol::kQuic> run(scenario, {objects, bytes}, opts, &tokens);
  return finish_intact(run, bytes);
}

TEST(TcpProxy, RelaysSingleObjectIntact) {
  Scenario s;
  s.rate_bps = 10'000'000;
  std::size_t served = 0;
  const auto plt = proxied_tcp_load(s, 1, 100 * 1024, &served);
  ASSERT_TRUE(plt.has_value());
  EXPECT_EQ(served, 1u);  // request reached the origin through the relay
}

TEST(TcpProxy, RelaysMultiplexedObjects) {
  Scenario s;
  s.rate_bps = 20'000'000;
  const auto plt = proxied_tcp_load(s, 20, 20 * 1024);
  ASSERT_TRUE(plt.has_value());
}

TEST(TcpProxy, SurvivesLossOnAccessLink) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.02;
  const auto plt = proxied_tcp_load(s, 1, 1024 * 1024);
  ASSERT_TRUE(plt.has_value());
}

TEST(TcpProxy, HelpsTcpUnderLoss) {
  // The paper's Fig. 17 effect: the proxy splits the control loop, so TCP
  // recovers loss on the short client-side segment and narrows the gap.
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.01;
  s.seed = 31;
  CompareOptions opts;
  const auto direct = run_tcp_page_load(s, {1, 2 * 1024 * 1024}, opts);
  const auto proxied = proxied_tcp_load(s, 1, 2 * 1024 * 1024);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(proxied.has_value());
  EXPECT_LT(*proxied, *direct * 1.10);  // at least comparable, usually better
}

TEST(QuicProxy, RelaysObjectsIntact) {
  Scenario s;
  s.rate_bps = 10'000'000;
  quic::TokenCache tokens;
  const auto plt = proxied_quic_load(s, 5, 50 * 1024, tokens);
  ASSERT_TRUE(plt.has_value());
}

TEST(QuicProxy, ColdPathCostsExtraRttForSmallObjects) {
  // Fig. 18: the unoptimized proxy cannot 0-RTT upstream, so even a warmed
  // client pays an extra round trip on small objects versus direct.
  Scenario s;
  s.rate_bps = 10'000'000;
  s.seed = 17;
  quic::TokenCache direct_tokens;
  quic::TokenCache proxy_tokens;
  CompareOptions opts;
  // Warm both client caches.
  (void)run_quic_page_load(s, {1, 1024}, opts, direct_tokens);
  (void)proxied_quic_load(s, 1, 1024, proxy_tokens);
  const auto direct = run_quic_page_load(s, {1, 10 * 1024}, opts,
                                         direct_tokens);
  const auto proxied = proxied_quic_load(s, 1, 10 * 1024, proxy_tokens);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(proxied.has_value());
  EXPECT_GT(*proxied, *direct);
}

TEST(QuicProxy, MultiplexedTransferThroughProxy) {
  Scenario s;
  s.rate_bps = 50'000'000;
  quic::TokenCache tokens;
  const auto plt = proxied_quic_load(s, 50, 10 * 1024, tokens);
  ASSERT_TRUE(plt.has_value());
}

}  // namespace
}  // namespace longlook
