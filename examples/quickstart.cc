// Quickstart: stand up the paper's testbed (client — router — server),
// fetch one page over QUIC, and print the page load time plus transport
// statistics. Start here to see the public API end to end.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "harness/compare.h"

using namespace longlook;

int main() {
  // 1. Describe the network: a 10 Mbps bottleneck with 1% random loss on
  //    the access link (everything else defaults to the paper's testbed:
  //    36 ms base RTT, calibrated router buffer).
  harness::Scenario scenario;
  scenario.name = "quickstart";
  scenario.rate_bps = 10'000'000;
  scenario.loss_rate = 0.01;
  scenario.seed = 1;

  // 2. Stand up one run: the testbed, a calibrated QUIC server on it, and a
  //    client loading a page of 10 x 100 KB objects. No token cache is
  //    passed, so this first connection pays QUIC's 1-RTT setup; pass one
  //    and keep it around, and the next run's connection would be 0-RTT.
  harness::CompareOptions opts;
  opts.timeout = seconds(60);
  harness::SingleRun<harness::Protocol::kQuic> run(scenario, {10, 100 * 1024},
                                                   opts);

  // 3. Run the virtual clock until the page completes.
  if (!run.finish()) {
    std::printf("page load did not complete\n");
    return 1;
  }

  // 4. Inspect the results: PLT, per-object timings, transport internals.
  const workload::ScenarioResult& page = run.result();
  std::printf("Page load time: %.3f s (%zu objects)\n",
              to_seconds(page.duration), page.detail.size());
  for (const auto& obj : page.detail) {
    std::printf("  obj%-3zu first-byte %.3fs  complete %.3fs  (%zu bytes)\n",
                static_cast<std::size_t>(obj.object_index),
                to_seconds(obj.first_byte - page.started),
                to_seconds(obj.completed - page.started),
                static_cast<std::size_t>(obj.download_bytes));
  }

  const quic::QuicConnection& client = run.session().connection();
  std::printf("\nClient connection: %llu packets sent, %llu received, "
              "handshake RTTs: %llu\n",
              static_cast<unsigned long long>(client.stats().packets_sent),
              static_cast<unsigned long long>(client.stats().packets_received),
              static_cast<unsigned long long>(
                  client.stats().handshake_round_trips));
  if (auto* sc = run.server().server().latest_connection()) {
    std::printf("Server: cwnd %zu bytes, srtt %.1f ms, %llu packets declared "
                "lost (%llu spurious), state %s\n",
                sc->congestion_window(), to_millis(sc->rtt().smoothed()),
                static_cast<unsigned long long>(
                    sc->stats().packets_declared_lost),
                static_cast<unsigned long long>(sc->stats().spurious_losses),
                std::string(to_string(sc->send_algorithm().tracker().state()))
                    .c_str());
  }
  return 0;
}
