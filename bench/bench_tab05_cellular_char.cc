// Table 5 — Characteristics of the tested cellular networks (Verizon and
// Sprint, 3G and LTE): throughput, RTT mean/std, reordering rate, loss.
// We parameterise the emulated access links from the paper's own Table 5
// and validate here that the emulation actually *measures back* those
// characteristics (throughput probe + per-packet RTT/reorder/loss audit).
#include <cmath>

#include "bench_common.h"

namespace {
using namespace longlook;
using namespace longlook::harness;

struct Measured {
  double throughput_mbps = 0;
  double rtt_ms = 0;
  double rtt_std_ms = 0;
  double reorder_pct = 0;
  double loss_pct = 0;
};

Measured measure(const CellularProfile& profile) {
  Scenario s;
  s.cellular = profile;
  s.seed = 42;
  Measured out;

  // Throughput + RTT probe: one bulk QUIC download.
  CompareOptions opts;
  opts.timeout = seconds(120);
  longlook::bench::apply(opts);
  const std::size_t bytes = static_cast<std::size_t>(
      profile.throughput_mbps * 1e6 / 8 * 20);  // ~20 s of transfer
  SingleRun<Protocol::kQuic> run(
      s, Workload{1, std::max<std::size_t>(bytes, 64 * 1024)}, opts);
  Simulator& sim = run.testbed().sim();
  std::vector<double> rtt_samples_ms;
  // Sample the server's latest RTT every 500 ms.
  std::function<void()> sample = [&] {
    if (auto* conn = run.server().server().latest_connection()) {
      if (conn->rtt().has_samples()) {
        rtt_samples_ms.push_back(to_millis(conn->rtt().latest()));
      }
    }
    sim.schedule(milliseconds(500), sample);
  };
  sim.schedule(milliseconds(500), sample);
  run.finish();

  const workload::ScenarioResult& res = run.result();
  const double dur = to_seconds(res.finished - res.started);
  if (dur > 0) {
    out.throughput_mbps =
        static_cast<double>(res.detail[0].download_bytes) * 8 / dur / 1e6;
  }
  const auto rtt_summary = stats::summarize(rtt_samples_ms);
  out.rtt_ms = rtt_summary.mean;
  out.rtt_std_ms = rtt_summary.stddev;

  const auto& down = run.testbed().downlink().stats();
  if (down.delivered > 0) {
    out.reorder_pct = 100.0 * static_cast<double>(down.delivered_out_of_order) /
                      static_cast<double>(down.delivered);
    out.loss_pct = 100.0 * static_cast<double>(down.dropped_random) /
                   static_cast<double>(down.delivered + down.dropped_random);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  longlook::bench::parse_args(argc, argv);
  longlook::bench::banner(
      "Emulated cellular network characteristics vs the paper's Table 5",
      "Table 5 (Sec. 5.2, 'Tests on commercial cellular networks')");

  std::vector<std::vector<std::string>> rows;
  for (const CellularProfile& p : cellular_profiles()) {
    const Measured m = measure(p);
    auto& ctx = longlook::bench::context();
    ctx.record_scalar("Table 5 measured characteristics",
                      std::string(p.name) + " throughput_kbps",
                      std::llround(m.throughput_mbps * 1000));
    ctx.record_scalar("Table 5 measured characteristics",
                      std::string(p.name) + " rtt_us",
                      std::llround(m.rtt_ms * 1000));
    ctx.record_scalar("Table 5 measured characteristics",
                      std::string(p.name) + " reorder_bp",
                      std::llround(m.reorder_pct * 100));
    ctx.record_scalar("Table 5 measured characteristics",
                      std::string(p.name) + " loss_bp",
                      std::llround(m.loss_pct * 100));
    rows.push_back({p.name,
                    format_fixed(m.throughput_mbps, 2) + " / " +
                        format_fixed(p.throughput_mbps, 2),
                    format_fixed(m.rtt_ms, 0) + " (" +
                        format_fixed(m.rtt_std_ms, 0) + ") / " +
                        format_fixed(p.rtt_ms, 0) + " (" +
                        format_fixed(p.rtt_std_ms, 0) + ")",
                    format_fixed(m.reorder_pct, 2) + " / " +
                        format_fixed(p.reorder_pct, 2),
                    format_fixed(m.loss_pct, 2) + " / " +
                        format_fixed(p.loss_pct, 2)});
    std::fputc('.', stderr);
  }
  std::fputc('\n', stderr);
  print_table(std::cout,
              "Table 5: measured / target (throughput Mbps, RTT ms, "
              "reordering %, loss %)",
              {"Network", "Thrghpt", "RTT (std)", "Reordering", "Loss"},
              rows);
  return longlook::bench::finish();
}
