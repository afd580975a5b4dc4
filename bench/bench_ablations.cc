// Ablations of the mechanisms DESIGN.md credits for the paper's findings:
// each row switches one QUIC mechanism off (or to the TCP-like setting) and
// reports the PLT impact on the workload that mechanism is supposed to
// matter for. This is the "explain the performance" discipline of the
// paper's root-cause analysis turned into a regression harness.
#include "bench_common.h"

namespace {
using namespace longlook;
using namespace longlook::harness;

struct Ablation {
  std::string name;
  std::string expectation;
  Scenario scenario;
  Workload workload;
  quic::QuicConfig variant;
};

double quic_mean(const Scenario& scenario, const Workload& w,
                 const quic::QuicConfig& cfg) {
  CompareOptions opts;
  longlook::bench::apply(opts);
  opts.quic = cfg;
  quic::TokenCache tokens;
  Scenario warm = scenario;
  warm.seed += 7919;
  (void)run_quic_page_load(warm, {1, 1024}, opts, tokens);
  std::vector<double> plts;
  for (int r = 0; r < longlook::bench::rounds(); ++r) {
    Scenario round = scenario;
    round.seed = scenario.seed + static_cast<std::uint64_t>(r) * 1009;
    if (auto plt = run_quic_page_load(round, w, opts, tokens)) {
      plts.push_back(*plt);
    }
    std::fputc('.', stderr);
  }
  return stats::mean(plts);
}

}  // namespace

int main(int argc, char** argv) {
  longlook::bench::parse_args(argc, argv);
  longlook::bench::banner(
      "Mechanism ablations: what each QUIC feature buys (or costs)",
      "DESIGN.md section 5 / the paper's root-cause analyses");

  std::vector<Ablation> ablations;
  {
    Ablation a;
    a.name = "pacing off";
    a.expectation = "bursts overflow small router buffers -> slower";
    a.scenario.rate_bps = 20'000'000;
    a.scenario.buffer_bytes = 48 * 1024;
    a.workload = {1, 5 * 1024 * 1024};
    a.variant.pacing = false;
    ablations.push_back(a);
  }
  {
    Ablation a;
    a.name = "HyStart off";
    a.expectation = "no early SS exit -> many-small-objects page speeds up";
    a.scenario.rate_bps = 100'000'000;
    a.workload = {200, 10 * 1024};
    a.variant.hystart.enabled = false;
    ablations.push_back(a);
  }
  {
    Ablation a;
    a.name = "N-connection emulation = 1";
    a.expectation = "gentler cubic; minor effect on a solo flow";
    a.scenario.rate_bps = 20'000'000;
    a.scenario.loss_rate = 0.01;
    a.workload = {1, 5 * 1024 * 1024};
    a.variant.version.num_connections = 1;
    ablations.push_back(a);
  }
  {
    Ablation a;
    a.name = "adaptive NACK threshold";
    a.expectation = "repairs the reordering pathology (Fig. 10)";
    a.scenario.rate_bps = 20'000'000;
    a.scenario.extra_rtt = milliseconds(76);
    a.scenario.jitter = milliseconds(10);
    a.workload = {1, 5 * 1024 * 1024};
    a.variant.loss_mode = quic::LossDetectionMode::kAdaptiveNack;
    ablations.push_back(a);
  }
  {
    Ablation a;
    a.name = "time-threshold loss detection";
    a.expectation = "also repairs reordering (QUIC team's experiment)";
    a.scenario.rate_bps = 20'000'000;
    a.scenario.extra_rtt = milliseconds(76);
    a.scenario.jitter = milliseconds(10);
    a.workload = {1, 5 * 1024 * 1024};
    a.variant.loss_mode = quic::LossDetectionMode::kTimeThreshold;
    ablations.push_back(a);
  }
  {
    Ablation a;
    a.name = "ack decimation off (ack every packet)";
    a.expectation = "denser feedback; marginal PLT change";
    a.scenario.rate_bps = 20'000'000;
    a.workload = {1, 5 * 1024 * 1024};
    a.variant.ack.ack_every_n = 1;
    ablations.push_back(a);
  }

  std::vector<std::vector<std::string>> rows;
  for (const Ablation& a : ablations) {
    const double baseline = quic_mean(a.scenario, a.workload, {});
    const double variant = quic_mean(a.scenario, a.workload, a.variant);
    const double delta = (variant / baseline - 1.0) * 100.0;
    auto& ctx = longlook::bench::context();
    ctx.record_scalar("Ablations", a.name + " baseline_us",
                      std::llround(baseline * 1e6));
    ctx.record_scalar("Ablations", a.name + " variant_us",
                      std::llround(variant * 1e6));
    std::string change = delta >= 0 ? "+" : "";
    change += format_fixed(delta, 1) + "%";
    rows.push_back({a.name, format_fixed(baseline, 3), format_fixed(variant, 3),
                    change, a.expectation});
  }
  std::fputc('\n', stderr);
  print_table(std::cout, "QUIC mechanism ablations (PLT seconds)",
              {"Ablation", "baseline", "variant", "delta", "expectation"},
              rows);
  return longlook::bench::finish();
}
