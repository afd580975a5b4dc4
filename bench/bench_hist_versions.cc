// Sec. 5.4 — Historical comparison across QUIC versions 25..37: with the
// same configuration, versions 25–36 perform identically; v37 differs only
// through its larger default MACW (2000) and N=1 connection emulation.
// Also reproduces the Chromium-52 public-release regression.
#include "bench_common.h"

namespace {
using namespace longlook;
using namespace longlook::harness;

double mean_plt(const quic::QuicConfig& cfg, const Workload& w) {
  quic::TokenCache tokens;
  Scenario warm;
  warm.rate_bps = 100'000'000;
  warm.seed = 77;
  CompareOptions opts;
  longlook::bench::apply(opts);
  opts.quic = cfg;
  (void)run_quic_page_load(warm, {1, 1024}, opts, tokens);
  std::vector<double> plts;
  for (int r = 0; r < longlook::bench::rounds(); ++r) {
    Scenario s;
    s.rate_bps = 100'000'000;
    s.seed = 1700 + static_cast<std::uint64_t>(r);
    if (auto plt = run_quic_page_load(s, w, opts, tokens)) {
      plts.push_back(*plt);
    }
  }
  return stats::mean(plts);
}

}  // namespace

int main(int argc, char** argv) {
  longlook::bench::parse_args(argc, argv);
  longlook::bench::banner(
      "Historical QUIC versions 25..37, same workload (10 MB at 100 Mbps)",
      "Sec. 5.4 'Historical Comparison'");

  const Workload big{1, 10 * 1024 * 1024};
  std::vector<std::vector<std::string>> rows;
  double v34 = 0;
  for (int version : quic::studied_versions()) {
    quic::QuicConfig cfg;
    cfg.version = quic::deployed_profile(version);
    const double plt = mean_plt(cfg, big);
    std::string key = "v";
    key += std::to_string(version) + "_mean_us";
    longlook::bench::context().record_scalar("Historical versions", key,
                                             std::llround(plt * 1e6));
    if (version == 34) v34 = plt;
    rows.push_back({"QUIC " + std::to_string(version),
                    std::to_string(cfg.version.macw_packets),
                    std::to_string(cfg.version.num_connections),
                    format_fixed(plt, 3)});
    std::fputc('.', stderr);
  }
  {
    quic::QuicConfig pub;
    pub.version = quic::public_release_profile();
    rows.push_back({"QUIC 34 (public Chromium-52 cfg)",
                    std::to_string(pub.version.macw_packets) + " +ssthresh bug",
                    std::to_string(pub.version.num_connections),
                    format_fixed(mean_plt(pub, big), 3)});
  }
  std::fputc('\n', stderr);

  print_table(std::cout, "PLT of a 10MB object at 100 Mbps across versions",
              {"Version", "MACW", "N-conn", "PLT mean (s)"}, rows);
  std::printf(
      "\nPaper's finding: under identical configuration, v25–v36 are\n"
      "indistinguishable (changelogs: crypto/flags/connection-id work only);\n"
      "v37 improves large-transfer PLT purely via MACW=2000; the public\n"
      "Chromium-52 configuration is ~2x slower (MACW=107 + ssthresh bug).\n"
      "Reference v34 PLT: %.3f s\n",
      v34);
  return longlook::bench::finish();
}
