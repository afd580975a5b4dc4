// Fig. 13 — QUIC state-transition diagrams on MotoG vs desktop (50 Mbps,
// no added loss or delay), with the fraction of time spent in each state.
// The paper's root cause for mobile slowdown: on the MotoG the server
// spends 58% of its time ApplicationLimited (desktop: 7%) because the
// client application cannot consume packets quickly enough.
#include "bench_common.h"

#include "smi/inference.h"

namespace {
using namespace longlook;
using namespace longlook::harness;

smi::StateMachineInference infer_for_device(const DeviceProfile& dev) {
  smi::StateMachineInference inf;
  CompareOptions opts;
  opts.timeout = seconds(120);
  longlook::bench::apply(opts);
  for (int r = 0; r < longlook::bench::rounds(); ++r) {
    Scenario s;
    s.rate_bps = 50'000'000;
    s.device = dev;
    s.seed = 900 + static_cast<std::uint64_t>(r);
    smi::StateRecorder recorder("cc:state");
    opts.quic.trace = &recorder;
    SingleRun<Protocol::kQuic> run(s, Workload{1, 20 * 1024 * 1024}, opts);
    run.finish();
    inf.add_trace(recorder.trace(TimePoint{}, run.testbed().sim().now()));
  }
  return inf;
}

void report(const char* name, const smi::StateMachineInference& inf) {
  std::printf("\n--- %s: inferred server-side state machine ---\n", name);
  std::cout << inf.to_dot(name);
  std::printf("Time in state (the red numbers of Fig. 13):\n");
  for (const auto& st : inf.states()) {
    std::printf("  %-26s %.1f%%\n", st.c_str(), inf.time_fraction(st) * 100);
  }
  std::printf("Transition probabilities:\n");
  for (const auto& e : inf.edges()) {
    std::printf("  %-24s -> %-24s p=%.2f (n=%llu)\n", e.from.c_str(),
                e.to.c_str(), e.probability,
                static_cast<unsigned long long>(e.count));
  }
}

}  // namespace

int main(int argc, char** argv) {
  longlook::bench::parse_args(argc, argv);
  longlook::bench::banner(
      "QUIC server CC state residency: MotoG vs desktop (50 Mbps clean "
      "path, 20 MB transfer)",
      "Fig. 13 (Sec. 5.2)");

  const auto desktop = infer_for_device(desktop_profile());
  const auto motog = infer_for_device(motog_profile());
  report("Desktop", desktop);
  report("MotoG", motog);

  std::printf(
      "\nApplicationLimited time:  desktop %.1f%%  vs  MotoG %.1f%%   "
      "[paper: 7%% vs 58%%]\n"
      "Paper's finding: the MotoG parks the *server* in ApplicationLimited\n"
      "— the app, not the network, is the bottleneck on mobile.\n",
      desktop.time_fraction("ApplicationLimited") * 100,
      motog.time_fraction("ApplicationLimited") * 100);
  auto& ctx = longlook::bench::context();
  ctx.record_scalar(
      "Fig. 13 ApplicationLimited residency (basis points)", "desktop_bp",
      std::llround(desktop.time_fraction("ApplicationLimited") * 10000));
  ctx.record_scalar(
      "Fig. 13 ApplicationLimited residency (basis points)", "motog_bp",
      std::llround(motog.time_fraction("ApplicationLimited") * 10000));
  return longlook::bench::finish();
}
