// State-machine inference walkthrough (the paper's Sec. 4.2/5.1 method):
// run QUIC transfers under contrasting conditions, collect the server's CC
// execution traces, and emit the inferred state machine as Graphviz DOT —
// pipe it into `dot -Tpng` to draw your own Fig. 3a.
//
// Usage: infer_state_machine > quic_cc.dot
#include <cstdio>
#include <iostream>

#include "harness/compare.h"
#include "smi/inference.h"

using namespace longlook;

namespace {

void collect_trace(smi::StateMachineInference& inference,
                   const harness::Scenario& scenario, std::size_t objects,
                   std::size_t bytes) {
  smi::StateRecorder recorder("cc:state");
  harness::CompareOptions opts;
  opts.timeout = seconds(120);
  opts.quic.trace = &recorder;
  harness::SingleRun<harness::Protocol::kQuic> run(scenario, {objects, bytes},
                                                   opts);
  run.finish();
  inference.add_trace(recorder.trace(TimePoint{}, run.testbed().sim().now()));
}

}  // namespace

int main() {
  smi::StateMachineInference inference;

  harness::Scenario clean;
  clean.rate_bps = 50'000'000;
  collect_trace(inference, clean, 1, 10 * 1024 * 1024);

  harness::Scenario lossy;
  lossy.rate_bps = 10'000'000;
  lossy.loss_rate = 0.02;
  lossy.seed = 2;
  collect_trace(inference, lossy, 1, 2 * 1024 * 1024);

  harness::Scenario constrained;
  constrained.rate_bps = 50'000'000;
  constrained.device = motog_profile();
  constrained.seed = 3;
  collect_trace(inference, constrained, 1, 10 * 1024 * 1024);

  // The DOT graph goes to stdout; commentary to stderr.
  std::cout << inference.to_dot("quic_cubic_cc");
  std::fprintf(stderr, "\nInferred from %zu traces. States observed:\n",
               inference.trace_count());
  for (const auto& state : inference.states()) {
    std::fprintf(stderr, "  %-26s %5.1f%% of time, %llu visits\n",
                 state.c_str(), inference.time_fraction(state) * 100,
                 static_cast<unsigned long long>(inference.visits(state)));
  }
  std::fprintf(stderr,
               "\nInvariant check: Init always precedes SlowStart: %s\n",
               inference.always_precedes("Init", "SlowStart") ? "yes" : "no");
  return 0;
}
