// Run helpers the shared runner (compare.cc) lends to the fairness runner
// (fairness.cc). Internal to the harness — benches and tests use the public
// entry points in compare.h / perf.h / fairness.h.
#pragma once

#include "harness/testbed.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace longlook::harness::detail {

// Trace epilogue: plt_ns on completion, timed_out otherwise.
void emit_run_summary(obs::TraceSink* sink, bool done, Duration plt,
                      TimePoint now);

// Registers the testbed's access-link queues (dirs "up" / "down") and the
// client / server hosts with the sampler. Registration order is fixed, so
// `ts:` record order within a tick is too.
void register_testbed_probes(obs::StateSampler& sampler, Testbed& tb);

}  // namespace longlook::harness::detail
