// Benchmark workloads: each one turns (workload seed, round index) into the
// inputs of one paired round — a harness::Scenario (the emulated path) and
// a scenario-DSL string (what the client fetches). The harness only ever
// sees these generated inputs; the seed stays in the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/testbed.h"
#include "workload/scenario.h"

namespace longlook::perfbench {

struct RoundInput {
  harness::Scenario scenario;
  std::string dsl;
  workload::ScenarioSpec spec;  // filled by parse_inputs()
};

struct WorkloadDef {
  std::string name;
  std::size_t pool = 0;    // distinct generated rounds; the schedule cycles
  std::size_t digest_rounds = 0;  // rounds pinned by the recorded digest
  std::size_t warmup_rounds = 0;  // untimed rounds run during set-up
  std::size_t capture_rounds = 0;  // traced rounds kept for the replay
};

// nullptr for an unknown name.
const WorkloadDef* find_workload(const std::string& name);

// The `def.pool` rounds the timed phase cycles through; deterministic in
// `seed`.
std::vector<RoundInput> generate_pool(const WorkloadDef& def,
                                      std::uint64_t seed);

// Warm-up round `k`. Its shape does not depend on the seed, so set-up time
// does not swing with the seed's round mix.
RoundInput warmup_round(const WorkloadDef& def, std::uint64_t seed,
                        std::uint64_t k);

// The 0-RTT warm fetch run once per set-up to fill the token cache.
RoundInput warm_fetch_input(const WorkloadDef& def, std::uint64_t seed);

// Parses every input's DSL into its spec; returns false (and names the
// error on stderr) if any string is rejected.
bool parse_inputs(std::vector<RoundInput>& inputs);

}  // namespace longlook::perfbench
