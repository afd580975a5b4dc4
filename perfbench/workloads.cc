#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/rng.h"

namespace longlook::perfbench {
namespace {

// page_load: the Fig. 6 space sampled continuously. bulk_transfer: one
// 10 MB download per round. lossy_reorder: the Fig. 10 path with 1% loss, a
// download and an upload at once. Every workload runs one round at a time:
// with two workers on a 4-vCPU VM, page_load's throughput swung by about 8%
// from run to run at a fixed seed, against about 1% with one.
const WorkloadDef kWorkloads[] = {
    // name           pool digest warm-up capture
    {"page_load", 256, 16, 8, 32},
    {"bulk_transfer", 64, 4, 1, 6},
    {"lossy_reorder", 256, 4, 2, 8},
};

constexpr std::int64_t kPageRates[] = {5'000'000, 10'000'000, 50'000'000,
                                       100'000'000};

// Rng stream `stream` of `seed`: the pool, the warm-up rounds and the warm
// fetch draw from separate streams.
Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1);
}

RoundInput base_round(const WorkloadDef& def, Rng& rng) {
  RoundInput in;
  in.scenario.name = def.name;
  in.scenario.seed = rng.next();
  if (def.name == "bulk_transfer") {
    in.scenario.rate_bps = 100'000'000;
    in.dsl = "*1:0:-:397:10000000;";
  } else if (def.name == "lossy_reorder") {
    in.scenario.rate_bps = 20'000'000;
    in.scenario.extra_rtt = milliseconds(76);  // 36 + 76 = 112 ms RTT
    in.scenario.jitter = milliseconds(10);
    in.scenario.loss_rate = 0.01;
    in.dsl = "*1:0:-:397:4000000;*1:4:-:1000000:397;";
  }
  return in;
}

// Log-uniform over [lo, hi] at quantile u in [0, 1).
std::uint64_t log_uniform_at(double u, double lo, double hi) {
  return static_cast<std::uint64_t>(std::llround(
      std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)))));
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_int(i)]);
  }
}

// page_load's pool, stratified so that every seed draws the same mix up to
// jitter: half the rounds fetch one object whose size is log-uniform over
// 10 KB..10 MB, half fetch N x 10 KB with N log-uniform over 1..200. Stratum
// k of each half draws its quantile from [k/h, (k+1)/h), and every block of
// four strata uses each rate once. The seed moves each draw inside its
// stratum, the rate assignment and the order of the pool.
void fill_page_load(std::vector<RoundInput>& pool, Rng& rng) {
  const std::size_t half = pool.size() / 2;
  std::vector<std::size_t> rates = {0, 1, 2, 3};
  for (std::size_t k = 0; k < half; ++k) {
    if (k % 4 == 0) shuffle(rates, rng);
    const double h = static_cast<double>(half);
    const auto u = [&] { return (static_cast<double>(k) + rng.uniform()) / h; };
    RoundInput& single = pool[2 * k];
    single.scenario.rate_bps = kPageRates[rates[k % 4]];
    single.dsl = "*1:0:-:page=1x" +
                 std::to_string(log_uniform_at(u(), 10e3, 10e6)) + ";";
    RoundInput& page = pool[2 * k + 1];
    page.scenario.rate_bps = kPageRates[rates[(k + 2) % 4]];
    page.dsl = "*1:0:-:page=" + std::to_string(log_uniform_at(u(), 1, 200)) +
               "x10240;";
  }
  shuffle(pool, rng);
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<RoundInput> generate_pool(const WorkloadDef& def,
                                      std::uint64_t seed) {
  Rng rng = stream_rng(seed, 0);
  std::vector<RoundInput> pool;
  pool.reserve(def.pool);
  for (std::size_t i = 0; i < def.pool; ++i) {
    pool.push_back(base_round(def, rng));
  }
  if (def.name == "page_load") fill_page_load(pool, rng);
  return pool;
}

RoundInput warmup_round(const WorkloadDef& def, std::uint64_t seed,
                        std::uint64_t k) {
  Rng rng = stream_rng(seed, 1 + k);
  RoundInput in = base_round(def, rng);
  if (def.name == "page_load") {
    in.scenario.rate_bps = 50'000'000;
    in.dsl = k % 2 == 0 ? "*1:0:-:page=1x1000000;" : "*1:0:-:page=20x10240;";
  }
  return in;
}

RoundInput warm_fetch_input(const WorkloadDef& def, std::uint64_t seed) {
  Rng rng = stream_rng(seed, 0);
  RoundInput in = base_round(def, rng);
  in.scenario.seed += 7919;
  if (def.name == "page_load") in.scenario.rate_bps = 50'000'000;
  in.dsl = "*1:0:-:page=1x1024;";
  return in;
}

bool parse_inputs(std::vector<RoundInput>& inputs) {
  for (RoundInput& in : inputs) {
    workload::ParseResult r = workload::parse_scenario(in.dsl);
    if (!r.ok()) {
      std::fprintf(stderr, "longlook_bench: %s\n", r.error.c_str());
      return false;
    }
    in.spec = std::move(*r.spec);
  }
  return true;
}

}  // namespace longlook::perfbench
