// Periodic internal-state sampling (trace schema v3 `ts:` records).
//
// The paper's root-cause methodology lives on *timelines* — cwnd evolution
// (Figs. 5/9), fairness over time (Fig. 4), bandwidth tracking (Fig. 11) —
// not just discrete protocol events. StateSampler is the substrate: a
// virtual-time periodic sampler that snapshots per-connection congestion
// state (via the Sampleable interface the transports implement), per-link
// queue depth / drop counters, and per-host aggregate egress, and emits
// each snapshot as an integer-only `ts:` record into a TraceSink.
//
// Like every obs:: producer the sampler is deterministic by construction:
// samples are taken at exact virtual-time multiples of the interval, every
// value is an integer or a fixed string, and registration order (creation
// order inside a single-threaded run) fixes record order within a tick —
// so `ts:` artifacts are byte-identical at any LL_JOBS. When no sink is
// attached nothing is formatted and nothing allocates; when no sampler is
// configured at all, transports pay one null-pointer compare at
// construction (the same zero-cost contract as TraceSink).
//
// The sampler owns no timer: the sim layer drives it (sim::PeriodicTimer
// in the harness runners), keeping obs:: free of simulator dependencies.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/time.h"

namespace longlook::obs {

// Snapshot of one connection's congestion state at a sampling instant.
// Integer-only so `ts:` records render identically on every platform.
struct ConnSample {
  std::uint64_t cwnd_bytes = 0;
  std::uint64_t ssthresh_bytes = 0;  // clamped; huge == "unbounded"
  std::int64_t srtt_ns = 0;          // 0 before the first RTT sample
  std::int64_t rttvar_ns = 0;
  std::uint64_t bytes_in_flight = 0;
  std::uint64_t pacing_bps = 0;      // bytes/sec; 0 when unpaced
  std::uint64_t delivered_bytes = 0; // stream bytes delivered to the app
};

// Implemented by transport connections (quic::QuicConnection,
// tcp::TcpConnection) so the sampler can snapshot them without knowing
// transport types. Connections self-register via their config's `sampler`
// pointer: register in the constructor, deregister in the destructor, so
// server-side connections created mid-run are picked up automatically.
class Sampleable {
 public:
  virtual ~Sampleable() = default;
  virtual void sample_state(ConnSample& out) const = 0;
  virtual std::string_view sample_proto() const = 0;  // "quic" / "tcp"
  virtual std::string_view sample_side() const = 0;   // "client" / "server"
  // Stable key shared by both endpoints of one flow (QUIC: the connection
  // id; TCP: the client's ephemeral port, which the server sees as the
  // peer port). Lets consumers join client/server sample series.
  virtual std::uint64_t sample_flow_id() const = 0;
};

// Per-link (router queue) snapshot; drop counters are cumulative.
struct QueueSample {
  std::int64_t depth_bytes = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t delivered = 0;
};

// Per-host aggregate egress/ingress; all counters cumulative.
struct HostSample {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_packets = 0;
};

class StateSampler {
 public:
  // `sink` may be null: sampling then only feeds retained flow timelines
  // (run_fairness).
  explicit StateSampler(TraceSink* sink) : sink_(sink) {}
  StateSampler(const StateSampler&) = delete;
  StateSampler& operator=(const StateSampler&) = delete;

  // --- Registration (single-threaded with sample(); see class comment) ---

  void add_connection(const Sampleable* conn);
  void remove_connection(const Sampleable* conn);

  void add_queue(std::string dir, std::function<QueueSample()> probe);
  void add_host(std::string name, std::function<HostSample()> probe);

  // Harness-level flow probes (run_fairness): sampled like connections but
  // the caller owns the snapshot logic (e.g. client-delivered bytes joined
  // with the server-side cwnd). Emitted as `ts:flow` records keyed by
  // `name`, and every sample is also retained in memory so the caller can
  // rebuild timelines without re-parsing the artifact. Returns the flow's
  // index for flow_timeline().
  std::size_t add_flow(std::string name, std::function<ConnSample()> probe);

  struct FlowPoint {
    TimePoint at{};
    ConnSample sample;
  };
  const std::vector<FlowPoint>& flow_timeline(std::size_t index) const {
    return flows_[index].timeline;
  }

  // --- Sampling ---

  // Takes one snapshot of everything registered, emitting one `ts:` record
  // per connection/queue/host/flow timestamped `now`. Driven by the
  // harness at fixed virtual-time intervals.
  void sample(TimePoint now);

  std::uint64_t ticks() const { return ticks_; }
  // Total `ts:` records emitted (the `ts_samples` profile counter).
  std::uint64_t records_emitted() const { return records_; }

 private:
  struct QueueReg {
    std::string dir;
    std::function<QueueSample()> probe;
  };
  struct HostReg {
    std::string name;
    std::function<HostSample()> probe;
  };
  struct FlowReg {
    std::string name;
    std::function<ConnSample()> probe;
    std::vector<FlowPoint> timeline;
  };

  TraceSink* sink_ = nullptr;
  std::vector<const Sampleable*> conns_;
  std::vector<QueueReg> queues_;
  std::vector<HostReg> hosts_;
  std::vector<FlowReg> flows_;
  std::uint64_t ticks_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace longlook::obs
