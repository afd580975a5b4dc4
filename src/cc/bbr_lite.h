// BbrLite — a compact model-based sender implementing BBR's four-state
// machine (Startup / Drain / ProbeBW / ProbeRTT).
//
// The paper instruments QUIC's then-experimental BBR only to demonstrate
// that state-machine inference adapts to a new CC with little effort
// (Fig. 3b took ~5 hours of instrumentation). We reproduce exactly that:
// a functional BBR with a max-bandwidth filter, min-RTT probing, and a
// pacing-gain cycle, emitting its transitions as "cc:bbr_state" events for
// smi/.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "cc/send_algorithm.h"

namespace longlook {

struct BbrConfig {
  std::size_t mss = kDefaultMss;
  std::size_t initial_cwnd_packets = 32;
  std::size_t min_cwnd_packets = 4;
  double startup_gain = 2.885;  // 2/ln(2)
  Duration min_rtt_window = seconds(10);
  Duration probe_rtt_duration = milliseconds(200);
  int bw_filter_rounds = 10;
};

class BbrLite final : public SendAlgorithm {
 public:
  BbrLite(const RttEstimator& rtt, BbrConfig config);

  void on_packet_sent(TimePoint now, PacketNumber pn, std::size_t bytes,
                      std::size_t bytes_in_flight_before) override;
  void on_congestion_event(TimePoint now, std::size_t prior_in_flight,
                           const std::vector<AckedPacket>& acked,
                           const std::vector<LostPacket>& lost) override;
  void on_retransmission_timeout(TimePoint now) override;
  void on_tail_loss_probe(TimePoint now) override;
  void on_application_limited(TimePoint now) override;

  bool can_send(std::size_t bytes_in_flight) const override;
  TimePoint earliest_departure(TimePoint now) const override;

  std::size_t congestion_window() const override { return cwnd_; }
  std::size_t ssthresh() const override { return 0; }
  bool in_slow_start() const override { return state_ == BbrState::kStartup; }
  bool in_recovery() const override { return false; }

  StateTracker& tracker() override { return cc_tracker_; }
  const StateTracker& tracker() const override { return cc_tracker_; }

  // Also emits "cc:bbr_state" on BBR-machine transitions and "cc:cwnd" on
  // window changes.
  void set_trace(obs::TraceSink* sink, std::string side) override;

  BbrState state() const { return state_; }
  double bandwidth_estimate_bps() const { return max_bandwidth_bps_; }

  std::uint64_t pacing_rate_bps() const override {
    return static_cast<std::uint64_t>(pacing_rate_bytes_per_sec());
  }

 private:
  void enter(TimePoint now, BbrState s);
  void update_bandwidth(TimePoint now, const std::vector<AckedPacket>& acked);
  void update_cycle(TimePoint now);
  std::size_t bdp_bytes() const;
  double pacing_rate_bytes_per_sec() const;

  const RttEstimator& rtt_;
  BbrConfig config_;
  BbrState state_ = BbrState::kStartup;
  StateTracker cc_tracker_;  // coarse Table-3 mirror for shared tooling

  std::size_t cwnd_ = 0;
  double pacing_gain_ = 2.885;
  double cwnd_gain_ = 2.885;

  // Max-bandwidth filter: (round, bps) samples, windowed by rounds.
  std::deque<std::pair<std::uint64_t, double>> bw_samples_;
  double max_bandwidth_bps_ = 0;
  std::uint64_t round_ = 0;
  PacketNumber round_end_ = 0;
  PacketNumber largest_sent_ = 0;

  // Startup full-pipe detection.
  double full_bw_ = 0;
  int full_bw_rounds_ = 0;
  bool full_pipe_ = false;

  // ProbeBW gain cycling.
  int cycle_index_ = 0;
  TimePoint cycle_start_{};

  // ProbeRTT scheduling.
  TimePoint min_rtt_stamp_{};
  Duration min_rtt_ = kNoDuration;
  TimePoint probe_rtt_done_{};
  std::size_t saved_cwnd_ = 0;

  TimePoint next_send_{};
  double delivered_bytes_ = 0;
  TimePoint delivered_stamp_{};

  // Structured tracing (see emit_window).
  void emit_window(TimePoint now);
  obs::TraceSink* trace_sink_ = nullptr;
  std::string trace_side_;
  std::size_t last_traced_cwnd_ = 0;
};

}  // namespace longlook
