// The Cubic send algorithm used by both substrates:
//   QUIC flavour — N-connection emulation (N=2 in v34, 1 in v37), pacing,
//     per-ACK growth, MACW clamp (107 public / 430 Chrome / 2000 dev);
//   TCP flavour — N=1, no pacing, Linux-style HyStart clamp.
//
// It also owns the Table-3 state machine: every transition is reported to
// the StateTracker, which emits it as a "cc:state" event and keeps no log.
// That is what the paper's added instrumentation did to Chromium (Sec. 5.1).
#pragma once

#include <algorithm>
#include <memory>

#include "cc/cubic.h"
#include "cc/hystart.h"
#include "cc/pacer.h"
#include "cc/prr.h"
#include "cc/send_algorithm.h"
#include "util/check.h"

namespace longlook {

struct CubicSenderConfig {
  std::size_t mss = kDefaultMss;
  int num_connections = 2;           // gQUIC default in v34
  std::size_t initial_cwnd_packets = 32;
  // Maximum allowed congestion window (MACW) in packets. The paper's
  // central calibration knob: 107 (public release default), 430 (matches
  // Google's servers / Chrome at v34), 2000 (Chromium dev channel / v37).
  std::size_t max_cwnd_packets = 430;
  std::size_t min_cwnd_packets = 2;
  HystartConfig hystart{};
  bool pacing_enabled = true;
  // Chromium-52 server bug (Sec. 4.1): ssthresh is NOT raised to the
  // receiver-advertised buffer, so slow start exits early.
  bool ssthresh_from_rwnd_bug = false;
  // Buggy builds start with this small ssthresh; fixed builds start
  // unbounded until the peer's advertised buffer arrives.
  std::size_t buggy_initial_ssthresh_packets = 60;
};

class CubicSender final : public SendAlgorithm {
 public:
  CubicSender(const RttEstimator& rtt, CubicSenderConfig config);

  // Connection-establishment complete: leave Init. Also delivers the
  // receiver-advertised buffer so ssthresh can be raised (unless the
  // Chromium-52 bug flag is set, reproducing the early-exit pathology).
  void on_connection_established(TimePoint now,
                                 std::size_t receiver_buffer_bytes);

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
  std::size_t ssthresh() const override { return ssthresh_; }
  bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  bool in_recovery() const override { return in_recovery_; }

  StateTracker& tracker() override { return tracker_; }
  const StateTracker& tracker() const override { return tracker_; }

  std::uint64_t pacing_rate_bps() const override {
    return config_.pacing_enabled
               ? static_cast<std::uint64_t>(pacer_.rate_bytes_per_sec())
               : 0;
  }

  // Also emits "cc:cwnd" events whenever cwnd/ssthresh change.
  void set_trace(obs::TraceSink* sink, std::string side) override;

  const CubicSenderConfig& config() const { return config_; }
  std::size_t max_congestion_window() const {
    return config_.max_cwnd_packets * config_.mss;
  }

 private:
  void enter_recovery(TimePoint now, std::size_t bytes_in_flight);
  void maybe_exit_recovery(PacketNumber largest_acked);
  void grow_window(TimePoint now, const AckedPacket& acked,
                   std::size_t prior_in_flight);
  void update_state(TimePoint now);
  // Emits a "cc:cwnd" event if cwnd or ssthresh moved since the last one.
  void emit_window(TimePoint now);

  // The Table-3 window bounds every transition must respect: cwnd stays
  // within [min_cwnd, max(MACW, initial cwnd)] and ssthresh never drops
  // below the minimum window. Called after every window mutation.
  void check_window_invariants() const {
    const std::size_t floor = config_.min_cwnd_packets * config_.mss;
    const std::size_t ceiling = std::max(
        max_congestion_window(), config_.initial_cwnd_packets * config_.mss);
    LL_INVARIANT(cwnd_ >= floor)
        << "cwnd " << cwnd_ << " below minimum window " << floor;
    LL_INVARIANT(cwnd_ <= ceiling)
        << "cwnd " << cwnd_ << " above MACW ceiling " << ceiling;
    LL_INVARIANT(ssthresh_ >= floor)
        << "ssthresh " << ssthresh_ << " below minimum window " << floor;
  }

  const RttEstimator& rtt_;
  CubicSenderConfig config_;
  Cubic cubic_;
  HybridSlowStart hystart_;
  ProportionalRateReduction prr_;
  Pacer pacer_;
  StateTracker tracker_;

  std::size_t cwnd_ = 0;
  std::size_t ssthresh_ = 0;
  bool established_ = false;
  bool in_recovery_ = false;
  bool app_limited_ = false;
  bool rto_outstanding_ = false;
  PacketNumber recovery_end_ = 0;
  PacketNumber largest_sent_ = 0;

  obs::TraceSink* trace_sink_ = nullptr;
  std::string trace_side_;
  std::size_t last_traced_cwnd_ = 0;
  std::size_t last_traced_ssthresh_ = 0;
};

}  // namespace longlook
