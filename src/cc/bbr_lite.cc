#include "cc/bbr_lite.h"

#include <algorithm>

namespace longlook {

namespace {
// Standard 8-phase ProbeBW pacing-gain cycle.
constexpr double kCycleGains[] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
}  // namespace

BbrLite::BbrLite(const RttEstimator& rtt, BbrConfig config)
    : rtt_(rtt),
      config_(config),
      cc_tracker_(CcState::kSlowStart),
      cwnd_(config.initial_cwnd_packets * config.mss),
      pacing_gain_(config.startup_gain),
      cwnd_gain_(config.startup_gain) {}

void BbrLite::set_trace(obs::TraceSink* sink, std::string side) {
  trace_sink_ = sink;
  trace_side_ = std::move(side);
  cc_tracker_.set_trace(sink, trace_side_);
}

void BbrLite::emit_window(TimePoint now) {
  if (trace_sink_ == nullptr || cwnd_ == last_traced_cwnd_) return;
  last_traced_cwnd_ = cwnd_;
  trace_sink_->record(
      obs::TraceEvent("cc:cwnd", now)
          .s("side", trace_side_)
          .u("cwnd", cwnd_)
          .u("pacing_Bps",
             static_cast<std::uint64_t>(pacing_rate_bytes_per_sec())));
}

void BbrLite::enter(TimePoint now, BbrState s) {
  if (s == state_) return;
  if (trace_sink_ != nullptr) {
    trace_sink_->record(obs::TraceEvent("cc:bbr_state", now)
                            .s("side", trace_side_)
                            .s("from", to_string(state_))
                            .s("to", to_string(s)));
  }
  state_ = s;
  switch (s) {
    case BbrState::kStartup:
      pacing_gain_ = cwnd_gain_ = config_.startup_gain;
      cc_tracker_.transition(now, CcState::kSlowStart);
      break;
    case BbrState::kDrain:
      pacing_gain_ = 1.0 / config_.startup_gain;
      cwnd_gain_ = config_.startup_gain;
      cc_tracker_.transition(now, CcState::kCongestionAvoidance);
      break;
    case BbrState::kProbeBw:
      cycle_index_ = 0;
      cycle_start_ = now;
      pacing_gain_ = kCycleGains[0];
      cwnd_gain_ = 2.0;
      cc_tracker_.transition(now, CcState::kCongestionAvoidance);
      break;
    case BbrState::kProbeRtt:
      saved_cwnd_ = cwnd_;
      cwnd_ = config_.min_cwnd_packets * config_.mss;
      probe_rtt_done_ = now + config_.probe_rtt_duration;
      cc_tracker_.transition(now, CcState::kApplicationLimited);
      break;
  }
}

std::size_t BbrLite::bdp_bytes() const {
  if (max_bandwidth_bps_ <= 0 || min_rtt_ <= kNoDuration) {
    return config_.initial_cwnd_packets * config_.mss;
  }
  return static_cast<std::size_t>(max_bandwidth_bps_ / 8.0 *
                                  to_seconds(min_rtt_));
}

void BbrLite::on_packet_sent(TimePoint now, PacketNumber pn, std::size_t bytes,
                             std::size_t bytes_in_flight_before) {
  (void)bytes_in_flight_before;
  largest_sent_ = std::max(largest_sent_, pn);
  // Book the pacing gap for this transmission.
  const double rate = pacing_rate_bytes_per_sec();
  if (rate <= 0) return;
  if (next_send_ < now) next_send_ = now;
  next_send_ += Duration(static_cast<std::int64_t>(
      static_cast<double>(bytes) / rate * 1e9));
}

double BbrLite::pacing_rate_bytes_per_sec() const {
  if (max_bandwidth_bps_ > 0) return pacing_gain_ * max_bandwidth_bps_ / 8.0;
  const Duration srtt =
      rtt_.has_samples() ? rtt_.smoothed() : RttEstimator::kInitialRtt;
  return pacing_gain_ * static_cast<double>(cwnd_) / to_seconds(srtt);
}

void BbrLite::update_bandwidth(TimePoint now,
                               const std::vector<AckedPacket>& acked) {
  for (const auto& ap : acked) {
    delivered_bytes_ += static_cast<double>(ap.bytes);
    if (ap.packet_number > round_end_) {
      // Round trip completed.
      ++round_;
      round_end_ = largest_sent_;
      if (delivered_stamp_ != TimePoint{}) {
        const double dt = to_seconds(now - delivered_stamp_);
        if (dt > 0) {
          const double bps = delivered_bytes_ * 8.0 / dt;
          bw_samples_.emplace_back(round_, bps);
        }
      }
      delivered_stamp_ = now;
      delivered_bytes_ = 0;
      while (!bw_samples_.empty() &&
             bw_samples_.front().first + config_.bw_filter_rounds < round_) {
        bw_samples_.pop_front();
      }
      double mx = 0;
      for (const auto& [r, bps] : bw_samples_) mx = std::max(mx, bps);
      const double prev = max_bandwidth_bps_;
      max_bandwidth_bps_ = mx;
      // Full-pipe detection: bandwidth stopped growing >=25% for 3 rounds.
      if (!full_pipe_) {
        if (max_bandwidth_bps_ >= full_bw_ * 1.25) {
          full_bw_ = max_bandwidth_bps_;
          full_bw_rounds_ = 0;
        } else if (++full_bw_rounds_ >= 3 && prev > 0) {
          full_pipe_ = true;
        }
      }
    }
  }
}

void BbrLite::update_cycle(TimePoint now) {
  if (state_ != BbrState::kProbeBw) return;
  const Duration phase = min_rtt_ > kNoDuration ? min_rtt_ : milliseconds(10);
  if (now - cycle_start_ >= phase) {
    cycle_index_ = (cycle_index_ + 1) % 8;
    cycle_start_ = now;
    pacing_gain_ = kCycleGains[cycle_index_];
  }
}

void BbrLite::on_congestion_event(TimePoint now, std::size_t prior_in_flight,
                                  const std::vector<AckedPacket>& acked,
                                  const std::vector<LostPacket>& lost) {
  (void)lost;  // BBR ignores isolated losses by design.
  if (rtt_.has_samples()) {
    if (min_rtt_ == kNoDuration || rtt_.latest() <= min_rtt_) {
      min_rtt_ = rtt_.latest();
      min_rtt_stamp_ = now;
    }
  }
  update_bandwidth(now, acked);

  switch (state_) {
    case BbrState::kStartup:
      if (full_pipe_) enter(now, BbrState::kDrain);
      break;
    case BbrState::kDrain:
      if (prior_in_flight <= bdp_bytes()) enter(now, BbrState::kProbeBw);
      break;
    case BbrState::kProbeBw:
      update_cycle(now);
      if (min_rtt_stamp_ != TimePoint{} &&
          now - min_rtt_stamp_ > config_.min_rtt_window) {
        enter(now, BbrState::kProbeRtt);
      }
      break;
    case BbrState::kProbeRtt:
      if (now >= probe_rtt_done_) {
        min_rtt_stamp_ = now;  // refreshed by draining the queue
        if (rtt_.has_samples()) min_rtt_ = rtt_.latest();
        cwnd_ = std::max(saved_cwnd_, config_.min_cwnd_packets * config_.mss);
        enter(now, full_pipe_ ? BbrState::kProbeBw : BbrState::kStartup);
      }
      break;
  }

  if (state_ != BbrState::kProbeRtt) {
    const std::size_t target = static_cast<std::size_t>(
        cwnd_gain_ * static_cast<double>(bdp_bytes()));
    cwnd_ = std::max(target, config_.min_cwnd_packets * config_.mss);
  }
  emit_window(now);
}

void BbrLite::on_retransmission_timeout(TimePoint now) {
  cwnd_ = config_.min_cwnd_packets * config_.mss;
  cc_tracker_.transition(now, CcState::kRetransmissionTimeout);
  emit_window(now);
}

void BbrLite::on_tail_loss_probe(TimePoint now) {
  cc_tracker_.transition(now, CcState::kTailLossProbe);
}

void BbrLite::on_application_limited(TimePoint now) {
  cc_tracker_.transition(now, CcState::kApplicationLimited);
}

bool BbrLite::can_send(std::size_t bytes_in_flight) const {
  return bytes_in_flight < cwnd_;
}

TimePoint BbrLite::earliest_departure(TimePoint now) const {
  return next_send_ > now ? next_send_ : now;
}

}  // namespace longlook
