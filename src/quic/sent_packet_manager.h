// Sender-side bookkeeping: in-flight packets, ACK processing, and loss
// detection.
//
// Loss detection is the paper's Fig. 10 subject. gQUIC declares a packet
// lost once `nack_threshold` (default 3) packets with higher numbers have
// been acked — a fixed threshold, so reordering deeper than 3 packets
// produces false losses and spurious recovery. We implement three modes:
//   kFixedNack    — gQUIC behaviour (the paper's finding);
//   kAdaptiveNack — DSACK-style: late ACKs for packets already declared
//                   lost raise the threshold (RR-TCP [41], what the paper
//                   recommends QUIC adopt);
//   kTimeThreshold — time-based (9/8 * max(srtt, latest)), the "time-based
//                   solution" the QUIC team told the authors they were
//                   experimenting with.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cc/rtt_estimator.h"
#include "cc/types.h"
#include "quic/frames.h"
#include "quic/types.h"

namespace longlook::quic {

enum class LossDetectionMode { kFixedNack, kAdaptiveNack, kTimeThreshold };

struct LossDetectionConfig {
  LossDetectionMode mode = LossDetectionMode::kFixedNack;
  std::size_t nack_threshold = 3;
  std::size_t max_nack_threshold = 64;  // cap for the adaptive mode
  double time_threshold = 9.0 / 8.0;    // fraction of max(srtt, latest)
};

// A contiguous piece of stream data carried by a packet; on loss it is
// re-queued with the stream for retransmission (QUIC never resends the same
// packet number).
struct StreamDataRef {
  StreamId stream_id = 0;
  std::uint64_t offset = 0;  // for handshake refs: index into the sent log
  std::size_t len = 0;
  bool fin = false;
  bool handshake = false;       // handshake message (re-queued from the log)
  bool window_update = false;   // WINDOW_UPDATE (regenerated on loss)
};

struct SentPacketInfo {
  std::size_t bytes = 0;
  TimePoint sent_time{};
  bool retransmittable = false;
  bool in_flight = false;
  bool declared_lost = false;
  std::vector<StreamDataRef> data;
};

struct AckProcessResult {
  std::vector<AckedPacket> acked;       // newly acked, for the CC
  std::vector<LostPacket> lost;         // newly declared lost, for the CC
  std::vector<StreamDataRef> lost_data; // stream data to retransmit
  // Packets that had been declared lost but were acked after all: the loss
  // was spurious. They also appear in `acked` (the bytes were delivered, so
  // the CC must credit them); their stream data is listed in spurious_data
  // so the connection can cancel the retransmission it queued at
  // declare-lost time instead of double-sending.
  std::vector<AckedPacket> spurious_acked;
  std::vector<StreamDataRef> spurious_data;
  bool rtt_updated = false;
  bool spurious_loss_detected = false;  // a "lost" packet was acked late
  PacketNumber largest_newly_acked = 0;
};

class SentPacketManager {
 public:
  explicit SentPacketManager(LossDetectionConfig config) : config_(config) {}

  void on_packet_sent(PacketNumber pn, std::size_t bytes, TimePoint now,
                      bool retransmittable, std::vector<StreamDataRef> data);

  // Processes an ACK frame: updates RTT, marks acked, detects losses.
  AckProcessResult on_ack(const AckFrame& ack, TimePoint now,
                          RttEstimator& rtt);

  // RTO fired: all in-flight data is handed back for retransmission and the
  // packets leave the in-flight accounting (classic TCP-style RTO).
  std::vector<StreamDataRef> on_retransmission_timeout();

  // TLP probe: data of the most recent unacked retransmittable packet.
  std::vector<StreamDataRef> tail_loss_probe_data() const;

  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  bool has_retransmittable_in_flight() const { return in_flight_count_ > 0; }
  TimePoint last_retransmittable_sent_time() const {
    return last_retransmittable_sent_;
  }
  PacketNumber largest_sent() const { return largest_sent_; }
  PacketNumber least_unacked() const;
  std::size_t current_nack_threshold() const { return nack_threshold_; }

  // Earliest time a not-yet-lost packet would cross the time threshold
  // (for arming a loss alarm in kTimeThreshold mode).
  std::optional<TimePoint> earliest_loss_time(const RttEstimator& rtt) const;
  // Re-runs time-based loss detection at alarm time.
  AckProcessResult detect_time_losses(TimePoint now, const RttEstimator& rtt);

  std::uint64_t total_packets_declared_lost() const { return losses_declared_; }
  std::uint64_t total_spurious_losses() const { return spurious_losses_; }

 private:
  using PacketMap = std::map<PacketNumber, SentPacketInfo>;

  void declare_lost(PacketMap::iterator it, AckProcessResult& out);
  Duration loss_delay(const RttEstimator& rtt) const;
  // Moves floor_ up to the least entry that is in flight or declared lost.
  void advance_floor();
  // bytes_in_flight_, the two counts and floor_ match a scan of packets_,
  // and retransmittable send times are ordered by packet number (O(n),
  // LL_DCHECK-only).
  bool in_flight_accounting_consistent() const;

  LossDetectionConfig config_;
  std::size_t nack_threshold_{config_.nack_threshold};
  // Every retransmittable entry is either in flight or declared lost until
  // it is erased; ack-only entries are neither.
  PacketMap packets_;
  std::size_t bytes_in_flight_ = 0;
  std::size_t in_flight_count_ = 0;
  std::size_t lost_count_ = 0;
  // Only ack-only entries lie below floor_. While either count is non-zero
  // it is the least in-flight or declared-lost packet number, which is what
  // least_unacked() reports. It only moves forward, so it steps over each
  // ack-only entry at most once.
  PacketNumber floor_ = 0;
  PacketNumber largest_sent_ = 0;
  PacketNumber largest_acked_ = 0;
  TimePoint largest_acked_sent_time_{};
  TimePoint last_retransmittable_sent_{};
  std::uint64_t losses_declared_ = 0;
  std::uint64_t spurious_losses_ = 0;
};

}  // namespace longlook::quic
