#include "quic/sent_packet_manager.h"

#include <algorithm>

#include "util/check.h"

namespace longlook::quic {

void SentPacketManager::on_packet_sent(PacketNumber pn, std::size_t bytes,
                                       TimePoint now, bool retransmittable,
                                       std::vector<StreamDataRef> data) {
  SentPacketInfo info;
  info.bytes = bytes;
  info.sent_time = now;
  info.retransmittable = retransmittable;
  // Ack-only packets are not congestion controlled and never retransmitted,
  // so they don't count as in flight.
  info.in_flight = retransmittable;
  info.data = std::move(data);
  // Packet numbers are never reused: a duplicate would corrupt the in-flight
  // accounting and every loss-detection decision downstream. (Delayed
  // ack-emission means pn may arrive here out of order, so uniqueness — not
  // monotonicity — is the invariant.)
  const std::size_t tracked = packets_.size();
  packets_.emplace_hint(packets_.end(), pn, std::move(info));
  LL_INVARIANT(packets_.size() > tracked)
      << "packet number " << pn << " reused";
  const PacketNumber prior_largest = largest_sent_;
  largest_sent_ = std::max(largest_sent_, pn);
  if (!retransmittable) return;
  // A retransmittable packet is sent the moment it is numbered, so it is
  // the newest packet number yet and no older than any retransmittable
  // packet before it. The stale-loss GC in on_ack stops early on this.
  LL_INVARIANT(pn > prior_largest && now >= last_retransmittable_sent_)
      << "retransmittable pn " << pn << " sent out of order (largest sent "
      << prior_largest << ")";
  last_retransmittable_sent_ = now;
  bytes_in_flight_ += bytes;
  if (in_flight_count_ + lost_count_ == 0) floor_ = pn;
  ++in_flight_count_;
}

Duration SentPacketManager::loss_delay(const RttEstimator& rtt) const {
  const Duration base = std::max(rtt.smoothed(), rtt.latest());
  const auto ns = static_cast<std::int64_t>(
      static_cast<double>(base.count()) * config_.time_threshold);
  // Account for path delay variance and delayed acks: with jittery links
  // the ack for a reordered packet legitimately arrives several deviations
  // late, and a bare 9/8*SRTT threshold would re-declare those losses
  // forever.
  const Duration var_guard =
      rtt.smoothed() + 4 * rtt.mean_deviation() + milliseconds(25);
  return std::max({Duration(ns), var_guard, milliseconds(1)});
}

void SentPacketManager::declare_lost(PacketMap::iterator it,
                                     AckProcessResult& out) {
  SentPacketInfo& info = it->second;
  if (info.declared_lost || !info.in_flight) return;
  info.declared_lost = true;
  info.in_flight = false;
  --in_flight_count_;
  ++lost_count_;
  LL_INVARIANT(bytes_in_flight_ >= info.bytes)
      << "in-flight underflow declaring pn " << it->first << " lost ("
      << bytes_in_flight_ << " < " << info.bytes << ")";
  bytes_in_flight_ -= info.bytes;
  ++losses_declared_;
  out.lost.push_back({it->first, info.bytes});
  for (const StreamDataRef& ref : info.data) out.lost_data.push_back(ref);
  // Keep the entry so a late ACK can reveal the loss as spurious.
}

AckProcessResult SentPacketManager::on_ack(const AckFrame& ack, TimePoint now,
                                           RttEstimator& rtt) {
  AckProcessResult out;

  // ACK-frame consistency: the peer cannot ack packets we never sent, and
  // every range must be well-formed and covered by largest_acked.
  LL_INVARIANT(ack.largest_acked <= largest_sent_)
      << "peer acked unsent pn " << ack.largest_acked << " (largest sent "
      << largest_sent_ << ")";
  for (const AckRange& range : ack.ranges) {
    LL_INVARIANT(range.lo <= range.hi)
        << "inverted ack range [" << range.lo << ", " << range.hi << "]";
    LL_INVARIANT(range.hi <= ack.largest_acked)
        << "ack range [" << range.lo << ", " << range.hi
        << "] above largest_acked " << ack.largest_acked;
  }

  // Gap decisions below must see the ACK frame's own largest: the member is
  // only advanced after the range loop, and the frame that reveals a
  // spurious loss usually carries the new maximum, so using the stale value
  // understates the observed reordering depth.
  const PacketNumber effective_largest =
      std::max(largest_acked_, ack.largest_acked);

  // 1. Mark acked packets.
  for (const AckRange& range : ack.ranges) {
    auto it = packets_.lower_bound(range.lo);
    while (it != packets_.end() && it->first <= range.hi) {
      SentPacketInfo& info = it->second;
      if (info.declared_lost) {
        // The packet we declared lost arrived after all: reordering, not
        // loss. The adaptive mode reacts like TCP's DSACK handling and
        // deepens the NACK threshold (RR-TCP).
        ++spurious_losses_;
        out.spurious_loss_detected = true;
        if (config_.mode == LossDetectionMode::kAdaptiveNack) {
          const std::size_t observed_gap =
              effective_largest > it->first
                  ? static_cast<std::size_t>(effective_largest - it->first)
                  : nack_threshold_;
          nack_threshold_ = std::min(config_.max_nack_threshold,
                                     std::max(nack_threshold_, observed_gap + 1));
        }
        // The bytes were delivered: credit the CC (declare_lost already took
        // them out of flight, so there is no second in-flight decrement) and
        // hand the refs back so the queued retransmission is cancelled. The
        // late sample is skipped for RTT: it measures the reordering detour,
        // not the path.
        out.acked.push_back({it->first, info.bytes, info.sent_time});
        out.spurious_acked.push_back({it->first, info.bytes, info.sent_time});
        out.largest_newly_acked = std::max(out.largest_newly_acked, it->first);
        for (const StreamDataRef& ref : info.data) {
          out.spurious_data.push_back(ref);
        }
        --lost_count_;
        it = packets_.erase(it);
        continue;
      }
      if (info.in_flight) {
        LL_INVARIANT(bytes_in_flight_ >= info.bytes)
            << "in-flight underflow acking pn " << it->first;
        bytes_in_flight_ -= info.bytes;
        info.in_flight = false;
        --in_flight_count_;
      }
      out.acked.push_back({it->first, info.bytes, info.sent_time});
      out.largest_newly_acked = std::max(out.largest_newly_acked, it->first);
      if (it->first == ack.largest_acked) {
        rtt.update(now - info.sent_time, ack.ack_delay);
        out.rtt_updated = true;
        largest_acked_sent_time_ = info.sent_time;
      }
      it = packets_.erase(it);
    }
  }
  largest_acked_ = effective_largest;

  // 2. Loss detection over remaining unacked packets below largest_acked.
  const Duration delay = loss_delay(rtt);
  for (auto it = packets_.begin();
       it != packets_.end() && it->first < largest_acked_;) {
    SentPacketInfo& info = it->second;
    if (!info.retransmittable) {
      // Ack-only packet the peer never acked: nothing to track.
      it = packets_.erase(it);
      continue;
    }
    if (info.declared_lost) {
      ++it;
      continue;
    }
    bool lost = false;
    if (config_.mode == LossDetectionMode::kTimeThreshold) {
      lost = rtt.has_samples() && now - info.sent_time >= delay;
    } else {
      lost = largest_acked_ >= it->first + nack_threshold_;
    }
    if (lost) {
      declare_lost(it, out);
    }
    ++it;
  }

  // 3. Garbage-collect stale lost entries (no late ACK within ~2 RTOs).
  // Retransmittable send times never decrease as the packet number grows,
  // so the sweep starts at the floor (only ack-only entries lie below it)
  // and ends at the first retransmittable entry still inside the window.
  const Duration keep = 2 * rtt.retransmission_timeout();
  for (auto it = packets_.lower_bound(floor_);
       lost_count_ > 0 && it != packets_.end();) {
    const SentPacketInfo& info = it->second;
    if (info.retransmittable && now - info.sent_time <= keep) break;
    if (info.declared_lost) {
      --lost_count_;
      it = packets_.erase(it);
    } else {
      ++it;
    }
  }
  advance_floor();
  LL_DCHECK(in_flight_accounting_consistent())
      << "bytes_in_flight_ diverged from per-packet state after ACK of "
      << ack.largest_acked;
  return out;
}

void SentPacketManager::advance_floor() {
  if (in_flight_count_ + lost_count_ == 0) return;
  auto it = packets_.lower_bound(floor_);
  while (it != packets_.end() && !it->second.in_flight &&
         !it->second.declared_lost) {
    ++it;
  }
  if (it != packets_.end()) floor_ = it->first;
}

bool SentPacketManager::in_flight_accounting_consistent() const {
  std::size_t sum = 0;
  std::size_t in_flight = 0;
  std::size_t lost = 0;
  std::optional<PacketNumber> least;
  std::optional<TimePoint> last_sent;
  for (const auto& [pn, info] : packets_) {
    const bool tracked = info.in_flight || info.declared_lost;
    if (info.in_flight && info.declared_lost) return false;
    if (tracked != info.retransmittable) return false;
    if (!tracked) continue;
    if (pn < floor_) return false;
    if (last_sent && info.sent_time < *last_sent) return false;
    last_sent = info.sent_time;
    if (!least) least = pn;
    if (info.in_flight) {
      sum += info.bytes;
      ++in_flight;
    } else {
      ++lost;
    }
  }
  return sum == bytes_in_flight_ && in_flight == in_flight_count_ &&
         lost == lost_count_ && (!least || *least == floor_);
}

std::optional<TimePoint> SentPacketManager::earliest_loss_time(
    const RttEstimator& rtt) const {
  if (config_.mode != LossDetectionMode::kTimeThreshold || !rtt.has_samples()) {
    return std::nullopt;
  }
  // Send times never decrease with the packet number, so the first
  // in-flight packet below largest_acked_ is the first to expire.
  if (in_flight_count_ == 0) return std::nullopt;
  for (auto it = packets_.lower_bound(floor_);
       it != packets_.end() && it->first < largest_acked_; ++it) {
    if (it->second.in_flight) return it->second.sent_time + loss_delay(rtt);
  }
  return std::nullopt;
}

AckProcessResult SentPacketManager::detect_time_losses(
    TimePoint now, const RttEstimator& rtt) {
  AckProcessResult out;
  if (config_.mode != LossDetectionMode::kTimeThreshold) return out;
  // As in earliest_loss_time: once one in-flight packet is too young, so
  // are all the ones after it.
  const Duration delay = loss_delay(rtt);
  for (auto it = packets_.lower_bound(floor_);
       in_flight_count_ > 0 && it != packets_.end() &&
       it->first < largest_acked_;
       ++it) {
    const SentPacketInfo& info = it->second;
    if (!info.in_flight) continue;
    if (now - info.sent_time < delay) break;
    declare_lost(it, out);
  }
  return out;
}

std::vector<StreamDataRef> SentPacketManager::on_retransmission_timeout() {
  std::vector<StreamDataRef> out;
  for (auto& [pn, info] : packets_) {
    if (!info.in_flight) continue;
    info.in_flight = false;
    info.declared_lost = true;
    --in_flight_count_;
    ++lost_count_;
    LL_INVARIANT(bytes_in_flight_ >= info.bytes)
        << "in-flight underflow on RTO for pn " << pn;
    bytes_in_flight_ -= info.bytes;
    if (info.retransmittable) {
      for (const StreamDataRef& ref : info.data) out.push_back(ref);
    }
  }
  return out;
}

std::vector<StreamDataRef> SentPacketManager::tail_loss_probe_data() const {
  // Most recent unacked retransmittable packet's data.
  for (auto it = packets_.rbegin(); it != packets_.rend(); ++it) {
    if (it->second.retransmittable && it->second.in_flight &&
        !it->second.data.empty()) {
      return it->second.data;
    }
  }
  return {};
}

PacketNumber SentPacketManager::least_unacked() const {
  // Declared-lost entries are deliberately kept until a late ACK can render
  // a verdict (spurious or genuine). They are still unacked: advancing
  // STOP_WAITING past them would make the peer purge exactly the ack ranges
  // whose late arrival reveals the reordering, so the adaptive NACK
  // threshold could never deepen.
  return in_flight_count_ + lost_count_ == 0 ? largest_sent_ + 1 : floor_;
}

}  // namespace longlook::quic
