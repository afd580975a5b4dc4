// Randomised property tests: core data structures checked against simple
// oracles under thousands of random operation sequences (seeded, so every
// failure is reproducible).
//
//  * QuicStream reassembly: any permutation of (possibly overlapping,
//    duplicated) frames delivers the exact original byte sequence once.
//  * AckManager ranges: always equal to a reference std::set of received
//    packet numbers.
//  * SentPacketManager: after every send, ACK, loss alarm and RTO, each
//    query and every AckProcessResult equals a reference model that keeps
//    the manager's original scan-everything bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "quic/ack_manager.h"
#include "quic/sent_packet_manager.h"
#include "quic/stream.h"
#include "util/rng.h"

namespace longlook::quic {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + milliseconds(ms); }

class RandomSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSeed, ReassemblyDeliversExactBytesUnderAnyFrameSchedule) {
  Rng rng(GetParam());
  const std::size_t total = 2000 + rng.uniform_int(6000);
  Bytes payload(total);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());

  // Cut the payload into random frames, duplicate ~30%, shuffle fully.
  struct Piece {
    std::uint64_t offset = 0;
    std::size_t len = 0;
    bool fin = false;
  };
  std::vector<Piece> pieces;
  std::size_t off = 0;
  while (off < total) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.uniform_int(900), total - off);
    pieces.push_back({off, len, off + len == total});
    off += len;
  }
  const std::size_t original = pieces.size();
  for (std::size_t i = 0; i < original; ++i) {
    if (rng.bernoulli(0.3)) pieces.push_back(pieces[rng.uniform_int(original)]);
  }
  for (std::size_t i = pieces.size(); i > 1; --i) {
    std::swap(pieces[i - 1], pieces[rng.uniform_int(i)]);
  }

  QuicStream stream(3, 1 << 22, 1 << 22);
  Bytes received;
  int fin_signals = 0;
  stream.set_on_data([&](BytesView data, bool fin) {
    received.insert(received.end(), data.begin(), data.end());
    if (fin) ++fin_signals;
  });
  for (const Piece& p : pieces) {
    (void)stream.on_stream_frame(p.offset,
                                 BytesView(payload).subspan(p.offset, p.len),
                                 p.fin);
  }
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);       // byte-exact, no reordering/duplication
  EXPECT_EQ(fin_signals, 1);          // FIN delivered exactly once
  EXPECT_TRUE(stream.receive_finished());
}

TEST_P(RandomSeed, AckManagerRangesMatchReferenceSet) {
  Rng rng(GetParam() * 7 + 1);
  AckManager am;
  std::set<PacketNumber> reference;
  // Packet numbers arrive with sender-like locality (a sliding window with
  // bounded reordering) so the manager's 64-range bound never evicts state;
  // eviction under pathological gap patterns is a documented memory bound,
  // not an accounting error, and is tested separately.
  for (int i = 0; i < 3000; ++i) {
    const PacketNumber pn =
        1 + static_cast<PacketNumber>(i) / 3 + rng.uniform_int(30);
    const bool duplicate =
        am.on_packet_received(at_ms(i), pn, rng.bernoulli(0.9));
    EXPECT_EQ(duplicate, reference.count(pn) > 0) << "pn " << pn;
    reference.insert(pn);
    if (rng.bernoulli(0.05)) am.build_ack(at_ms(i));
    if (rng.bernoulli(0.02) && !reference.empty()) {
      // STOP_WAITING somewhere behind the frontier.
      const PacketNumber least =
          *reference.begin() +
          rng.uniform_int(*reference.rbegin() - *reference.begin() + 1);
      am.on_stop_waiting(least);
      reference.erase(reference.begin(), reference.lower_bound(least));
    }
  }
  // Flatten the manager's ranges and compare with the reference set.
  std::set<PacketNumber> flattened;
  for (const AckRange& r : am.ranges()) {
    ASSERT_LE(r.lo, r.hi);
    for (PacketNumber pn = r.lo; pn <= r.hi; ++pn) flattened.insert(pn);
  }
  EXPECT_EQ(flattened, reference);
  // Ranges must be disjoint and ascending with gaps between them.
  for (std::size_t i = 1; i < am.ranges().size(); ++i) {
    EXPECT_GT(am.ranges()[i].lo, am.ranges()[i - 1].hi + 1);
  }
}

// Reference model for the SentPacketManager differential test below: the
// manager's original bookkeeping, in which every query and every sweep
// walks the whole packet map. It shares only the public types with the
// real manager.
class ScanningSentPackets {
 public:
  explicit ScanningSentPackets(LossDetectionConfig config) : config_(config) {}

  void on_packet_sent(PacketNumber pn, std::size_t bytes, TimePoint now,
                      bool retransmittable, std::vector<StreamDataRef> data) {
    SentPacketInfo& info = packets_[pn];
    info.bytes = bytes;
    info.sent_time = now;
    info.retransmittable = retransmittable;
    info.in_flight = retransmittable;
    info.data = std::move(data);
    largest_sent_ = std::max(largest_sent_, pn);
    if (retransmittable) {
      last_retransmittable_sent_ = now;
      bytes_in_flight_ += bytes;
    }
  }

  AckProcessResult on_ack(const AckFrame& ack, TimePoint now,
                          RttEstimator& rtt) {
    AckProcessResult out;
    const PacketNumber largest = std::max(largest_acked_, ack.largest_acked);
    for (const AckRange& range : ack.ranges) {
      auto it = packets_.lower_bound(range.lo);
      while (it != packets_.end() && it->first <= range.hi) {
        const PacketNumber pn = it->first;
        const SentPacketInfo& info = it->second;
        out.acked.push_back({pn, info.bytes, info.sent_time});
        out.largest_newly_acked = std::max(out.largest_newly_acked, pn);
        if (info.declared_lost) {
          ++spurious_losses_;
          out.spurious_loss_detected = true;
          if (config_.mode == LossDetectionMode::kAdaptiveNack) {
            const std::size_t gap = largest > pn
                                        ? static_cast<std::size_t>(largest - pn)
                                        : nack_threshold_;
            nack_threshold_ = std::min(config_.max_nack_threshold,
                                       std::max(nack_threshold_, gap + 1));
          }
          out.spurious_acked.push_back({pn, info.bytes, info.sent_time});
          for (const StreamDataRef& ref : info.data) {
            out.spurious_data.push_back(ref);
          }
        } else {
          if (info.in_flight) bytes_in_flight_ -= info.bytes;
          if (pn == ack.largest_acked) {
            rtt.update(now - info.sent_time, ack.ack_delay);
            out.rtt_updated = true;
          }
        }
        it = packets_.erase(it);
      }
    }
    largest_acked_ = largest;

    const Duration delay = loss_delay(rtt);
    for (auto it = packets_.begin();
         it != packets_.end() && it->first < largest_acked_;) {
      if (!it->second.retransmittable) {
        it = packets_.erase(it);
        continue;
      }
      const bool lost =
          config_.mode == LossDetectionMode::kTimeThreshold
              ? rtt.has_samples() && now - it->second.sent_time >= delay
              : largest_acked_ >= it->first + nack_threshold_;
      if (lost) declare_lost(*it, out);
      ++it;
    }

    const Duration keep = 2 * rtt.retransmission_timeout();
    for (auto it = packets_.begin(); it != packets_.end();) {
      if (it->second.declared_lost && now - it->second.sent_time > keep) {
        ++stale_collected_;
        it = packets_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  std::vector<StreamDataRef> on_retransmission_timeout() {
    std::vector<StreamDataRef> out;
    for (auto& [pn, info] : packets_) {
      if (!info.in_flight) continue;
      info.in_flight = false;
      info.declared_lost = true;
      bytes_in_flight_ -= info.bytes;
      for (const StreamDataRef& ref : info.data) out.push_back(ref);
    }
    return out;
  }

  AckProcessResult detect_time_losses(TimePoint now, const RttEstimator& rtt) {
    AckProcessResult out;
    if (config_.mode != LossDetectionMode::kTimeThreshold) return out;
    const Duration delay = loss_delay(rtt);
    for (auto& entry : packets_) {
      if (entry.first >= largest_acked_) break;
      if (entry.second.in_flight && now - entry.second.sent_time >= delay) {
        declare_lost(entry, out);
      }
    }
    return out;
  }

  std::optional<TimePoint> earliest_loss_time(const RttEstimator& rtt) const {
    if (config_.mode != LossDetectionMode::kTimeThreshold ||
        !rtt.has_samples()) {
      return std::nullopt;
    }
    std::optional<TimePoint> earliest;
    for (const auto& [pn, info] : packets_) {
      if (pn >= largest_acked_) break;
      if (!info.in_flight) continue;
      const TimePoint t = info.sent_time + loss_delay(rtt);
      if (!earliest || t < *earliest) earliest = t;
    }
    return earliest;
  }

  std::vector<StreamDataRef> tail_loss_probe_data() const {
    for (auto it = packets_.rbegin(); it != packets_.rend(); ++it) {
      if (it->second.in_flight && !it->second.data.empty()) {
        return it->second.data;
      }
    }
    return {};
  }

  bool has_retransmittable_in_flight() const {
    return std::any_of(packets_.begin(), packets_.end(), [](const auto& e) {
      return e.second.retransmittable && e.second.in_flight;
    });
  }

  PacketNumber least_unacked() const {
    for (const auto& [pn, info] : packets_) {
      if (info.in_flight || info.declared_lost) return pn;
    }
    return largest_sent_ + 1;
  }

  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  TimePoint last_retransmittable_sent_time() const {
    return last_retransmittable_sent_;
  }
  PacketNumber largest_sent() const { return largest_sent_; }
  std::size_t current_nack_threshold() const { return nack_threshold_; }
  std::uint64_t total_packets_declared_lost() const { return losses_; }
  std::uint64_t total_spurious_losses() const { return spurious_losses_; }
  std::uint64_t stale_entries_collected() const { return stale_collected_; }

 private:
  Duration loss_delay(const RttEstimator& rtt) const {
    const Duration base = std::max(rtt.smoothed(), rtt.latest());
    const Duration scaled(static_cast<std::int64_t>(
        static_cast<double>(base.count()) * config_.time_threshold));
    const Duration var_guard =
        rtt.smoothed() + 4 * rtt.mean_deviation() + milliseconds(25);
    return std::max({scaled, var_guard, milliseconds(1)});
  }

  void declare_lost(std::pair<const PacketNumber, SentPacketInfo>& entry,
                    AckProcessResult& out) {
    SentPacketInfo& info = entry.second;
    if (info.declared_lost || !info.in_flight) return;
    info.declared_lost = true;
    info.in_flight = false;
    bytes_in_flight_ -= info.bytes;
    ++losses_;
    out.lost.push_back({entry.first, info.bytes});
    for (const StreamDataRef& ref : info.data) out.lost_data.push_back(ref);
  }

  LossDetectionConfig config_;
  std::size_t nack_threshold_{config_.nack_threshold};
  std::map<PacketNumber, SentPacketInfo> packets_;
  std::size_t bytes_in_flight_ = 0;
  PacketNumber largest_sent_ = 0;
  PacketNumber largest_acked_ = 0;
  TimePoint last_retransmittable_sent_{};
  std::uint64_t losses_ = 0;
  std::uint64_t spurious_losses_ = 0;
  std::uint64_t stale_collected_ = 0;
};

void print_refs(std::ostream& os, const std::vector<StreamDataRef>& refs) {
  for (const StreamDataRef& r : refs) {
    os << " {" << r.stream_id << "," << r.offset << "," << r.len << ","
       << r.fin << r.handshake << r.window_update << "}";
  }
}

void print_acked(std::ostream& os, const std::vector<AckedPacket>& acked) {
  for (const AckedPacket& a : acked) {
    os << " " << a.packet_number << ":" << a.bytes << "@"
       << a.sent_time.time_since_epoch().count();
  }
}

// Every field of an AckProcessResult, in order.
std::string describe(const AckProcessResult& r) {
  std::ostringstream os;
  os << "acked";
  print_acked(os, r.acked);
  os << "\nlost";
  for (const LostPacket& l : r.lost) {
    os << " " << l.packet_number << ":" << l.bytes;
  }
  os << "\nlost_data";
  print_refs(os, r.lost_data);
  os << "\nspurious_acked";
  print_acked(os, r.spurious_acked);
  os << "\nspurious_data";
  print_refs(os, r.spurious_data);
  os << "\nrtt_updated " << r.rtt_updated << " spurious "
     << r.spurious_loss_detected << " largest " << r.largest_newly_acked;
  return os.str();
}

// Every query the connection makes between events, plus the RTT estimate
// on_ack feeds.
template <typename Manager>
std::string describe(const Manager& m, const RttEstimator& rtt) {
  std::ostringstream os;
  os << "rtx_in_flight " << m.has_retransmittable_in_flight()
     << " least_unacked " << m.least_unacked() << " bytes_in_flight "
     << m.bytes_in_flight() << " largest_sent " << m.largest_sent()
     << " nack_threshold " << m.current_nack_threshold() << " lost "
     << m.total_packets_declared_lost() << " spurious "
     << m.total_spurious_losses() << " last_rtx_sent "
     << m.last_retransmittable_sent_time().time_since_epoch().count()
     << " srtt " << rtt.smoothed().count() << " loss_time ";
  if (const auto t = m.earliest_loss_time(rtt)) {
    os << t->time_since_epoch().count();
  } else {
    os << "none";
  }
  os << "\ntlp";
  print_refs(os, m.tail_loss_probe_data());
  return os.str();
}

TEST_P(RandomSeed, SentPacketManagerFlightAccountingMatchesOracle) {
  Rng rng(GetParam() * 13 + 5);
  LossDetectionConfig cfg;
  cfg.mode = static_cast<LossDetectionMode>(GetParam() % 3);
  // A low cap keeps the adaptive threshold within the reordering the ACKs
  // below produce, so that mode still declares losses.
  cfg.max_nack_threshold = 4 + GetParam();
  SentPacketManager spm(cfg);
  ScanningSentPackets model(cfg);
  RttEstimator rtt;
  RttEstimator model_rtt;
  TimePoint now{};
  PacketNumber next_pn = 1;
  std::uint64_t next_offset = 0;
  // Ack-only packets numbered but not yet sent: QuicConnection::send_ack_now
  // numbers a packet and may emit it later, after higher numbers went out.
  std::vector<PacketNumber> delayed_acks;

  auto send = [&](PacketNumber pn, std::size_t bytes, bool retransmittable,
                  const std::vector<StreamDataRef>& data) {
    spm.on_packet_sent(pn, bytes, now, retransmittable, data);
    model.on_packet_sent(pn, bytes, now, retransmittable, data);
  };

  for (int step = 0; step < 4000; ++step) {
    // Mostly sub-RTT steps; now and then a stall past 2 RTO, after which
    // the stale declared-lost entries are collected.
    now += rng.bernoulli(0.01) ? milliseconds(400 + rng.uniform_int(3000))
                               : microseconds(rng.uniform_int(8000));
    const double dice = rng.uniform();
    if (dice < 0.40) {
      const std::size_t len = 100 + rng.uniform_int(1200);
      std::vector<StreamDataRef> data;
      if (!rng.bernoulli(0.1)) {
        data.push_back({3, next_offset, len, false, false, false});
        next_offset += len;
      }
      send(next_pn++, len + 40, true, data);
    } else if (dice < 0.50) {
      if (rng.bernoulli(0.5)) {
        send(next_pn, 0, false, {});
      } else {
        delayed_acks.push_back(next_pn);
      }
      ++next_pn;
    } else if (dice < 0.56 && !delayed_acks.empty()) {
      const std::size_t i = rng.uniform_int(delayed_acks.size());
      send(delayed_acks[i], 0, false, {});
      delayed_acks.erase(delayed_acks.begin() +
                         static_cast<std::ptrdiff_t>(i));
    } else if (dice < 0.88 && spm.largest_sent() > 0) {
      // Up to three descending ranges near the frontier, and sometimes a
      // late ACK for the oldest unacked packet: a spurious loss if it was
      // declared lost, nothing at all once the GC has dropped it.
      const PacketNumber top = spm.largest_sent();
      AckFrame ack;
      ack.largest_acked =
          top - std::min<PacketNumber>(top - 1, rng.uniform_int(12));
      ack.ack_delay = microseconds(rng.uniform_int(5000));
      PacketNumber hi = ack.largest_acked;
      for (std::uint64_t r = 1 + rng.uniform_int(3); r > 0; --r) {
        const PacketNumber lo =
            hi - std::min<PacketNumber>(hi - 1, rng.uniform_int(6));
        ack.ranges.push_back({lo, hi});
        const PacketNumber gap = 2 + rng.uniform_int(10);
        if (lo <= gap) break;
        hi = lo - gap;
      }
      const PacketNumber oldest = model.least_unacked();
      if (rng.bernoulli(0.3) && oldest < ack.ranges.back().lo) {
        ack.ranges.push_back({oldest, oldest});
      }
      ASSERT_EQ(describe(spm.on_ack(ack, now, rtt)),
                describe(model.on_ack(ack, now, model_rtt)))
          << "step " << step;
    } else if (dice < 0.985) {
      ASSERT_EQ(describe(spm.detect_time_losses(now, rtt)),
                describe(model.detect_time_losses(now, model_rtt)))
          << "step " << step;
    } else {
      std::ostringstream real;
      std::ostringstream oracle;
      print_refs(real, spm.on_retransmission_timeout());
      print_refs(oracle, model.on_retransmission_timeout());
      ASSERT_EQ(real.str(), oracle.str()) << "step " << step;
    }
    ASSERT_EQ(describe(spm, rtt), describe(model, model_rtt))
        << "step " << step;
  }
  // The run went through every path the bookkeeping shortcuts.
  EXPECT_GT(model.total_packets_declared_lost(), 0u);
  EXPECT_GT(model.total_spurious_losses(), 0u);
  EXPECT_GT(model.stale_entries_collected(), 0u);
}

TEST_P(RandomSeed, StreamChunkingCoversEveryByteExactlyOnce) {
  Rng rng(GetParam() * 31 + 9);
  const std::size_t total = 5000 + rng.uniform_int(20000);
  QuicStream stream(3, 1 << 22, 1 << 22);
  stream.write(Bytes(total, 0xAA), true);

  std::vector<bool> covered(total, false);
  bool fin_seen = false;
  while (stream.has_pending_data()) {
    const std::size_t max_len = 1 + rng.uniform_int(1350);
    auto chunk = stream.take_chunk(max_len, 1 << 22);
    ASSERT_TRUE(chunk.has_value());
    for (std::size_t i = 0; i < chunk->data.size(); ++i) {
      const std::size_t pos = static_cast<std::size_t>(chunk->offset) + i;
      ASSERT_LT(pos, total);
      EXPECT_FALSE(covered[pos]) << "byte sent twice without requeue";
      covered[pos] = true;
    }
    fin_seen |= chunk->fin;
    // Occasionally pretend a chunk was lost and requeue it: coverage stays
    // exact because we un-mark before the retransmission re-covers it.
    if (rng.bernoulli(0.1) && !chunk->data.empty()) {
      for (std::size_t i = 0; i < chunk->data.size(); ++i) {
        covered[static_cast<std::size_t>(chunk->offset) + i] = false;
      }
      stream.requeue(chunk->offset, chunk->data.size(), chunk->fin);
      fin_seen &= !chunk->fin;
    }
  }
  EXPECT_TRUE(fin_seen);
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool b) { return b; }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeed, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace longlook::quic
