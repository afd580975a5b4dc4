#include "replay.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <variant>

#include "cc/cubic_sender.h"
#include "http/h2_session.h"
#include "obs/profiler.h"
#include "quic/ack_manager.h"
#include "quic/connection.h"
#include "quic/frames.h"
#include "quic/sent_packet_manager.h"
#include "tcp/segment.h"

namespace longlook::perfbench {
namespace {

std::int64_t now_ns() { return obs::Profiler::wall_now_ns(); }

// Detaches the taps when the run's keep-alive is destroyed.
class TapGuard {
 public:
  explicit TapGuard(harness::Testbed& tb) : tb_(tb) {}
  TapGuard(const TapGuard&) = delete;
  TapGuard& operator=(const TapGuard&) = delete;
  ~TapGuard() {
    tb_.uplink().set_tap(nullptr);
    tb_.downlink().set_tap(nullptr);
  }

 private:
  harness::Testbed& tb_;
};

void tap_link(DirectionalLink& link, std::uint8_t dir, Capture& cap) {
  cap.link[dir] = link.config();
  link.set_tap([&cap, dir](LinkEvent kind, const Packet& p, TimePoint at) {
    std::uint32_t index = 0;
    if (kind == LinkEvent::kEnqueued) {
      index = static_cast<std::uint32_t>(cap.packets.size());
      cap.packets.push_back({p.proto, p.data});
      cap.by_seq[dir].emplace(p.emission_seq, index);
      cap.wire_bytes += p.wire_size();
    } else {
      index = cap.by_seq[dir].at(p.emission_seq);
    }
    cap.events.push_back({at, dir, kind, index});
  });
}

// The QUIC half: codec, then each endpoint's recovery, cc and ack state.
struct QuicReplay {
  const Capture& cap;
  ReplayTotals& out;
  std::vector<std::optional<quic::QuicPacket>> decoded;
  std::vector<double> window;  // pn span tracked at each ACK
  std::vector<double> ranges;  // ranges per built ACK frame

  void codec() {
    decoded.resize(cap.packets.size());
    for (std::size_t i = 0; i < cap.packets.size(); ++i) {
      const Bytes& wire = cap.packets[i].data;
      const std::int64_t t0 = now_ns();
      std::optional<quic::QuicPacket> p = quic::decode_packet(wire);
      const Bytes again = p ? quic::encode_packet(*p) : Bytes{};
      out.add(kQuicCodec, t0);
      if (!p || again != wire) ++out.quic_codec_mismatches;
      decoded[i] = std::move(p);
    }
    out.quic_wire_bytes += cap.wire_bytes;
  }

  // One endpoint: it sends on link direction `out_dir` and receives what
  // the other direction delivers. Mirrors the calls quic/connection.cc
  // makes per sent packet (send_quic_packet + set_retransmission_alarm)
  // and per received packet (process_packet + handle_ack).
  void endpoint(std::uint8_t out_dir) {
    const quic::QuicConfig config;
    quic::SentPacketManager spm(config.make_loss_config());
    RttEstimator rtt;
    CubicSender cc(rtt, config.make_cc_config());
    cc.on_connection_established(TimePoint{}, config.connection_window);
    quic::AckManager acks(config.ack);

    for (const TapEvent& ev : cap.events) {
      const std::optional<quic::QuicPacket>& p = decoded[ev.packet];
      if (!p) continue;
      if (ev.dir == out_dir && ev.kind == LinkEvent::kEnqueued) {
        send(*p, cap.packets[ev.packet].data.size(), ev.at, spm, rtt, cc,
             acks);
      } else if (ev.dir != out_dir && ev.kind == LinkEvent::kDelivered) {
        receive(*p, ev.at, spm, rtt, cc, acks);
      }
    }
  }

  void send(const quic::QuicPacket& p, std::size_t bytes, TimePoint at,
            quic::SentPacketManager& spm, RttEstimator& rtt, CubicSender& cc,
            quic::AckManager& acks) {
    bool rtx = false;
    bool has_ack = false;
    std::vector<quic::StreamDataRef> refs;
    for (const quic::Frame& f : p.frames) {
      rtx = rtx || quic::is_retransmittable(f);
      if (std::holds_alternative<quic::AckFrame>(f)) has_ack = true;
      if (const auto* sf = std::get_if<quic::StreamFrame>(&f)) {
        refs.push_back({sf->stream_id, sf->offset, sf->data.size(), sf->fin,
                        false, false});
      }
    }
    if (has_ack) {
      const std::int64_t t0 = now_ns();
      const quic::AckFrame ack = acks.build_ack(at);
      out.ns[kAckManager] += now_ns() - t0;
      ranges.push_back(static_cast<double>(ack.ranges.size()));
    }
    const std::size_t in_flight_before = spm.bytes_in_flight();
    const std::int64_t t0 = now_ns();
    if (has_ack) out.sink += spm.least_unacked();
    spm.on_packet_sent(p.packet_number, rtx ? bytes : 0, at, rtx,
                       std::move(refs));
    out.sink += spm.has_retransmittable_in_flight();
    out.sink += spm.earliest_loss_time(rtt).has_value();
    out.sink += static_cast<std::uint64_t>(
        spm.last_retransmittable_sent_time().time_since_epoch().count());
    const std::int64_t t1 = out.add(kRecoverySend, t0);
    if (rtx) {
      cc.on_packet_sent(at, p.packet_number, bytes, in_flight_before);
      out.sink += cc.can_send(spm.bytes_in_flight());
      out.add(kCongestionControl, t1);
    }
  }

  void receive(const quic::QuicPacket& p, TimePoint at,
               quic::SentPacketManager& spm, RttEstimator& rtt,
               CubicSender& cc, quic::AckManager& acks) {
    bool rtx = false;
    for (const quic::Frame& f : p.frames) {
      rtx = rtx || quic::is_retransmittable(f);
    }
    std::int64_t t0 = now_ns();
    const bool duplicate = acks.on_packet_received(at, p.packet_number, rtx);
    if (!duplicate) {
      for (const quic::Frame& f : p.frames) {
        if (const auto* sw = std::get_if<quic::StopWaitingFrame>(&f)) {
          acks.on_stop_waiting(sw->least_unacked);
        }
      }
    }
    out.sink += acks.ack_required_now();
    out.add(kAckManager, t0);
    if (duplicate) return;

    for (const quic::Frame& f : p.frames) {
      const auto* ack = std::get_if<quic::AckFrame>(&f);
      if (ack == nullptr) continue;
      window.push_back(static_cast<double>(spm.largest_sent() + 1) -
                       static_cast<double>(spm.least_unacked()));
      const std::size_t prior = spm.bytes_in_flight();
      t0 = now_ns();
      const quic::AckProcessResult r = spm.on_ack(*ack, at, rtt);
      out.sink += spm.has_retransmittable_in_flight();
      out.sink += spm.earliest_loss_time(rtt).has_value();
      const std::int64_t t1 = out.add(kRecoveryAck, t0);
      cc.on_congestion_event(at, prior, r.acked, r.lost);
      out.sink += cc.congestion_window();
      out.add(kCongestionControl, t1);
    }
  }
};

// TCP codec over every captured segment; returns the decoded segments.
std::vector<std::optional<tcp::TcpSegment>> replay_tcp_codec(
    const Capture& cap, ReplayTotals& out) {
  std::vector<std::optional<tcp::TcpSegment>> decoded(cap.packets.size());
  for (std::size_t i = 0; i < cap.packets.size(); ++i) {
    const Bytes& wire = cap.packets[i].data;
    const std::int64_t t0 = now_ns();
    std::optional<tcp::TcpSegment> s = tcp::decode_segment(wire);
    const Bytes again = s ? tcp::encode_segment(*s) : Bytes{};
    out.add(kTcpCodec, t0);
    if (!s || again != wire) ++out.tcp_codec_mismatches;
    decoded[i] = std::move(s);
  }
  return decoded;
}

// h2 framing over the in-order server -> client byte stream, rebuilt from
// the segments the downlink delivered. The stream opens with the modelled
// TLS flights, which are zero bytes; h2 stream ids start at 1, so the
// application stream begins at the first non-zero byte.
void replay_h2(const Capture& cap,
               const std::vector<std::optional<tcp::TcpSegment>>& segs,
               std::uint64_t expected_bytes, ReplayTotals& out) {
  std::map<std::uint64_t, const Bytes*> by_seq;
  for (const TapEvent& ev : cap.events) {
    if (ev.dir != 1 || ev.kind != LinkEvent::kDelivered) continue;
    const std::optional<tcp::TcpSegment>& s = segs[ev.packet];
    if (!s || s->payload.empty()) continue;
    const Bytes*& slot = by_seq[s->seq];
    if (slot == nullptr || slot->size() < s->payload.size()) {
      slot = &s->payload;
    }
  }
  std::vector<BytesView> chunks;
  std::uint64_t next = by_seq.empty() ? 0 : by_seq.begin()->first;
  bool app = false;
  for (const auto& [seq, payload] : by_seq) {
    if (seq > next) break;  // a hole: nothing after it is in order
    if (seq + payload->size() <= next) continue;
    BytesView fresh = BytesView(*payload).subspan(next - seq);
    next = seq + payload->size();
    if (!app) {
      std::size_t skip = 0;
      while (skip < fresh.size() && fresh[skip] == 0) ++skip;
      fresh = fresh.subspan(skip);
      app = !fresh.empty();
    }
    if (!fresh.empty()) chunks.push_back(fresh);
  }

  std::uint64_t framed = 0;
  http::H2Framer framer(
      [&framed](std::uint64_t, BytesView data, bool) { framed += data.size(); });
  const std::int64_t t0 = now_ns();
  for (BytesView chunk : chunks) framer.feed(chunk);
  out.add(kH2, t0);
  for (BytesView chunk : chunks) out.h2_bytes += chunk.size();
  if (framed != expected_bytes) ++out.h2_mismatches;
}

// A fresh DirectionalLink per direction with the run's LinkConfig, fed the
// captured enqueues at their virtual times. The time includes the
// simulator dispatch of each send and delivery.
void replay_links(const Capture& cap, ReplayTotals& out) {
  for (std::uint8_t dir = 0; dir < 2; ++dir) {
    Simulator sim;
    std::uint64_t delivered = 0;
    DirectionalLink link(sim, cap.link[dir],
                         [&delivered](Packet&&) { ++delivered; });
    std::uint64_t sent = 0;
    for (const TapEvent& ev : cap.events) {
      if (ev.dir != dir || ev.kind != LinkEvent::kEnqueued) continue;
      Packet p;
      p.proto = cap.packets[ev.packet].proto;
      p.data = cap.packets[ev.packet].data;
      sim.schedule_at(ev.at, [&link, p = std::move(p)]() mutable {
        link.send(std::move(p));
      });
      ++sent;
    }
    const std::int64_t t0 = now_ns();
    sim.run();
    out.ns[kLink] += now_ns() - t0;
    out.ops[kLink] += sent;
    out.sink += delivered;
  }
}

// A fresh Simulator fed one event per captured link event, at its time:
// scheduling plus dispatch.
void replay_sim(const Capture& cap, ReplayTotals& out) {
  Simulator sim;
  std::uint64_t fired = 0;
  const std::int64_t t0 = now_ns();
  for (const TapEvent& ev : cap.events) {
    sim.schedule_at(ev.at, [&fired] { ++fired; });
  }
  sim.run();
  out.ns[kSim] += now_ns() - t0;
  out.ops[kSim] += cap.events.size();
  out.sink += fired;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the data at or
  // below it.
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::int64_t ReplayTotals::add(Layer layer, std::int64_t start_ns) {
  const std::int64_t end = now_ns();
  ns[layer] += end - start_ns;
  ++ops[layer];
  return end;
}

std::shared_ptr<void> install_taps(harness::Testbed& tb, Capture& cap) {
  tap_link(tb.uplink(), 0, cap);
  tap_link(tb.downlink(), 1, cap);
  return std::make_shared<TapGuard>(tb);
}

void replay_round(const RoundCapture& rc, ReplayTotals& out,
                  std::vector<Span>& spans) {
  const auto span = [&](const char* name, auto&& fn) {
    Span s{rc.round, name, "replay", now_ns(), 0};
    fn();
    s.end_ns = now_ns();
    spans.push_back(std::move(s));
  };

  const LayerNs before = out.ns;
  QuicReplay quic{rc.quic, out, {}, {}, {}};
  span("quic.codec", [&] { quic.codec(); });
  // recovery, ackmgr and cc interleave per endpoint; their own timers
  // split the span.
  span("quic.endpoints", [&] {
    quic.endpoint(0);
    quic.endpoint(1);
  });
  std::vector<std::optional<tcp::TcpSegment>> segs;
  span("tcp.codec", [&] { segs = replay_tcp_codec(rc.tcp, out); });
  span("http.h2", [&] { replay_h2(rc.tcp, segs, rc.download_bytes, out); });
  span("net.link", [&] {
    replay_links(rc.quic, out);
    replay_links(rc.tcp, out);
  });
  span("sim", [&] {
    replay_sim(rc.quic, out);
    replay_sim(rc.tcp, out);
  });
  span("harness.testbed", [&] {
    const std::int64_t t0 = now_ns();
    { harness::Testbed tb(rc.scenario); }
    out.add(kTestbed, t0);
  });

  LayerNs delta{};
  for (int l = 0; l < kLayerCount; ++l) delta[l] = out.ns[l] - before[l];
  out.round_ns.push_back(delta);
  out.window_pkts_p50.push_back(quantile(quic.window, 0.5));
  out.ack_ranges_p50.push_back(quantile(quic.ranges, 0.5));
  if (!quic.window.empty()) {
    out.window_pkts_max = std::max(
        out.window_pkts_max,
        static_cast<std::int64_t>(
            *std::max_element(quic.window.begin(), quic.window.end())));
  }
}

}  // namespace longlook::perfbench
