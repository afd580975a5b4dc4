// Traced-run capture and per-layer replay.
//
// In the traced run, taps on the testbed's access link (the testbed's
// tcpdump point, Testbed::uplink()/downlink()) copy every enqueued packet
// with its virtual time, plus every drop and delivery, into memory. The
// taps only read: the simulation they observe is unchanged, which the
// driver checks by comparing each traced round's digest with the untraced
// run of the same round.
//
// After the timed phase the capture is replayed through each layer's public
// functions, one layer at a time, and each call is wall-timed. A layer's
// replay time divided by the traced round's wall time is its share.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/testbed.h"
#include "net/link.h"

namespace longlook::perfbench {

struct TapEvent {
  TimePoint at{};
  std::uint8_t dir = 0;  // 0: uplink (client -> router), 1: downlink
  LinkEvent kind = LinkEvent::kEnqueued;
  std::uint32_t packet = 0;  // index into Capture::packets
};

struct CapturedPacket {
  IpProto proto = IpProto::kUdp;
  Bytes data;
};

// What the access-link taps saw during one run (one stack of one round).
struct Capture {
  LinkConfig link[2];
  std::vector<CapturedPacket> packets;
  std::vector<TapEvent> events;
  std::uint64_t wire_bytes = 0;  // enqueued, IP/UDP/TCP headers included
  // Per direction: emission_seq -> index into packets.
  std::unordered_map<std::uint64_t, std::uint32_t> by_seq[2];
};

// Installs taps on `tb`'s access link that append into `cap`. The returned
// keep-alive detaches them when destroyed (before the testbed is).
std::shared_ptr<void> install_taps(harness::Testbed& tb, Capture& cap);

// One wall-clock span, kept in memory and written once at the end.
struct Span {
  std::uint64_t round = 0;
  std::string name;
  std::string parent;  // empty for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// One captured round: its inputs and both stacks' captures.
struct RoundCapture {
  std::uint64_t round = 0;
  harness::Scenario scenario;
  std::uint64_t upload_bytes = 0;    // spec totals
  std::uint64_t download_bytes = 0;
  Capture quic;
  Capture tcp;
};

// Layers whose replay is timed; indexes ReplayTotals::ns.
enum Layer {
  kQuicCodec,
  kRecoverySend,
  kRecoveryAck,
  kAckManager,
  kCongestionControl,
  kTcpCodec,
  kH2,
  kLink,
  kSim,
  kTestbed,
  kLayerCount,
};
using LayerNs = std::array<std::int64_t, kLayerCount>;

// Replay totals over every captured round. Times are wall ns.
struct ReplayTotals {
  LayerNs ns{};                   // summed over rounds
  std::vector<LayerNs> round_ns;  // one entry per replayed round
  LayerNs ops{};                  // calls or items timed, per layer
  std::uint64_t quic_codec_mismatches = 0;
  std::uint64_t tcp_codec_mismatches = 0;
  std::uint64_t h2_mismatches = 0;  // rounds whose framed bytes != spec
  std::uint64_t h2_bytes = 0;
  std::uint64_t quic_wire_bytes = 0;
  // Per round: median pn span tracked by SentPacketManager at an ACK, and
  // median ranges per ACK frame the AckManager built.
  std::vector<double> window_pkts_p50;
  std::vector<double> ack_ranges_p50;
  std::int64_t window_pkts_max = 0;
  // Folds query results so the timed calls cannot be optimised away.
  std::uint64_t sink = 0;

  // Charges one timed call to `layer`; returns the end time.
  std::int64_t add(Layer layer, std::int64_t start_ns);
};

// Nearest-rank q-quantile of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

// Replays one captured round through every layer, appending a span per
// layer to `spans`.
void replay_round(const RoundCapture& rc, ReplayTotals& out,
                  std::vector<Span>& spans);

}  // namespace longlook::perfbench
