// Unit tests: TCP segment wire format, configuration derivation, and the
// receiver's SACK/window bookkeeping against a brute-force model. (The
// connection state machine is exercised end-to-end in test_tcp_e2e.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "tcp/connection.h"
#include "tcp/segment.h"
#include "util/rng.h"

namespace longlook::tcp {
namespace {

TEST(TcpSegment, PlainDataRoundTrip) {
  TcpSegment seg;
  seg.src_port = 40001;
  seg.dst_port = 443;
  seg.seq = 1'000'000;
  seg.ack = 999'999;
  seg.ack_flag = true;
  seg.window = 6 * 1024 * 1024;
  seg.ts_val = 123456789;
  seg.ts_ecr = 987654321;
  seg.payload = Bytes(1430, 0x5A);
  const Bytes wire = encode_segment(seg);
  const auto out = decode_segment(wire);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->src_port, 40001);
  EXPECT_EQ(out->dst_port, 443);
  EXPECT_EQ(out->seq, 1'000'000u);
  EXPECT_EQ(out->ack, 999'999u);
  EXPECT_TRUE(out->ack_flag);
  EXPECT_EQ(out->window, 6u * 1024 * 1024);
  EXPECT_EQ(out->ts_val, 123456789u);
  EXPECT_EQ(out->ts_ecr, 987654321u);
  EXPECT_EQ(out->payload, seg.payload);
}

TEST(TcpSegment, FlagsRoundTrip) {
  for (int mask = 0; mask < 32; ++mask) {
    TcpSegment seg;
    seg.syn = mask & 1;
    seg.fin = mask & 2;
    seg.ack_flag = mask & 4;
    seg.rst = mask & 8;
    seg.dsack = mask & 16;
    if (seg.dsack) seg.sack.push_back({10, 20});
    const auto out = decode_segment(encode_segment(seg));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->syn, seg.syn);
    EXPECT_EQ(out->fin, seg.fin);
    EXPECT_EQ(out->ack_flag, seg.ack_flag);
    EXPECT_EQ(out->rst, seg.rst);
    EXPECT_EQ(out->dsack, seg.dsack);
  }
}

TEST(TcpSegment, SackBlocksRoundTrip) {
  TcpSegment seg;
  seg.sack = {{100, 200}, {300, 400}, {500, 600}};
  seg.dsack = true;
  const auto out = decode_segment(encode_segment(seg));
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->sack.size(), 3u);
  EXPECT_EQ(out->sack[0].start, 100u);
  EXPECT_EQ(out->sack[2].end, 600u);
  EXPECT_TRUE(out->dsack);
}

TEST(TcpSegment, TruncationRejected) {
  TcpSegment seg;
  seg.payload = Bytes(100, 1);
  const Bytes wire = encode_segment(seg);
  for (std::size_t len : {std::size_t{0}, std::size_t{10}, wire.size() - 1}) {
    EXPECT_FALSE(decode_segment(BytesView(wire).first(len)).has_value());
  }
}

TEST(TcpSegment, OverheadCoversEncodedHeader) {
  TcpSegment seg;
  seg.sack = {{1, 2}, {3, 4}};
  const Bytes wire = encode_segment(seg);
  EXPECT_LE(wire.size(), segment_overhead(seg.sack.size()));
}

TEST(TcpConfig, CcConfigMirrorsLinuxDefaults) {
  TcpConfig cfg;
  const CubicSenderConfig cc = cfg.make_cc_config();
  EXPECT_EQ(cc.num_connections, 1);     // no N-connection emulation
  EXPECT_EQ(cc.initial_cwnd_packets, 10u);  // IW10
  EXPECT_FALSE(cc.pacing_enabled);      // stock kernel: no pacing
  EXPECT_FALSE(cc.ssthresh_from_rwnd_bug);
  EXPECT_EQ(cc.mss, kTcpMss);
}

// --- Scoreboard invariants (src/tcp/connection.cc LL_INVARIANTs) ---------
//
// A standalone client connection with no route: outbound segments vanish,
// and we feed crafted segments straight into on_segment() to hit the
// sequence-space invariants that e2e traffic can never trigger.

TcpConfig plain_config() {
  TcpConfig cfg;
  cfg.tls_enabled = false;  // established right after the SYN-ACK
  return cfg;
}

struct LoneClient {
  Simulator sim;
  Host host{sim, 1, "client"};
  TcpConnection conn;

  explicit LoneClient(const TcpConfig& cfg = plain_config())
      : conn(sim, host, cfg, /*peer=*/2, /*peer_port=*/443,
             /*local_port=*/40000, /*is_client=*/true) {
    conn.connect([] {});
    TcpSegment syn_ack;
    syn_ack.syn = true;
    syn_ack.ack_flag = true;
    syn_ack.window = 64 * 1024;
    conn.on_segment(syn_ack, sim.now());
  }
};

TEST(TcpInvariantDeathTest, AckBeyondSndNxtAborts) {
  LoneClient c;
  ASSERT_TRUE(c.conn.established());
  TcpSegment evil;
  evil.ack_flag = true;
  evil.ack = 1;  // nothing was ever written: snd_nxt == 0
  EXPECT_DEATH(c.conn.on_segment(evil, c.sim.now()),
               "INVARIANT failed.*beyond snd_nxt=0 \\(acked data never sent\\)");
}

TEST(TcpInvariantDeathTest, SackBlockBeyondSndNxtAborts) {
  LoneClient c;
  ASSERT_TRUE(c.conn.established());
  TcpSegment evil;
  evil.ack_flag = true;
  evil.ack = 0;
  evil.sack = {{5000, 9000}};  // claims receipt of bytes that never existed
  EXPECT_DEATH(c.conn.on_segment(evil, c.sim.now()),
               "INVARIANT failed.*beyond snd_nxt=0 \\(SACKed data never sent\\)");
}

TEST(TcpInvariantDeathTest, ValidAckAndSackAreAccepted) {
  // Control: the invariants stay quiet for in-range ACK/SACK traffic.
  LoneClient c;
  ASSERT_TRUE(c.conn.established());
  c.conn.write(Bytes(8000, 0x42), false);
  c.conn.flush();
  TcpSegment fine;
  fine.ack_flag = true;
  fine.ack = 1460;
  fine.sack = {{2920, 4380}};
  c.conn.on_segment(fine, c.sim.now());
  EXPECT_EQ(c.conn.stats().segments_received, 2u);  // SYN-ACK + this ACK
}

// --- Receiver SACK blocks and window ----------------------------------------

// The receiver's out-of-order state kept the brute-force way: chunk lengths
// by start offset, with the SACK blocks and the window recomputed by a full
// scan whenever the connection emits a segment.
struct ReassemblyModel {
  std::map<std::uint64_t, std::size_t> chunks;
  std::uint64_t rcv_nxt = 0;
  int replaced = 0;  // chunks overwritten by a longer one at the same offset

  void on_data(std::uint64_t seq, std::size_t len) {
    const std::uint64_t end = seq + len;
    if (end <= rcv_nxt) return;  // duplicate
    const std::uint64_t start = std::max(seq, rcv_nxt);
    const std::size_t size = static_cast<std::size_t>(end - start);
    auto it = chunks.find(start);
    if (it == chunks.end()) {
      chunks[start] = size;
    } else if (it->second < size) {
      it->second = size;
      ++replaced;
    }
    while (!chunks.empty() && chunks.begin()->first <= rcv_nxt) {
      const auto [off, len] = *chunks.begin();
      rcv_nxt = std::max(rcv_nxt, off + len);
      chunks.erase(chunks.begin());
    }
  }

  // A chunk continues the block before it only if it starts exactly where
  // the previous chunk ended; the three highest-offset blocks are sent.
  std::vector<SackBlock> sack_blocks() const {
    std::vector<SackBlock> blocks;
    SackBlock current{0, 0};
    for (const auto& [off, len] : chunks) {
      if (current.end == off) {
        current.end = off + len;
      } else {
        if (current.end > current.start) blocks.push_back(current);
        current = {off, off + len};
      }
    }
    if (current.end > current.start) blocks.push_back(current);
    if (blocks.size() > 3) blocks.erase(blocks.begin(), blocks.end() - 3);
    return blocks;
  }

  std::uint64_t window(std::size_t recv_buffer) const {
    std::size_t buffered = 0;
    for (const auto& [off, len] : chunks) buffered += len;
    return buffered >= recv_buffer ? 0 : recv_buffer - buffered;
  }
};

TEST(TcpReceiver, SackBlocksAndWindowMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    TcpConfig cfg = plain_config();
    cfg.recv_buffer = 24 * 1024;  // small enough for the window to hit 0
    LoneClient c(cfg);
    ASSERT_TRUE(c.conn.established());
    Bytes received;
    c.conn.set_on_data([&](BytesView data, bool) {
      received.insert(received.end(), data.begin(), data.end());
    });
    std::vector<TcpSegment> emitted;
    DirectionalLink wire(c.sim, LinkConfig{}, [](Packet&&) {});
    wire.set_tap([&](LinkEvent kind, const Packet& p, TimePoint) {
      if (kind != LinkEvent::kEnqueued) return;
      if (auto seg = decode_segment(p.data)) emitted.push_back(*seg);
    });
    c.host.set_default_route(&wire);

    // The stream (its last byte is the virtual FIN) cut into segments,
    // then retransmissions re-cut from an original boundary (longer or
    // shorter than the original), overlapping pieces from anywhere, and
    // exact duplicates, all shuffled.
    const std::uint64_t total = 20000 + rng.uniform_int(40000);
    Bytes stream(static_cast<std::size_t>(total));
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());
    struct Piece {
      std::uint64_t seq = 0;
      std::uint64_t len = 0;
    };
    std::vector<Piece> pieces;
    for (std::uint64_t off = 0; off < total;) {
      const std::uint64_t len =
          std::min(1 + rng.uniform_int(1460), total - off);
      pieces.push_back({off, len});
      off += len;
    }
    const std::size_t original = pieces.size();
    for (std::size_t i = 0; i < original / 2; ++i) {
      const std::uint64_t seq = rng.bernoulli(0.6)
                                    ? pieces[rng.uniform_int(original)].seq
                                    : rng.uniform_int(total);
      pieces.push_back({seq, std::min(1 + rng.uniform_int(3000), total - seq)});
    }
    for (std::size_t i = 0; i < original / 4; ++i) {
      pieces.push_back(pieces[rng.uniform_int(original)]);
    }
    for (std::size_t i = pieces.size(); i > 1; --i) {
      std::swap(pieces[i - 1], pieces[rng.uniform_int(i)]);
    }

    ReassemblyModel model;
    std::size_t checked = 0;
    for (const Piece& p : pieces) {
      TcpSegment seg;
      seg.ack_flag = true;
      seg.window = 64 * 1024;
      seg.seq = p.seq;
      seg.fin = p.seq + p.len == total;
      const auto from = stream.begin() + static_cast<std::ptrdiff_t>(p.seq);
      seg.payload.assign(from, from + static_cast<std::ptrdiff_t>(p.len));
      c.conn.on_segment(seg, c.sim.now());
      model.on_data(p.seq, static_cast<std::size_t>(p.len));
      // Now and then let the delayed-ACK timer fire too.
      if (rng.bernoulli(0.2)) c.sim.run_for(milliseconds(50));
      for (TcpSegment& out : emitted) {
        std::vector<SackBlock> sack = out.sack;
        if (out.dsack) sack.erase(sack.begin());  // a report, not state
        ASSERT_EQ(out.ack, model.rcv_nxt);
        ASSERT_EQ(out.window, model.window(cfg.recv_buffer));
        const std::vector<SackBlock> expected = model.sack_blocks();
        ASSERT_EQ(sack.size(), expected.size())
            << "at rcv_nxt " << model.rcv_nxt;
        for (std::size_t i = 0; i < sack.size(); ++i) {
          EXPECT_EQ(sack[i].start, expected[i].start) << "block " << i;
          EXPECT_EQ(sack[i].end, expected[i].end) << "block " << i;
        }
        ++checked;
      }
      emitted.clear();
    }
    EXPECT_GT(checked, original);
    EXPECT_GT(model.replaced, 0);
    EXPECT_TRUE(c.conn.peer_fin_received());
    stream.pop_back();  // the virtual FIN byte is not application data
    EXPECT_EQ(received, stream);
  }
}

}  // namespace
}  // namespace longlook::tcp
