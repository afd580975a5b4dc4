// util::SendBuffer, alone and inside both transports.
//
// The unit and differential tests hold the buffer to a flat `Bytes` model:
// the same contents at every retained offset, a release point that only
// moves forward, never more than one block held beyond the live bytes, and
// nothing held once no byte is live.
// The end-to-end tests download 64 MB over each stack and bound the
// server's peak send-buffer bytes far below the object size: a sender that
// kept every byte it ever wrote would hold all 64 MB.
#include <gtest/gtest.h>

#include "harness/compare.h"
#include "quic/stream.h"
#include "util/rng.h"
#include "util/send_buffer.h"

namespace longlook {
namespace {

using util::SendBuffer;
constexpr std::size_t kBlock = SendBuffer::kBlockBytes;

Bytes pattern(std::uint64_t offset, std::size_t len) {
  Bytes out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>((offset + i) * 131 + 7);
  }
  return out;
}

TEST(SendBuffer, ReadsSpanBlockBoundaries) {
  SendBuffer buf;
  buf.append(pattern(0, kBlock - 3));
  buf.append(pattern(kBlock - 3, 2 * kBlock + 10));
  EXPECT_EQ(buf.end(), 3 * kBlock + 7);
  EXPECT_EQ(buf.read(kBlock - 5, 2 * kBlock + 9),
            pattern(kBlock - 5, 2 * kBlock + 9));
  EXPECT_EQ(buf.read(buf.end(), 0), Bytes{});
}

TEST(SendBuffer, ReleaseFreesWholeBlocksThenTheLastOnceEmpty) {
  SendBuffer buf;
  buf.append(pattern(0, 3 * kBlock + 100));
  EXPECT_EQ(buf.retained(), 3 * kBlock + 100);
  buf.release(kBlock - 1);  // inside the first block: nothing freed
  EXPECT_EQ(buf.begin(), kBlock - 1);
  EXPECT_EQ(buf.retained(), 3 * kBlock + 100);
  buf.release(2 * kBlock + 5);
  EXPECT_EQ(buf.retained(), kBlock + 100);
  EXPECT_EQ(buf.read(2 * kBlock + 5, 10), pattern(2 * kBlock + 5, 10));
  buf.release(kBlock);  // below the release point: a no-op
  EXPECT_EQ(buf.begin(), 2 * kBlock + 5);
  buf.release(buf.end() - 1);  // one live byte keeps the last block
  EXPECT_EQ(buf.retained(), 100u);
  buf.release(buf.end());
  EXPECT_EQ(buf.retained(), 0u);
  EXPECT_EQ(buf.peak_retained(), 3 * kBlock + 100);
  // Appending past a fully released buffer starts a fresh block part-way
  // through, at the same offsets.
  buf.append(pattern(buf.end(), kBlock));
  EXPECT_EQ(buf.retained(), kBlock + 100);
  EXPECT_EQ(buf.read(3 * kBlock + 100, kBlock),
            pattern(3 * kBlock + 100, kBlock));
}

TEST(SendBuffer, EmptyAppendAndAlignedEnd) {
  SendBuffer buf;
  buf.append({});
  EXPECT_EQ(buf.end(), 0u);
  EXPECT_EQ(buf.retained(), 0u);
  buf.append(pattern(0, kBlock));
  buf.release(kBlock);
  EXPECT_EQ(buf.retained(), 0u);
  buf.append(pattern(kBlock, 1));
  EXPECT_EQ(buf.read(kBlock, 1), pattern(kBlock, 1));
}

// Seeded random appends (sizes straddling block boundaries), reads at
// random retained offsets and releases, against a flat reference.
TEST(SendBuffer, MatchesFlatReferenceUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SendBuffer buf;
    Bytes model;
    std::uint64_t released = 0;
    const std::size_t sizes[] = {0, 1, kBlock - 1, kBlock, kBlock + 1};
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.uniform_int(4);
      if (op <= 1) {
        const std::size_t n = rng.bernoulli(0.5)
                                  ? sizes[rng.uniform_int(5)]
                                  : rng.uniform_int(3 * kBlock);
        const Bytes data = pattern(model.size(), n);
        buf.append(data);
        model.insert(model.end(), data.begin(), data.end());
      } else if (op == 2) {
        const std::uint64_t prior = buf.begin();
        released += rng.uniform_int(model.size() - released + 1);
        buf.release(released);
        ASSERT_GE(buf.begin(), prior) << "seed " << seed;
        ASSERT_EQ(buf.begin(), released) << "seed " << seed;
      } else if (model.size() > released) {
        const std::uint64_t off =
            released + rng.uniform_int(model.size() - released);
        const std::size_t len = static_cast<std::size_t>(
            rng.uniform_int(model.size() - off + 1));
        const auto first = model.begin() + static_cast<std::ptrdiff_t>(off);
        ASSERT_EQ(buf.read(off, len),
                  Bytes(first, first + static_cast<std::ptrdiff_t>(len)))
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(buf.end(), model.size());
      const std::uint64_t live = buf.end() - buf.begin();
      ASSERT_LE(buf.retained(), live + kBlock) << "seed " << seed;
      ASSERT_EQ(buf.retained() == 0, live == 0) << "seed " << seed;
      ASSERT_LE(buf.retained(), buf.peak_retained());
    }
  }
}

TEST(SendBufferDeathTest, ReadBelowReleasePointAborts) {
  SendBuffer buf;
  buf.append(pattern(0, 2 * kBlock));
  buf.release(kBlock + 1);
  // LL_CHECK: aborts in every build type, not only with DCHECKs armed.
  EXPECT_DEATH((void)buf.read(kBlock, 4), "CHECK failed.*below release point");
}

TEST(SendBufferDeathTest, ReleasePastEndAborts) {
  SendBuffer buf;
  buf.append(pattern(0, 10));
  EXPECT_DEATH(buf.release(11), "CHECK failed.*past end");
}

// --- QUIC's release rule, one stream driven by hand. Chunks go out one
// block each, in packets 1, 2, 3, ...

// Sends the next `n` one-block chunks, numbering packets from `pn`.
void send_chunks(quic::QuicStream& s, PacketNumber pn, int n) {
  for (int i = 0; i < n; ++i, ++pn) {
    const auto chunk = s.take_chunk(kBlock, 1 << 30);
    ASSERT_TRUE(chunk.has_value());
    s.on_chunk_sent(pn, chunk->offset);
  }
}

// Requeues [offset, offset + kBlock) and takes it straight back.
Bytes resend(quic::QuicStream& s, std::uint64_t offset) {
  s.requeue(offset, kBlock, false);
  const auto chunk = s.take_chunk(kBlock, 0);
  EXPECT_TRUE(chunk.has_value() && chunk->is_retransmission);
  return chunk ? chunk->data : Bytes{};
}

TEST(QuicStreamRelease, KeepsChunksOfPacketsAtOrAboveTheFloor) {
  quic::QuicStream s(2, 1 << 30, 1 << 30);
  s.write(pattern(0, 4 * kBlock), true);
  send_chunks(s, 1, 4);
  s.release_below(3);  // packets 1 and 2 acked; 3 and 4 may still be lost
  EXPECT_EQ(resend(s, 2 * kBlock), pattern(2 * kBlock, kBlock));
  // Packet 2's block was freed: nothing may requeue it any more.
  EXPECT_DEATH((void)resend(s, kBlock), "below release point");
}

TEST(QuicStreamRelease, KeepsQueuedRetransmissionsBelowTheFloor) {
  quic::QuicStream s(2, 1 << 30, 1 << 30);
  s.write(pattern(0, 3 * kBlock), true);
  send_chunks(s, 1, 3);
  // Packet 1 was declared lost and its bytes queued; then every packet
  // left the tracker (the lost entry aged out) before the resend went out.
  s.requeue(0, kBlock, false);
  s.release_below(4);
  const auto chunk = s.take_chunk(kBlock, 0);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->data, pattern(0, kBlock));
  s.on_chunk_sent(4, chunk->offset);
  s.release_below(5);  // the resend was acked: everything may go
  EXPECT_DEATH((void)resend(s, 2 * kBlock), "below release point");
}

// --- End to end: 64 MB at 100 Mbps, clean and with 1% loss + 10 ms jitter.

constexpr std::size_t kObjectBytes = 64 * 1024 * 1024;
// Unsent backlog (the object service keeps about 2.5 MB queued) plus what
// a window and the retransmission paths may still read.
constexpr std::size_t kPeakBound = 8 * 1024 * 1024;

struct Download {
  bool done = false;
  std::uint64_t bytes = 0;
  std::size_t server_peak = 0;
};

harness::Scenario download_path(bool lossy) {
  harness::Scenario s;
  s.rate_bps = 100'000'000;
  if (lossy) {
    s.loss_rate = 0.01;
    s.jitter = milliseconds(10);
  }
  return s;
}

template <harness::Protocol P>
Download download(bool lossy) {
  harness::CompareOptions opts;
  opts.timeout = seconds(1200);
  harness::SingleRun<P> run(download_path(lossy), {1, kObjectBytes}, opts);
  Download out;
  out.done = run.finish().has_value();
  out.bytes = run.result().download_bytes;
  if (const auto* sc = run.server().server().latest_connection()) {
    out.server_peak = sc->send_buffer_peak();
  }
  return out;
}

void expect_bounded(const Download& d) {
  ASSERT_TRUE(d.done);
  EXPECT_EQ(d.bytes, kObjectBytes);
  EXPECT_GT(d.server_peak, 0u);
  EXPECT_LT(d.server_peak, kPeakBound);
}

TEST(SendBufferBound, QuicCleanDownload) {
  expect_bounded(download<harness::Protocol::kQuic>(false));
}
TEST(SendBufferBound, QuicLossyJitteryDownload) {
  expect_bounded(download<harness::Protocol::kQuic>(true));
}
TEST(SendBufferBound, TcpCleanDownload) {
  expect_bounded(download<harness::Protocol::kTcp>(false));
}
TEST(SendBufferBound, TcpLossyJitteryDownload) {
  expect_bounded(download<harness::Protocol::kTcp>(true));
}

}  // namespace
}  // namespace longlook
