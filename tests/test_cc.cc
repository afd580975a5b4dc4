// Unit tests: congestion-control building blocks — Cubic window math with
// N-connection emulation, Hybrid Slow Start, PRR, the pacer, the RTT
// estimator, and the full CubicSender state machine (Table 3).
#include <gtest/gtest.h>

#include "cc/bbr_lite.h"
#include "cc/cubic.h"
#include "cc/cubic_sender.h"
#include "cc/hystart.h"
#include "cc/pacer.h"
#include "cc/prr.h"
#include "cc/rtt_estimator.h"
#include "obs/trace.h"

namespace longlook {
namespace {

constexpr std::size_t kMss = 1350;

// --- Cubic -------------------------------------------------------------

TEST(Cubic, BetaAndAlphaForNConnections) {
  Cubic one(kMss, 1);
  EXPECT_NEAR(one.beta(), 0.7, 1e-9);
  EXPECT_NEAR(one.alpha(), 3 * 0.3 / 1.7, 1e-9);
  Cubic two(kMss, 2);
  // gQUIC's 2-connection emulation: gentler backoff, steeper Reno slope.
  EXPECT_NEAR(two.beta(), 0.85, 1e-9);
  EXPECT_GT(two.alpha(), one.alpha());
}

TEST(Cubic, LossReducesWindowByBeta) {
  Cubic cubic(kMss, 1);
  const std::size_t cwnd = 100 * kMss;
  EXPECT_EQ(cubic.window_after_loss(cwnd),
            static_cast<std::size_t>(cwnd * 0.7));
  Cubic emulated(kMss, 2);
  EXPECT_EQ(emulated.window_after_loss(cwnd),
            static_cast<std::size_t>(cwnd * 0.85));
}

TEST(Cubic, AckNeverShrinksWindow) {
  Cubic cubic(kMss, 2);
  std::size_t cwnd = 50 * kMss;
  TimePoint now{};
  for (int i = 0; i < 200; ++i) {
    now += milliseconds(10);
    const std::size_t next =
        cubic.window_after_ack(kMss, cwnd, milliseconds(36), now);
    EXPECT_GE(next, cwnd);
    cwnd = next;
  }
}

TEST(Cubic, RegrowsTowardWmaxAfterLoss) {
  Cubic cubic(kMss, 1);
  const std::size_t w_max = 200 * kMss;
  std::size_t cwnd = cubic.window_after_loss(w_max);
  EXPECT_LT(cwnd, w_max);
  TimePoint now{};
  for (int i = 0; i < 5000 && cwnd < w_max; ++i) {
    now += milliseconds(36);
    cwnd = cubic.window_after_ack(cwnd / 2, cwnd, milliseconds(36), now);
  }
  // Cubic converges back to (and past) the previous maximum.
  EXPECT_GE(cwnd, w_max * 95 / 100);
}

TEST(Cubic, FastConvergenceShrinksWmaxOnConsecutiveLosses) {
  Cubic cubic(kMss, 1);
  std::size_t cwnd = 100 * kMss;
  cwnd = cubic.window_after_loss(cwnd);
  TimePoint now{};
  cwnd = cubic.window_after_ack(kMss, cwnd, milliseconds(36),
                                now + milliseconds(36));
  // Second loss below the previous max triggers fast convergence: the
  // recorded W_max is reduced, so regrowth is to a lower plateau.
  const std::size_t after_second = cubic.window_after_loss(cwnd);
  EXPECT_LT(after_second, cwnd);
}

// --- Hybrid Slow Start --------------------------------------------------

class HystartDelay : public ::testing::TestWithParam<int> {};

TEST_P(HystartDelay, ExitsOnlyWhenDelayExceedsThreshold) {
  const int extra_ms = GetParam();
  HystartConfig cfg;  // min 4 ms, max 16 ms
  HybridSlowStart hs(cfg);
  const Duration min_rtt = milliseconds(36);
  // Round 1 establishes the baseline.
  for (PacketNumber pn = 1; pn <= 20; ++pn) hs.on_packet_sent(pn);
  bool exited = false;
  for (PacketNumber pn = 1; pn <= 20; ++pn) {
    exited = hs.on_ack(pn, min_rtt, min_rtt) || exited;
  }
  EXPECT_FALSE(exited);
  // Round 2: every sample inflated by extra_ms.
  for (PacketNumber pn = 21; pn <= 40; ++pn) hs.on_packet_sent(pn);
  for (PacketNumber pn = 21; pn <= 40; ++pn) {
    exited = hs.on_ack(pn, min_rtt + milliseconds(extra_ms), min_rtt) || exited;
  }
  // Threshold = clamp(36/8=4.5ms, 4, 16) = 4.5 ms.
  EXPECT_EQ(exited, extra_ms > 4);
}

INSTANTIATE_TEST_SUITE_P(DelaySweep, HystartDelay,
                         ::testing::Values(0, 2, 4, 5, 8, 20));

TEST(Hystart, RequiresMinimumSamplesPerRound) {
  HystartConfig cfg;
  HybridSlowStart hs(cfg);
  const Duration min_rtt = milliseconds(36);
  for (PacketNumber pn = 1; pn <= 4; ++pn) hs.on_packet_sent(pn);
  bool exited = false;
  // Only 4 (inflated) samples: below min_samples=8, must not exit.
  for (PacketNumber pn = 1; pn <= 4; ++pn) {
    exited = hs.on_ack(pn, min_rtt + milliseconds(30), min_rtt) || exited;
  }
  EXPECT_FALSE(exited);
}

TEST(Hystart, DisabledNeverExits) {
  HystartConfig cfg;
  cfg.enabled = false;
  HybridSlowStart hs(cfg);
  for (PacketNumber pn = 1; pn <= 50; ++pn) hs.on_packet_sent(pn);
  for (PacketNumber pn = 1; pn <= 50; ++pn) {
    EXPECT_FALSE(hs.on_ack(pn, milliseconds(500), milliseconds(10)));
  }
}

// --- PRR ------------------------------------------------------------------

TEST(Prr, RateReductionPhaseProportional) {
  ProportionalRateReduction prr;
  prr.enter_recovery(/*bytes_in_flight=*/100 * kMss, /*ssthresh=*/50 * kMss,
                     kMss);
  // Nothing delivered yet: only the anti-deadlock probe is allowed, and
  // only when the pipe is basically empty.
  EXPECT_TRUE(prr.can_send(0));
  EXPECT_FALSE(prr.can_send(100 * kMss));
  // Deliver half the flight: may send ~half of ssthresh.
  prr.on_bytes_delivered(50 * kMss);
  EXPECT_TRUE(prr.can_send(80 * kMss));
  prr.on_bytes_sent(25 * kMss);
  EXPECT_FALSE(prr.can_send(80 * kMss));  // 25 sent == 50*50/100 budget
}

TEST(Prr, SlowStartPhaseRefillsToSsthresh) {
  ProportionalRateReduction prr;
  prr.enter_recovery(100 * kMss, 50 * kMss, kMss);
  prr.on_bytes_delivered(90 * kMss);
  // Pipe fell below ssthresh: limited-transmit growth back toward ssthresh.
  EXPECT_TRUE(prr.can_send(30 * kMss));
  // But never above ssthresh.
  EXPECT_FALSE(prr.can_send(50 * kMss));
}

// --- Pacer ------------------------------------------------------------------

TEST(Pacer, SpacesPacketsAtConfiguredRate) {
  Pacer pacer;
  // cwnd 135 KB over 100 ms at 1.25 gain = 1.6875 MB/s.
  pacer.update(100 * kMss, milliseconds(100), /*in_slow_start=*/false);
  TimePoint now{};
  // Exhaust the burst quantum.
  for (int i = 0; i < 10; ++i) pacer.on_packet_sent(now, kMss);
  EXPECT_GT(pacer.earliest_departure(now), now);
  const Duration gap = pacer.earliest_departure(now) - now;
  // 1350 B at 1.6875 MB/s = 800 us.
  EXPECT_NEAR(to_seconds(gap), 800e-6, 100e-6);
}

TEST(Pacer, SlowStartPacesAtDoubleRate) {
  Pacer ss;
  Pacer ca;
  ss.update(100 * kMss, milliseconds(100), true);
  ca.update(100 * kMss, milliseconds(100), false);
  EXPECT_NEAR(ss.rate_bytes_per_sec() / ca.rate_bytes_per_sec(), 2.0 / 1.25,
              1e-9);
}

TEST(Pacer, IdleRestoresBurstCredit) {
  Pacer pacer;
  pacer.update(10 * kMss, milliseconds(100), false);
  TimePoint now{};
  for (int i = 0; i < 10; ++i) pacer.on_packet_sent(now, kMss);
  EXPECT_GT(pacer.earliest_departure(now), now);
  // After a quiet period the quantum refills: immediate send allowed.
  now += milliseconds(50);
  pacer.on_packet_sent(now, kMss);
  EXPECT_EQ(pacer.earliest_departure(now), now);
}

TEST(Pacer, UnconfiguredPacerNeverDelays) {
  Pacer pacer;
  TimePoint now{};
  EXPECT_EQ(pacer.earliest_departure(now), now);
  pacer.on_packet_sent(now, kMss);
  EXPECT_EQ(pacer.earliest_departure(now), now);
}

// --- RTT estimator -----------------------------------------------------------

TEST(RttEstimator, FirstSampleInitialises) {
  RttEstimator rtt;
  EXPECT_FALSE(rtt.has_samples());
  rtt.update(milliseconds(40));
  EXPECT_TRUE(rtt.has_samples());
  EXPECT_EQ(rtt.smoothed(), milliseconds(40));
  EXPECT_EQ(rtt.mean_deviation(), milliseconds(20));
  EXPECT_EQ(rtt.min_rtt(), milliseconds(40));
}

TEST(RttEstimator, EwmaSmoothing) {
  RttEstimator rtt;
  rtt.update(milliseconds(100));
  rtt.update(milliseconds(200));
  // srtt = 7/8*100 + 1/8*200 = 112.5 ms
  EXPECT_EQ(rtt.smoothed(), microseconds(112500));
}

TEST(RttEstimator, AckDelaySubtractedWhenAboveMinFloor) {
  RttEstimator rtt;
  rtt.update(milliseconds(50));
  rtt.update(milliseconds(70), milliseconds(15));
  // 70 - 15 = 55 stays above min (50): the receiver's delay is removed.
  EXPECT_EQ(rtt.latest(), milliseconds(55));
  EXPECT_EQ(rtt.min_rtt(), milliseconds(50));
}

TEST(RttEstimator, AckDelayNotSubtractedBelowMin) {
  RttEstimator rtt;
  rtt.update(milliseconds(50));
  // Subtracting 30 would dip below min 50: keep the raw sample.
  rtt.update(milliseconds(55), milliseconds(30));
  EXPECT_EQ(rtt.latest(), milliseconds(55));
}

TEST(RttEstimator, RtoBounds) {
  RttEstimator rtt;
  EXPECT_EQ(rtt.retransmission_timeout(), 2 * RttEstimator::kInitialRtt);
  rtt.update(milliseconds(1));
  EXPECT_GE(rtt.retransmission_timeout(), RttEstimator::kMinRto);
}

// --- CubicSender state machine (Table 3) -------------------------------------

struct SenderFixture {
  RttEstimator rtt;
  CubicSenderConfig config;
  std::unique_ptr<CubicSender> sender;
  PacketNumber next_pn = 1;
  TimePoint now{};

  explicit SenderFixture(CubicSenderConfig cfg = {}) : config(cfg) {
    sender = std::make_unique<CubicSender>(rtt, config);
  }
  void establish(std::size_t rwnd = 10 * 1024 * 1024) {
    sender->on_connection_established(now, rwnd);
  }
  // Sends + acks `packets` full-size packets in one round.
  void round(int packets, Duration rtt_sample = milliseconds(36)) {
    std::vector<AckedPacket> acked;
    for (int i = 0; i < packets; ++i) {
      sender->on_packet_sent(now, next_pn, config.mss,
                             static_cast<std::size_t>(i) * config.mss);
      acked.push_back({next_pn, config.mss, now});
      ++next_pn;
    }
    now += rtt_sample;
    rtt.update(rtt_sample);
    sender->on_congestion_event(now, packets * config.mss, acked, {});
  }
};

TEST(CubicSender, StartsInInitMovesToSlowStart) {
  SenderFixture f;
  EXPECT_EQ(f.sender->tracker().state(), CcState::kInit);
  f.establish();
  EXPECT_EQ(f.sender->tracker().state(), CcState::kSlowStart);
  EXPECT_TRUE(f.sender->in_slow_start());
}

TEST(CubicSender, SlowStartDoublesPerRound) {
  SenderFixture f;
  f.establish();
  const std::size_t before = f.sender->congestion_window();
  f.round(static_cast<int>(before / f.config.mss));
  EXPECT_NEAR(static_cast<double>(f.sender->congestion_window()),
              static_cast<double>(2 * before), f.config.mss);
}

TEST(CubicSender, LossEntersRecoveryAndReducesWindow) {
  SenderFixture f;
  f.establish();
  f.round(32);
  const std::size_t before = f.sender->congestion_window();
  f.sender->on_packet_sent(f.now, f.next_pn, f.config.mss, before);
  std::vector<LostPacket> lost{{f.next_pn, f.config.mss}};
  ++f.next_pn;
  f.sender->on_congestion_event(f.now, before, {}, lost);
  EXPECT_TRUE(f.sender->in_recovery());
  EXPECT_EQ(f.sender->tracker().state(), CcState::kRecovery);
  EXPECT_LT(f.sender->congestion_window(), before);
}

TEST(CubicSender, OneReductionPerRecoveryEpoch) {
  SenderFixture f;
  f.establish();
  f.round(32);
  f.sender->on_packet_sent(f.now, f.next_pn, f.config.mss, 0);
  std::vector<LostPacket> first{{f.next_pn, f.config.mss}};
  ++f.next_pn;
  f.sender->on_congestion_event(f.now, 32 * f.config.mss, {}, first);
  const std::size_t after_first = f.sender->congestion_window();
  // A second loss from the same (pre-recovery) flight must not reduce again.
  std::vector<LostPacket> second{{2, f.config.mss}};
  f.sender->on_congestion_event(f.now, 32 * f.config.mss, {}, second);
  EXPECT_EQ(f.sender->congestion_window(), after_first);
}

TEST(CubicSender, ExitsRecoveryWhenPostLossPacketAcked) {
  SenderFixture f;
  f.establish();
  f.round(32);
  f.sender->on_packet_sent(f.now, f.next_pn, f.config.mss, 0);
  std::vector<LostPacket> lost{{f.next_pn, f.config.mss}};
  ++f.next_pn;
  f.sender->on_congestion_event(f.now, 32 * f.config.mss, {}, lost);
  ASSERT_TRUE(f.sender->in_recovery());
  // Ack a packet sent after recovery began.
  f.sender->on_packet_sent(f.now, f.next_pn, f.config.mss, 0);
  std::vector<AckedPacket> acked{{f.next_pn, f.config.mss, f.now}};
  ++f.next_pn;
  f.sender->on_congestion_event(f.now, f.config.mss, acked, {});
  EXPECT_FALSE(f.sender->in_recovery());
}

TEST(CubicSender, MacwCapsWindowAndEntersCaMaxed) {
  CubicSenderConfig cfg;
  cfg.max_cwnd_packets = 40;
  SenderFixture f(cfg);
  f.establish();
  for (int i = 0; i < 12; ++i) f.round(32);
  EXPECT_EQ(f.sender->congestion_window(), 40 * cfg.mss);
  EXPECT_EQ(f.sender->tracker().state(), CcState::kCaMaxed);
}

TEST(CubicSender, Chromium52BugExitsSlowStartEarly) {
  CubicSenderConfig buggy;
  buggy.ssthresh_from_rwnd_bug = true;
  SenderFixture f(buggy);
  f.establish(10 * 1024 * 1024);
  // ssthresh stuck at the small buggy default despite the huge receiver
  // buffer: slow start ends long before the window is large.
  EXPECT_EQ(f.sender->ssthresh(),
            buggy.buggy_initial_ssthresh_packets * buggy.mss);
  for (int i = 0; i < 4; ++i) f.round(48);
  EXPECT_FALSE(f.sender->in_slow_start());
  CubicSenderConfig fixed;
  SenderFixture g(fixed);
  g.establish(10 * 1024 * 1024);
  for (int i = 0; i < 4; ++i) g.round(48);
  EXPECT_TRUE(g.sender->in_slow_start());
  EXPECT_GT(g.sender->congestion_window(), f.sender->congestion_window());
}

TEST(CubicSender, RtoCollapsesWindow) {
  SenderFixture f;
  f.establish();
  f.round(32);
  f.sender->on_retransmission_timeout(f.now);
  EXPECT_EQ(f.sender->congestion_window(),
            f.config.min_cwnd_packets * f.config.mss);
  EXPECT_EQ(f.sender->tracker().state(), CcState::kRetransmissionTimeout);
  // First ack after the RTO leaves the RTO state.
  f.round(2);
  EXPECT_NE(f.sender->tracker().state(), CcState::kRetransmissionTimeout);
}

TEST(CubicSender, TlpAndAppLimitedStatesTracked) {
  SenderFixture f;
  f.establish();
  f.sender->on_tail_loss_probe(f.now);
  EXPECT_EQ(f.sender->tracker().state(), CcState::kTailLossProbe);
  f.sender->on_application_limited(f.now);
  EXPECT_EQ(f.sender->tracker().state(), CcState::kApplicationLimited);
  // Sending again clears app-limited.
  f.sender->on_packet_sent(f.now, f.next_pn++, f.config.mss, 0);
  EXPECT_NE(f.sender->tracker().state(), CcState::kApplicationLimited);
}

TEST(CubicSender, AppLimitedSuppressesGrowth) {
  SenderFixture f;
  f.establish();
  f.round(32);
  const std::size_t before = f.sender->congestion_window();
  // Acks arriving while far below cwnd (window unused) must not grow it.
  std::vector<AckedPacket> acked{{f.next_pn, f.config.mss, f.now}};
  f.sender->on_packet_sent(f.now, f.next_pn, f.config.mss, 0);
  ++f.next_pn;
  f.sender->on_congestion_event(f.now, f.config.mss /* tiny in-flight */,
                                acked, {});
  EXPECT_EQ(f.sender->congestion_window(), before);
}

TEST(CubicSender, CanSendGatedByWindow) {
  SenderFixture f;
  f.establish();
  EXPECT_TRUE(f.sender->can_send(0));
  EXPECT_FALSE(f.sender->can_send(f.sender->congestion_window()));
}

// --- BbrLite ------------------------------------------------------------------

TEST(BbrLite, WalksStartupDrainProbeBw) {
  RttEstimator rtt;
  BbrConfig cfg;
  BbrLite bbr(rtt, cfg);
  obs::RecordingSink events;
  bbr.set_trace(&events, "server");
  EXPECT_EQ(bbr.state(), BbrState::kStartup);
  TimePoint now{};
  PacketNumber pn = 1;
  // Constant-bandwidth rounds: bandwidth stops growing, full pipe detected.
  for (int round = 0; round < 12; ++round) {
    std::vector<AckedPacket> acked;
    for (int i = 0; i < 10; ++i) {
      bbr.on_packet_sent(now, pn, kMss, 0);
      acked.push_back({pn, kMss, now});
      ++pn;
    }
    now += milliseconds(30);
    rtt.update(milliseconds(30));
    bbr.on_congestion_event(now, 10 * kMss, acked, {});
  }
  EXPECT_EQ(bbr.state(), BbrState::kProbeBw);
  // The event stream must include the Drain transition for Fig. 3b.
  bool saw_drain = false;
  for (const obs::StoredEvent& ev : events.events()) {
    if (ev.name == "cc:bbr_state" && ev.str("to") == "Drain") saw_drain = true;
  }
  EXPECT_TRUE(saw_drain);
  EXPECT_GT(bbr.bandwidth_estimate_bps(), 0);
}

TEST(BbrLite, ProbeRttAfterMinRttWindowExpires) {
  RttEstimator rtt;
  BbrConfig cfg;
  cfg.min_rtt_window = milliseconds(500);  // accelerated for the test
  BbrLite bbr(rtt, cfg);
  TimePoint now{};
  PacketNumber pn = 1;
  bool visited_probe_rtt = false;
  for (int round = 0; round < 80; ++round) {
    std::vector<AckedPacket> acked;
    for (int i = 0; i < 10; ++i) {
      bbr.on_packet_sent(now, pn, kMss, 0);
      acked.push_back({pn, kMss, now});
      ++pn;
    }
    now += milliseconds(30);
    // Samples only rise after round 0, so the min-RTT stamp ages out.
    rtt.update(milliseconds(30) + milliseconds(std::min(round, 5)));
    bbr.on_congestion_event(now, 10 * kMss, acked, {});
    if (bbr.state() == BbrState::kProbeRtt) visited_probe_rtt = true;
  }
  EXPECT_TRUE(visited_probe_rtt);
}

}  // namespace
}  // namespace longlook
