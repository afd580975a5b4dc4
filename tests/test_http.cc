// Unit tests: HTTP/2-lite framing, the object service request handling, and
// page loads' resource-timing semantics (workload::ScenarioRunner page
// entries driven over a real testbed).
#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "http/h2_session.h"
#include "tcp/connection.h"
#include "util/bytes.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "workload/executor.h"

namespace longlook::http {
namespace {

// --- H2Framer --------------------------------------------------------------

TEST(H2Framer, FrameRoundTrip) {
  std::vector<std::tuple<std::uint64_t, Bytes, bool>> frames;
  H2Framer framer([&](std::uint64_t id, BytesView data, bool fin) {
    frames.emplace_back(id, Bytes(data.begin(), data.end()), fin);
  });
  const Bytes payload{1, 2, 3, 4};
  framer.feed(H2Framer::encode_frame(7, payload, true));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<0>(frames[0]), 7u);
  EXPECT_EQ(std::get<1>(frames[0]), payload);
  EXPECT_TRUE(std::get<2>(frames[0]));
}

TEST(H2Framer, ReassemblesFromArbitrarySplits) {
  std::vector<std::uint64_t> ids;
  H2Framer framer(
      [&](std::uint64_t id, BytesView, bool) { ids.push_back(id); });
  Bytes wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const Bytes f = H2Framer::encode_frame(id, Bytes(100, 1), id == 5);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  // Feed one byte at a time: the parser must handle partial headers.
  for (std::uint8_t b : wire) framer.feed(BytesView(&b, 1));
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(H2Framer, EmptyFinFrame) {
  bool got_fin = false;
  H2Framer framer([&](std::uint64_t, BytesView data, bool fin) {
    EXPECT_TRUE(data.empty());
    got_fin = fin;
  });
  framer.feed(H2Framer::encode_frame(3, {}, true));
  EXPECT_TRUE(got_fin);
}

// --- H2Session stream accounting + invariants -------------------------------
//
// A session over a standalone, routeless TcpConnection: outbound frames
// vanish and inbound wire bytes are injected with on_transport_data(), so
// the mux/demux accounting and its LL_CHECK/LL_INVARIANT guards can be
// exercised without a network.

struct H2Fixture {
  Simulator sim;
  Host host{sim, 1, "h2-host"};
  tcp::TcpConnection conn;
  explicit H2Fixture(bool is_client = true)
      : conn(sim, host, tcp::TcpConfig{}, /*peer=*/2, /*peer_port=*/443,
             /*local_port=*/40000, is_client) {}

  static void feed(H2Session& session, std::uint64_t stream_id, BytesView data,
                   bool fin) {
    session.on_transport_data(H2Framer::encode_frame(stream_id, data, fin),
                              false);
  }
};

TEST(H2SessionAccounting, OpenStreamCountTracksLocalOpensAndRemoteClose) {
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true, /*max_concurrent=*/2);
  EXPECT_EQ(session.open_stream_count(), 0u);
  H2Stream* s1 = session.open_stream();
  H2Stream* s3 = session.open_stream();
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(s1->id(), 1u);
  EXPECT_EQ(s3->id(), 3u);
  EXPECT_EQ(session.open_stream_count(), 2u);
  // SETTINGS_MAX_CONCURRENT_STREAMS is enforced off the counter.
  EXPECT_FALSE(session.can_open_stream());
  EXPECT_EQ(session.open_stream(), nullptr);
  // Remote FIN closes the stream and releases a concurrency slot.
  H2Fixture::feed(session, 1, {}, true);
  EXPECT_EQ(session.open_stream_count(), 1u);
  EXPECT_TRUE(session.can_open_stream());
  H2Fixture::feed(session, 3, {}, true);
  EXPECT_EQ(session.open_stream_count(), 0u);
}

TEST(H2SessionAccounting, PeerInitiatedStreamCountsUntilFin) {
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true);
  std::vector<std::uint64_t> announced;
  session.set_on_new_stream(
      [&](H2Stream& s) { announced.push_back(s.id()); });
  const Bytes body{1, 2, 3};
  H2Fixture::feed(session, 2, body, false);  // server push: even id
  EXPECT_EQ(announced, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(session.open_stream_count(), 1u);
  H2Fixture::feed(session, 2, {}, true);
  EXPECT_EQ(session.open_stream_count(), 0u);
}

TEST(H2SessionAccounting, FinFreesConcurrencySlotBeforeOnDataFires) {
  // A page load opens its next queued stream from inside the fin callback;
  // the closing stream's slot must already be released at that point
  // (regression: the counter was decremented after deliver(), so a session
  // at SETTINGS_MAX_CONCURRENT_STREAMS could never drain its queue).
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true, /*max_concurrent=*/1);
  H2Stream* s1 = session.open_stream();
  ASSERT_NE(s1, nullptr);
  ASSERT_FALSE(session.can_open_stream());
  bool opened_in_callback = false;
  s1->set_on_data([&](BytesView, bool fin) {
    if (!fin) return;
    EXPECT_TRUE(session.can_open_stream());
    opened_in_callback = session.open_stream() != nullptr;
  });
  H2Fixture::feed(session, 1, {}, true);
  EXPECT_TRUE(opened_in_callback);
  EXPECT_EQ(session.open_stream_count(), 1u);  // the newly opened stream
}

TEST(H2InvariantDeathTest, FrameLengthBeyondCapAborts) {
  H2Framer framer([](std::uint64_t, BytesView, bool) {});
  // Hand-crafted header claiming a payload far above the 16 KB frame cap:
  // honouring it would buffer garbage forever (framing desync).
  ByteWriter w(16);
  w.varint(1);                     // stream id
  w.varint(kMaxFrameLength + 1);   // length past the cap
  w.u8(0);                         // flags
  const Bytes evil = w.take();
  EXPECT_DEATH(framer.feed(evil), "CHECK failed.*exceeds cap.*framing desync");
}

TEST(H2InvariantDeathTest, PeerStreamInClientOwnedIdSpaceAborts) {
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true);
  // Odd ids belong to the client; an unknown odd id arriving from the peer
  // means the server originated a stream it must not own.
  EXPECT_DEATH(H2Fixture::feed(session, 5, {}, false),
               "INVARIANT failed.*client-owned id space");
}

TEST(H2InvariantDeathTest, PeerStreamInServerOwnedIdSpaceAborts) {
  H2Fixture fx(/*is_client=*/false);
  H2Session session(fx.conn, /*is_client=*/false);
  EXPECT_DEATH(H2Fixture::feed(session, 4, {}, false),
               "INVARIANT failed.*server-owned id space");
}

// --- ObjectService over a real QUIC testbed ---------------------------------

struct Fixture {
  harness::Scenario scenario;
  harness::Testbed tb{scenario};
  QuicObjectServer server{tb.sim(), tb.server_host(), harness::kQuicPort,
                          quic::QuicConfig{}};
  quic::TokenCache tokens;
  QuicClientSession session{tb.sim(),
                            tb.client_host(),
                            tb.server_host().address(),
                            harness::kQuicPort,
                            quic::QuicConfig{},
                            tokens};
};

// Loads one `count` x `bytes` page over the fixture's session.
struct PageLoad {
  workload::ScenarioSpec spec;
  workload::ScenarioRunner runner;

  PageLoad(Fixture& f, std::size_t count, std::size_t bytes)
      : spec(workload::page_spec({count, bytes})),
        runner(f.tb.sim(), f.session, spec) {}
};

TEST(ObjectService, ServesRequestedSize) {
  Fixture f;
  PageLoad load(f, 1, 123456);
  load.runner.start();
  ASSERT_TRUE(
      f.tb.run_until([&] { return load.runner.finished(); }, seconds(30)));
  EXPECT_EQ(load.runner.result().detail[0].download_bytes, 123456u);
  EXPECT_EQ(f.server.service().requests_served(), 1u);
}

TEST(ObjectService, ZeroByteObject) {
  Fixture f;
  PageLoad load(f, 1, 0);
  load.runner.start();
  ASSERT_TRUE(
      f.tb.run_until([&] { return load.runner.finished(); }, seconds(30)));
  EXPECT_EQ(load.runner.result().detail[0].download_bytes, 0u);
}

TEST(ObjectService, LargeObjectServedIncrementally) {
  // Above the chunking threshold: the pump path must still deliver exactly
  // the requested byte count.
  Fixture f;
  PageLoad load(f, 1, 5 * 1024 * 1024);
  load.runner.start();
  ASSERT_TRUE(
      f.tb.run_until([&] { return load.runner.finished(); }, seconds(60)));
  EXPECT_EQ(load.runner.result().detail[0].download_bytes, 5u * 1024 * 1024);
}

TEST(ObjectService, ServiceDelayDefersFirstByte) {
  Fixture f;
  f.server.service().set_service_delay(milliseconds(500), milliseconds(500),
                                       1);
  PageLoad load(f, 1, 1000);
  load.runner.start();
  ASSERT_TRUE(
      f.tb.run_until([&] { return load.runner.finished(); }, seconds(30)));
  const auto& obj = load.runner.result().detail[0];
  EXPECT_GE(to_seconds(obj.first_byte - obj.issued), 0.5);
}

TEST(PageLoader, ResourceTimingsAreOrderedAndComplete) {
  Fixture f;
  PageLoad load(f, 10, 5000);
  bool done_cb = false;
  load.runner.start([&](const workload::ScenarioResult& r) {
    done_cb = true;
    EXPECT_TRUE(r.complete);
  });
  ASSERT_TRUE(
      f.tb.run_until([&] { return load.runner.finished(); }, seconds(30)));
  EXPECT_TRUE(done_cb);
  const workload::ScenarioResult& r = load.runner.result();
  ASSERT_EQ(r.detail.size(), 10u);
  EXPECT_EQ(r.transactions, 10u);
  for (std::size_t i = 0; i < r.detail.size(); ++i) {
    const workload::TransactionTiming& obj = r.detail[i];
    EXPECT_EQ(obj.object_index, i);  // requested in object order
    EXPECT_TRUE(obj.done);
    EXPECT_LE(obj.issued.time_since_epoch().count(),
              obj.first_byte.time_since_epoch().count());
    EXPECT_LE(obj.first_byte.time_since_epoch().count(),
              obj.completed.time_since_epoch().count());
    EXPECT_LE(obj.completed, r.finished);
  }
  EXPECT_EQ(r.duration, r.finished - r.started);
}

TEST(PageLoader, QueuesBeyondStreamLimit) {
  harness::Scenario scenario;
  harness::Testbed tb{scenario};
  quic::QuicConfig cfg;
  cfg.max_streams = 4;  // MSPC 4: 12 objects need three waves
  QuicObjectServer server{tb.sim(), tb.server_host(), harness::kQuicPort, cfg};
  quic::TokenCache tokens;
  QuicClientSession session{
      tb.sim(), tb.client_host(), tb.server_host().address(),
      harness::kQuicPort, cfg, tokens};
  const workload::ScenarioSpec page = workload::page_spec({12, 2000});
  workload::ScenarioRunner loader(tb.sim(), session, page);
  loader.start();
  ASSERT_TRUE(tb.run_until([&] { return loader.finished(); }, seconds(30)));
  const std::vector<workload::TransactionTiming>& objects =
      loader.result().detail;
  ASSERT_EQ(objects.size(), 12u);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects[i].download_bytes, 2000u);
    // Every request waited for a free stream: fewer than 4 earlier objects
    // were still in flight when it was issued.
    std::size_t in_flight = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (objects[j].completed > objects[i].issued) ++in_flight;
    }
    EXPECT_LT(in_flight, 4u) << "object " << i;
  }
}

}  // namespace
}  // namespace longlook::http
