// Unit tests: state-machine inference — transition counts/probabilities,
// time-in-state fractions, Synoptic-style invariants, DOT output, and the
// StateRecorder that reads traces off the CC instrumentation's events.
#include <gtest/gtest.h>

#include "cc/state_tracker.h"
#include "smi/inference.h"

namespace longlook::smi {
namespace {

Trace make_trace(std::initializer_list<std::pair<int, const char*>> events,
                 int end_ms) {
  Trace t;
  for (const auto& [ms, state] : events) {
    t.events.push_back({TimePoint{} + milliseconds(ms), state});
  }
  t.end = TimePoint{} + milliseconds(end_ms);
  return t;
}

TEST(Inference, EdgeCountsAndProbabilities) {
  StateMachineInference inf;
  inf.add_trace(make_trace({{0, "A"}, {10, "B"}, {20, "A"}, {30, "B"}}, 40));
  inf.add_trace(make_trace({{0, "A"}, {10, "C"}}, 20));

  EXPECT_EQ(inf.visits("A"), 3u);
  EXPECT_EQ(inf.visits("B"), 2u);
  EXPECT_EQ(inf.visits("C"), 1u);

  bool found_ab = false;
  for (const auto& e : inf.edges()) {
    if (e.from == "A" && e.to == "B") {
      found_ab = true;
      EXPECT_EQ(e.count, 2u);
      // A has 3 outgoing transitions: A->B x2, A->C x1.
      EXPECT_NEAR(e.probability, 2.0 / 3.0, 1e-9);
    }
  }
  EXPECT_TRUE(found_ab);
}

TEST(Inference, TimeFractionsSumToOne) {
  StateMachineInference inf;
  inf.add_trace(make_trace({{0, "A"}, {25, "B"}}, 100));
  EXPECT_NEAR(inf.time_fraction("A"), 0.25, 1e-9);
  EXPECT_NEAR(inf.time_fraction("B"), 0.75, 1e-9);
  double total = 0;
  for (const auto& s : inf.states()) total += inf.time_fraction(s);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Inference, InitialStates) {
  StateMachineInference inf;
  inf.add_trace(make_trace({{0, "Init"}, {5, "X"}}, 10));
  inf.add_trace(make_trace({{0, "Init"}, {5, "Y"}}, 10));
  EXPECT_EQ(inf.initial_states().size(), 1u);
  EXPECT_TRUE(inf.initial_states().count("Init"));
}

TEST(Inference, AlwaysPrecedesInvariant) {
  StateMachineInference inf;
  inf.add_trace(make_trace({{0, "Init"}, {5, "SS"}, {10, "CA"}}, 20));
  inf.add_trace(make_trace({{0, "Init"}, {5, "SS"}}, 10));
  EXPECT_TRUE(inf.always_precedes("Init", "SS"));
  EXPECT_TRUE(inf.always_precedes("SS", "CA"));
  EXPECT_FALSE(inf.always_precedes("CA", "SS"));   // SS occurs without CA before
  EXPECT_FALSE(inf.always_precedes("SS", "Missing"));  // vacuous: not claimed
}

TEST(Inference, NeverFollowedByInvariant) {
  StateMachineInference inf;
  inf.add_trace(make_trace({{0, "A"}, {5, "B"}, {10, "C"}}, 20));
  EXPECT_TRUE(inf.never_followed_by("C", "A"));
  EXPECT_FALSE(inf.never_followed_by("A", "C"));  // A .. C occurs (eventually)
  EXPECT_TRUE(inf.never_followed_by("B", "A"));
}

TEST(Inference, DotOutputContainsNodesAndEdges) {
  StateMachineInference inf;
  inf.add_trace(make_trace({{0, "SlowStart"}, {10, "Recovery"}}, 20));
  const std::string dot = inf.to_dot("test");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"SlowStart\""), std::string::npos);
  EXPECT_NE(dot.find("\"SlowStart\" -> \"Recovery\""), std::string::npos);
}

// Regression: to_dot used to truncate instead of rounding half-up, printing
// 9.99%-of-time as "9.9%" and a 2/3 edge probability as "0.66".
TEST(Inference, DotOutputRoundsHalfUp) {
  StateMachineInference inf;
  // A holds for 999 of 10000 ms = 9.99% -> one decimal place -> "10".
  inf.add_trace(make_trace({{0, "A"}, {999, "B"}}, 10000));
  const std::string dot = inf.to_dot("round");
  EXPECT_NE(dot.find("\"A\" [label=\"A\\n10% of time\"]"), std::string::npos)
      << dot;

  StateMachineInference edges;
  // A -> B twice, A -> C once: probability 2/3 -> "0.67", 1/3 -> "0.33".
  edges.add_trace(make_trace({{0, "A"}, {10, "B"}, {20, "A"}, {30, "B"}}, 40));
  edges.add_trace(make_trace({{0, "A"}, {10, "C"}}, 20));
  const std::string d2 = edges.to_dot("probs");
  EXPECT_NE(d2.find("\"A\" -> \"B\" [label=\"0.67\"]"), std::string::npos)
      << d2;
  EXPECT_NE(d2.find("\"A\" -> \"C\" [label=\"0.33\"]"), std::string::npos)
      << d2;
}

TEST(Inference, TraceFromObsEventsFiltersBySide) {
  StateRecorder rec("cc:state");
  rec.record(obs::TraceEvent("cc:state", TimePoint{} + milliseconds(5))
                 .s("side", "server")
                 .s("from", "SlowStart")
                 .s("to", "Recovery"));
  rec.record(obs::TraceEvent("quic:packet_sent", TimePoint{} + milliseconds(6))
                 .s("side", "server")
                 .u("pn", 1));  // non-state event: ignored
  rec.record(obs::TraceEvent("cc:state", TimePoint{} + milliseconds(9))
                 .s("side", "client")
                 .s("from", "SlowStart")
                 .s("to", "CongestionAvoidance"));  // other side: filtered
  rec.record(obs::TraceEvent("cc:bbr_state", TimePoint{} + milliseconds(12))
                 .s("side", "server")
                 .s("from", "Startup")
                 .s("to", "Drain"));  // other family: ignored
  const Trace t = rec.trace(TimePoint{}, TimePoint{} + milliseconds(20));
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].state, "SlowStart");  // synthesised initial state
  EXPECT_EQ(t.events[0].at, TimePoint{});
  EXPECT_EQ(t.events[1].state, "Recovery");
  EXPECT_EQ(t.events[1].at, TimePoint{} + milliseconds(5));
  EXPECT_EQ(t.end, TimePoint{} + milliseconds(20));
}

TEST(Inference, TrackerAdapterIncludesInitialState) {
  StateRecorder rec("cc:state");
  StateTracker tracker(CcState::kInit);
  tracker.set_trace(&rec, "server");
  tracker.transition(TimePoint{} + milliseconds(5), CcState::kSlowStart);
  tracker.transition(TimePoint{} + milliseconds(15),
                     CcState::kCongestionAvoidance);
  const Trace t = rec.trace(TimePoint{}, TimePoint{} + milliseconds(20));
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.events[0].state, "Init");
  EXPECT_EQ(t.events[1].state, "SlowStart");
  EXPECT_EQ(t.events[2].state, "CongestionAvoidance");

  StateMachineInference inf;
  inf.add_trace(t);
  EXPECT_NEAR(inf.time_fraction("Init"), 0.25, 1e-9);
  EXPECT_NEAR(inf.time_fraction("CongestionAvoidance"), 0.25, 1e-9);
}

TEST(Inference, EmptyTraceIgnored) {
  StateMachineInference inf;
  inf.add_trace(Trace{});
  EXPECT_EQ(inf.trace_count(), 0u);
  EXPECT_TRUE(inf.states().empty());
}

TEST(StateTrackerUnit, NoOpOnSameState) {
  obs::RecordingSink rec;
  StateTracker tracker(CcState::kSlowStart);
  tracker.set_trace(&rec, "server");
  tracker.transition(TimePoint{} + milliseconds(1), CcState::kSlowStart);
  EXPECT_EQ(tracker.state(), CcState::kSlowStart);
  EXPECT_TRUE(rec.events().empty());
}

}  // namespace
}  // namespace longlook::smi
