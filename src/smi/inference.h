// State-machine inference from execution traces (the paper's Synoptic [15]
// role, Sec. 5.1).
//
// Input: one or more timestamped state traces, read off a run's event
// stream by StateRecorder (the "cc:state" transitions every sender emits,
// or BBR's "cc:bbr_state"; the senders keep no log of their own). Output:
// the inferred transition digraph with visit counts, per-edge transition
// probabilities, per-state time fractions (the red numbers in Fig. 13),
// Graphviz DOT text, and simple Synoptic-style temporal invariants.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/time.h"

namespace longlook::smi {

struct TraceEvent {
  TimePoint at{};
  std::string state;
};

struct Trace {
  std::vector<TraceEvent> events;  // state entries in time order
  TimePoint end{};                 // when observation stopped
};

// Records the server's state transitions from a run's event stream: set it
// as the run's trace sink (QuicConfig::trace), run, then read the trace.
// `family` names the machine: "cc:state" (the Table-3 machine every sender
// reports) or "cc:bbr_state" (BBR's own). Other events and the client's
// transitions are ignored.
class StateRecorder final : public obs::TraceSink {
 public:
  explicit StateRecorder(std::string family) : family_(std::move(family)) {}

  void record(const obs::TraceEvent& event) override;

  // The first transition's `from` at `start`, then each `to` at its time;
  // no events when the server never changed state.
  Trace trace(TimePoint start, TimePoint end) const;

 private:
  std::string family_;
  std::vector<TraceEvent> states_;  // states_[0].at is set by trace()
};

class StateMachineInference {
 public:
  void add_trace(const Trace& trace);

  struct Edge {
    std::string from;
    std::string to;
    std::uint64_t count = 0;
    double probability = 0;  // of leaving `from` via this edge
  };

  std::vector<std::string> states() const;
  std::vector<Edge> edges() const;
  std::uint64_t visits(const std::string& state) const;
  // Fraction of total observed time spent in `state` (Fig. 13 red numbers).
  double time_fraction(const std::string& state) const;
  std::set<std::string> initial_states() const { return initial_states_; }

  // Synoptic-style invariants mined over all traces:
  // every occurrence of `b` has an earlier occurrence of `a` in its trace.
  bool always_precedes(const std::string& a, const std::string& b) const;
  // no trace ever visits `b` (eventually) after visiting `a`.
  bool never_followed_by(const std::string& a, const std::string& b) const;

  // Graphviz DOT: nodes annotated with time fractions, edges with
  // transition probabilities (the Fig. 3 / Fig. 13 rendering).
  std::string to_dot(const std::string& graph_name) const;

  std::size_t trace_count() const { return traces_.size(); }

 private:
  std::vector<Trace> traces_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> edge_counts_;
  std::map<std::string, std::uint64_t> visit_counts_;
  std::map<std::string, double> time_in_state_;
  double total_time_ = 0;
  std::set<std::string> initial_states_;
};

}  // namespace longlook::smi
