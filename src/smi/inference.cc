#include "smi/inference.h"

#include <cmath>
#include <sstream>
#include <string_view>

namespace longlook::smi {

namespace {
// Round half-up at the rendered precision: a 0.999 transition probability
// renders as 1, not the truncated 0.99, and 9.99% time-in-state as 10%.
double round_to(double value, double scale) {
  return std::floor(value * scale + 0.5) / scale;
}
}  // namespace

void StateRecorder::record(const obs::TraceEvent& event) {
  if (event.name() != family_) return;
  std::string_view side;
  std::string_view from;
  std::string_view to;
  for (const obs::TraceField& f : event.fields()) {
    if (f.key == "side") side = f.s;
    if (f.key == "from") from = f.s;
    if (f.key == "to") to = f.s;
  }
  if (side != "server") return;
  if (states_.empty()) states_.push_back({TimePoint{}, std::string(from)});
  states_.push_back({event.at(), std::string(to)});
}

Trace StateRecorder::trace(TimePoint start, TimePoint end) const {
  Trace trace{states_, end};
  if (!trace.events.empty()) trace.events.front().at = start;
  return trace;
}

void StateMachineInference::add_trace(const Trace& trace) {
  if (trace.events.empty()) return;
  traces_.push_back(trace);
  initial_states_.insert(trace.events.front().state);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    ++visit_counts_[ev.state];
    const TimePoint until =
        i + 1 < trace.events.size() ? trace.events[i + 1].at : trace.end;
    const double dt = to_seconds(until - ev.at);
    if (dt > 0) {
      time_in_state_[ev.state] += dt;
      total_time_ += dt;
    }
    if (i + 1 < trace.events.size()) {
      ++edge_counts_[{ev.state, trace.events[i + 1].state}];
    }
  }
}

std::vector<std::string> StateMachineInference::states() const {
  std::vector<std::string> out;
  out.reserve(visit_counts_.size());
  for (const auto& [state, count] : visit_counts_) out.push_back(state);
  return out;
}

std::vector<StateMachineInference::Edge> StateMachineInference::edges() const {
  // Out-degree totals for probabilities.
  std::map<std::string, std::uint64_t> outgoing;
  for (const auto& [edge, count] : edge_counts_) outgoing[edge.first] += count;
  std::vector<Edge> out;
  for (const auto& [edge, count] : edge_counts_) {
    Edge e;
    e.from = edge.first;
    e.to = edge.second;
    e.count = count;
    e.probability = outgoing[edge.first] > 0
                        ? static_cast<double>(count) /
                              static_cast<double>(outgoing[edge.first])
                        : 0;
    out.push_back(e);
  }
  return out;
}

std::uint64_t StateMachineInference::visits(const std::string& state) const {
  auto it = visit_counts_.find(state);
  return it == visit_counts_.end() ? 0 : it->second;
}

double StateMachineInference::time_fraction(const std::string& state) const {
  if (total_time_ <= 0) return 0;
  auto it = time_in_state_.find(state);
  return it == time_in_state_.end() ? 0 : it->second / total_time_;
}

bool StateMachineInference::always_precedes(const std::string& a,
                                            const std::string& b) const {
  bool b_seen_anywhere = false;
  for (const Trace& trace : traces_) {
    bool a_seen = false;
    for (const TraceEvent& ev : trace.events) {
      if (ev.state == a) a_seen = true;
      if (ev.state == b) {
        b_seen_anywhere = true;
        if (!a_seen) return false;
      }
    }
  }
  return b_seen_anywhere;  // vacuous truth is not interesting
}

bool StateMachineInference::never_followed_by(const std::string& a,
                                              const std::string& b) const {
  for (const Trace& trace : traces_) {
    bool a_seen = false;
    for (const TraceEvent& ev : trace.events) {
      if (a_seen && ev.state == b) return false;
      if (ev.state == a) a_seen = true;
    }
  }
  return true;
}

std::string StateMachineInference::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=ellipse, fontsize=11];\n";
  for (const auto& [state, count] : visit_counts_) {
    os << "  \"" << state << "\" [label=\"" << state << "\\n"
       << round_to(time_fraction(state) * 100.0, 10.0)
       << "% of time\"];\n";
  }
  for (const Edge& e : edges()) {
    os << "  \"" << e.from << "\" -> \"" << e.to << "\" [label=\""
       << round_to(e.probability, 100.0) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace longlook::smi
