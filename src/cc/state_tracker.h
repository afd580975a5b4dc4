// Execution-trace instrumentation for state-machine inference.
//
// This is the reproduction of the paper's "23 lines of code in 5 files":
// senders report every CC state transition here, and the tracker emits it
// as a "cc:state" event. It keeps only the current state, no log: the event
// stream is the one record of state history, which smi::StateRecorder
// turns into the traces behind the inferred state machines, visit
// statistics and time-in-state fractions (Figs. 3 and 13).
#pragma once

#include <string>

#include "cc/types.h"
#include "obs/trace.h"
#include "util/time.h"

namespace longlook {

class StateTracker {
 public:
  explicit StateTracker(CcState initial = CcState::kInit) : state_(initial) {}

  // Moves to `to` at time `now`; no-op if already there.
  void transition(TimePoint now, CcState to);

  CcState state() const { return state_; }

  // Structured-trace sink: each transition is emitted as a "cc:state"
  // event tagged with `side` ("client"/"server"). Null disables.
  void set_trace(obs::TraceSink* sink, std::string side) {
    trace_sink_ = sink;
    trace_side_ = std::move(side);
  }

 private:
  CcState state_;
  obs::TraceSink* trace_sink_ = nullptr;
  std::string trace_side_;
};

}  // namespace longlook
