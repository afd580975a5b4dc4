#include "cc/state_tracker.h"

namespace longlook {

std::string_view to_string(CcState s) {
  switch (s) {
    case CcState::kInit: return "Init";
    case CcState::kSlowStart: return "SlowStart";
    case CcState::kCongestionAvoidance: return "CongestionAvoidance";
    case CcState::kCaMaxed: return "CongestionAvoidanceMaxed";
    case CcState::kApplicationLimited: return "ApplicationLimited";
    case CcState::kRetransmissionTimeout: return "RetransmissionTimeout";
    case CcState::kRecovery: return "Recovery";
    case CcState::kTailLossProbe: return "TailLossProbe";
  }
  return "?";
}

std::string_view to_string(BbrState s) {
  switch (s) {
    case BbrState::kStartup: return "Startup";
    case BbrState::kDrain: return "Drain";
    case BbrState::kProbeBw: return "ProbeBW";
    case BbrState::kProbeRtt: return "ProbeRTT";
  }
  return "?";
}

void StateTracker::transition(TimePoint now, CcState to) {
  if (to == state_) return;
  if (trace_sink_ != nullptr) {
    trace_sink_->record(obs::TraceEvent("cc:state", now)
                            .s("side", trace_side_)
                            .s("from", to_string(state_))
                            .s("to", to_string(to)));
  }
  state_ = to;
}

}  // namespace longlook
