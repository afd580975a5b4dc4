// Abstract congestion-control send algorithm, modelled on Chromium's
// SendAlgorithmInterface so Cubic and BBR are interchangeable inside a
// connection. The owning connection supplies RTT samples via a shared
// RttEstimator and reports sent / acked / lost / timeout / app-limited
// events; the algorithm answers "can I send" and "when".
#pragma once

#include <vector>

#include "cc/rtt_estimator.h"
#include "cc/state_tracker.h"
#include "cc/types.h"
#include "util/time.h"

namespace longlook {

class SendAlgorithm {
 public:
  virtual ~SendAlgorithm() = default;

  virtual void on_packet_sent(TimePoint now, PacketNumber pn,
                              std::size_t bytes,
                              std::size_t bytes_in_flight_before) = 0;

  // One call per ACK-processing step, with everything newly acked and newly
  // declared lost (QUIC's unambiguous ACKs make these sets exact).
  virtual void on_congestion_event(TimePoint now, std::size_t prior_in_flight,
                                   const std::vector<AckedPacket>& acked,
                                   const std::vector<LostPacket>& lost) = 0;

  virtual void on_retransmission_timeout(TimePoint now) = 0;

  // Loss detection fired a tail loss probe (tracked as a CC state).
  virtual void on_tail_loss_probe(TimePoint now) = 0;

  // The sender had window available but nothing to send (or was blocked by
  // flow control): window growth pauses and the state machine records it.
  virtual void on_application_limited(TimePoint now) = 0;

  virtual bool can_send(std::size_t bytes_in_flight) const = 0;
  // Pacing: earliest allowed departure time for the next packet. Pure query;
  // the transmission is booked by on_packet_sent.
  virtual TimePoint earliest_departure(TimePoint now) const = 0;

  virtual std::size_t congestion_window() const = 0;
  virtual std::size_t ssthresh() const = 0;
  virtual bool in_slow_start() const = 0;
  virtual bool in_recovery() const = 0;
  // Current pacing rate in bytes/sec; 0 when the sender does not pace
  // (kernel-TCP flavour) or has not yet computed a rate. Sampled by
  // obs::StateSampler into `ts:conn` records.
  virtual std::uint64_t pacing_rate_bps() const { return 0; }

  virtual StateTracker& tracker() = 0;
  virtual const StateTracker& tracker() const = 0;

  // Attach a structured-trace sink: state transitions and window/pacing
  // updates are emitted as obs events tagged with `side`. Null detaches.
  virtual void set_trace(obs::TraceSink* sink, std::string side) = 0;
};

}  // namespace longlook
