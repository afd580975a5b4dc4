// Crash-dump ring buffer over a trace sink (trace schema v3 `flight:`
// blocks).
//
// A FlightRecorder is itself a TraceSink that wraps another one, for
// example a run's `RunObserver::trace`: it forwards every event downstream
// (when a sink is attached) and keeps the most recent N rendered records
// in a bounded util::RingBuffer. When an LL_CHECK/LL_INVARIANT fires — or
// an in-process pathology trigger trips (retransmit storm / cwnd collapse,
// mirroring the `tracectl detect` rules) — the ring is dumped as a
// standalone `flight:` post-mortem artifact, turning assertion deaths into
// diagnosable traces.
//
// Dump artifact shape (docs/trace_schema.md §v3):
//   {"t":<t_first>,"ev":"flight:dump","v":3,"label":...,"reason":...,
//    "events":N,"dropped":M,...}
//   {"t":<ns>,"ev":"flight:event","seq":<ordinal>,"line":"<original line>"}
//   ... (ring contents, oldest first; `dropped` > 0 and a nonzero first
//       `seq` are the wraparound truncation markers)
//   {"t":<t_last>,"ev":"flight:end","events":N}
//
// Dumps go to `dump_dir` (or $LL_FLIGHT_DUMP_DIR) as one file per dump;
// check-failure dumps are additionally written to stderr, since the default
// handler is about to abort the process. Dumps never feed the downstream
// sink, so run artifacts stay byte-identical whether or not a recorder is
// attached.
//
// Thread model: a recorder belongs to one single-threaded simulation;
// check-failure dumps walk a thread-local registry, so parallel sweep
// workers never touch each other's recorders.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "util/pool.h"
#include "util/time.h"

namespace longlook {
struct CheckFailure;
}  // namespace longlook

namespace longlook::obs {

struct FlightRecorderConfig {
  // Ring capacity in records (rounded up to a power of two by RingBuffer).
  std::size_t capacity = 256;
  // Retransmit-storm trigger: dump when at least this many retransmission
  // events (lost QUIC packets, rtx-flagged TCP segments, RTOs) land within
  // `storm_window` of sim time. 0 disables. Mirrors `tracectl detect
  // --rtx-storm-count/--rtx-storm-window-s`.
  std::uint64_t storm_rtx_threshold = 0;
  Duration storm_window = seconds(1);
  // Cwnd-collapse trigger: dump when a `cc:cwnd` sample drops below
  // peak/`collapse_divisor` after the peak reached `collapse_min_peak`
  // bytes. 0 disables.
  std::uint64_t collapse_divisor = 0;
  std::uint64_t collapse_min_peak = 64 * 1024;
  // Dump directory; empty falls back to $LL_FLIGHT_DUMP_DIR. When both are
  // empty, dumps only reach stderr (check failures) or are dropped
  // (pathology triggers with no configured destination still count).
  std::string dump_dir;
};

class FlightRecorder final : public TraceSink {
 public:
  // `downstream` (may be null) receives every recorded event unchanged;
  // `label` tags dump files and the flight:dump header (e.g. "quic_client").
  FlightRecorder(const FlightRecorderConfig& config, TraceSink* downstream,
                 std::string label);
  ~FlightRecorder() override;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(const TraceEvent& event) override;

  // Renders the current ring as a flight: block (one JSON line each, "\n"
  // terminated). `reason` lands in the header; `failure` adds the check's
  // kind/file/line when dumping from the check-fail observer.
  std::string render_dump(std::string_view reason,
                          const CheckFailure* failure) const;

  // Manual/pathology dump entry point: renders and writes to the configured
  // destination. Each recorder keeps dumping on later triggers of a
  // *different* reason, but latches per reason so one storm produces one
  // artifact, not thousands.
  void dump_now(std::string_view reason);

  std::uint64_t dump_count() const { return dumps_; }
  std::size_t buffered() const { return ring_.size(); }
  // Records pushed out of the ring by wraparound (the truncation marker).
  std::uint64_t dropped() const { return dropped_; }
  const std::string& label() const { return label_; }

  // Dumps triggered by recorders on the calling thread since thread start;
  // the harness folds the per-run delta into the `flight_dumps` profile
  // counter.
  static std::uint64_t thread_dumps();

 private:
  struct BufferedRecord {
    TimePoint at{};
    std::uint64_t seq = 0;   // absolute record ordinal (0-based)
    std::string line;        // canonical rendered JSON (no newline)
  };

  void buffer_record(const TraceEvent& event);
  void check_pathology(const TraceEvent& event);
  void write_dump(const std::string& body, std::string_view reason,
                  bool to_stderr);
  friend void flight_recorder_check_observer(const CheckFailure& failure);
  void dump_on_check(const CheckFailure& failure);

  FlightRecorderConfig config_;
  TraceSink* downstream_ = nullptr;
  std::string label_;
  util::RingBuffer<BufferedRecord> ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dumps_ = 0;
  bool storm_dumped_ = false;
  bool collapse_dumped_ = false;
  // Sliding window of recent retransmission-event timestamps.
  util::RingBuffer<TimePoint> rtx_times_;
  std::uint64_t peak_cwnd_ = 0;
};

}  // namespace longlook::obs
