#include "obs/flight_recorder.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "util/check.h"

namespace longlook::obs {
namespace {

// Thread-local registry of live recorders: the check-fail observer walks
// the *failing* thread's recorders only, so parallel sweep workers dump
// their own runs and nobody else's.
thread_local std::vector<FlightRecorder*> t_recorders;
thread_local std::uint64_t t_dumps = 0;
// Re-entrancy latch: a check failing *inside* a dump (e.g. RingBuffer
// DCHECKs) must not recurse into another dump.
thread_local bool t_dumping = false;

// Process-wide dump-file ordinal, so parallel workers dumping connections
// with identical deterministic labels never clobber each other's files.
std::atomic<std::uint64_t> g_dump_ordinal{0};

std::string dump_directory(const FlightRecorderConfig& config) {
  if (!config.dump_dir.empty()) return config.dump_dir;
  const char* env = std::getenv("LL_FLIGHT_DUMP_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

// Event names that count toward the retransmit-storm window — the same
// population `tracectl detect`'s retransmit-storm rule counts (lost QUIC
// packets, retransmitted TCP segments, RTO fires on either stack).
bool is_rtx_event(const TraceEvent& event) {
  const std::string_view name = event.name();
  if (name == "quic:packet_lost" || name == "quic:rto" ||
      name == "tcp:rto" || name == "tcp:fast_retransmit") {
    return true;
  }
  if (name == "tcp:segment_sent") {
    for (const TraceField& f : event.fields()) {
      if (f.key == "rtx") return f.kind == TraceField::Kind::kBool && f.b;
    }
  }
  return false;
}

}  // namespace

void flight_recorder_check_observer(const CheckFailure& failure) {
  if (t_dumping) return;
  t_dumping = true;
  for (FlightRecorder* recorder : t_recorders) {
    recorder->dump_on_check(failure);
  }
  t_dumping = false;
}

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config,
                               TraceSink* downstream, std::string label)
    : config_(config), downstream_(downstream), label_(std::move(label)) {
  t_recorders.push_back(this);
  // The first recorder installs the process-wide observer; it stays
  // installed (an empty registry makes it a no-op walk).
  static std::atomic<bool> installed{false};
  if (!installed.exchange(true)) {
    set_check_fail_observer(&flight_recorder_check_observer);
  }
}

FlightRecorder::~FlightRecorder() {
  for (std::size_t i = 0; i < t_recorders.size(); ++i) {
    if (t_recorders[i] == this) {
      t_recorders.erase(t_recorders.begin() +
                        static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void FlightRecorder::record(const TraceEvent& event) {
  if (downstream_ != nullptr) downstream_->record(event);
  buffer_record(event);
  check_pathology(event);
}

void FlightRecorder::buffer_record(const TraceEvent& event) {
  while (ring_.size() >= config_.capacity && !ring_.empty()) {
    ring_.pop_front();
    ++dropped_;
  }
  BufferedRecord rec;
  rec.at = event.at();
  rec.seq = next_seq_++;
  append_json_line(rec.line, event);
  ring_.push_back(std::move(rec));
}

void FlightRecorder::check_pathology(const TraceEvent& event) {
  if (config_.storm_rtx_threshold > 0 && !storm_dumped_ &&
      is_rtx_event(event)) {
    TimePoint at = event.at();
    rtx_times_.push_back(std::move(at));
    while (!rtx_times_.empty() &&
           event.at() - rtx_times_.front() > config_.storm_window) {
      rtx_times_.pop_front();
    }
    if (rtx_times_.size() >= config_.storm_rtx_threshold) {
      storm_dumped_ = true;  // latch before dumping: one storm, one artifact
      dump_now("retransmit_storm");
    }
  }
  if (config_.collapse_divisor > 0 && !collapse_dumped_ &&
      event.name() == "cc:cwnd") {
    std::uint64_t cwnd = 0;
    for (const TraceField& f : event.fields()) {
      if (f.key == "cwnd") {
        cwnd = f.u;
        break;
      }
    }
    if (cwnd > peak_cwnd_) peak_cwnd_ = cwnd;
    if (peak_cwnd_ >= config_.collapse_min_peak &&
        cwnd < peak_cwnd_ / config_.collapse_divisor) {
      collapse_dumped_ = true;
      dump_now("cwnd_collapse");
    }
  }
}

std::string FlightRecorder::render_dump(std::string_view reason,
                                        const CheckFailure* failure) const {
  const TimePoint t_first = ring_.empty() ? TimePoint{} : ring_.front().at;
  const TimePoint t_last = ring_.empty() ? TimePoint{} : ring_.back().at;
  TraceEvent header("flight:dump", t_first);
  header.u("v", 3)
      .s("label", label_)
      .s("reason", reason)
      .u("events", ring_.size())
      .u("dropped", dropped_);
  if (failure != nullptr) {
    header.s("kind", failure->kind)
        .s("file", failure->file)
        .u("line", static_cast<std::uint64_t>(failure->line))
        .s("cond", failure->condition);
  }
  std::string out;
  append_json_line(out, header);
  out += '\n';
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const BufferedRecord& rec = ring_[i];
    TraceEvent line_ev("flight:event", rec.at);
    line_ev.u("seq", rec.seq).s("line", rec.line);
    append_json_line(out, line_ev);
    out += '\n';
  }
  TraceEvent footer("flight:end", t_last);
  footer.u("events", ring_.size());
  append_json_line(out, footer);
  out += '\n';
  return out;
}

void FlightRecorder::write_dump(const std::string& body,
                                std::string_view reason, bool to_stderr) {
  ++dumps_;
  ++t_dumps;
  const std::string dir = dump_directory(config_);
  if (!dir.empty()) {
    const std::uint64_t ordinal = g_dump_ordinal.fetch_add(1);
    const std::string path = dir + "/flight_" + label_ + "_" +
                             std::to_string(ordinal) + ".jsonl";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  if (to_stderr) {
    std::fprintf(stderr, "[flight-recorder] %s dump (%s), %zu records:\n",
                 label_.c_str(), std::string(reason).c_str(), ring_.size());
    std::fwrite(body.data(), 1, body.size(), stderr);
    std::fflush(stderr);
  }
}

void FlightRecorder::dump_now(std::string_view reason) {
  write_dump(render_dump(reason, nullptr), reason, /*to_stderr=*/false);
}

void FlightRecorder::dump_on_check(const CheckFailure& failure) {
  // Always written to stderr: the default handler aborts right after us.
  write_dump(render_dump("check", &failure), "check", /*to_stderr=*/true);
}

std::uint64_t FlightRecorder::thread_dumps() { return t_dumps; }

}  // namespace longlook::obs
