#include "obs/sampler.h"

#include <algorithm>

#include "util/check.h"

namespace longlook::obs {

void StateSampler::add_connection(const Sampleable* conn) {
  LL_DCHECK(conn != nullptr);
  conns_.push_back(conn);
}

void StateSampler::remove_connection(const Sampleable* conn) {
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
}

void StateSampler::add_queue(std::string dir,
                             std::function<QueueSample()> probe) {
  queues_.push_back(QueueReg{std::move(dir), std::move(probe)});
}

void StateSampler::add_host(std::string name,
                            std::function<HostSample()> probe) {
  hosts_.push_back(HostReg{std::move(name), std::move(probe)});
}

std::size_t StateSampler::add_flow(std::string name,
                                   std::function<ConnSample()> probe) {
  flows_.push_back(FlowReg{std::move(name), std::move(probe), {}});
  return flows_.size() - 1;
}

void StateSampler::sample(TimePoint now) {
  ++ticks_;
  if (sink_ != nullptr) {
    for (const Sampleable* conn : conns_) {
      ConnSample s;
      conn->sample_state(s);
      sink_->record(TraceEvent("ts:conn", now)
                        .s("proto", conn->sample_proto())
                        .s("side", conn->sample_side())
                        .u("flow", conn->sample_flow_id())
                        .u("cwnd", s.cwnd_bytes)
                        .u("ssthresh", s.ssthresh_bytes)
                        .i("srtt_ns", s.srtt_ns)
                        .i("rttvar_ns", s.rttvar_ns)
                        .u("inflight", s.bytes_in_flight)
                        .u("pacing_bps", s.pacing_bps)
                        .u("delivered", s.delivered_bytes));
      ++records_;
    }
    for (const QueueReg& reg : queues_) {
      const QueueSample q = reg.probe();
      sink_->record(TraceEvent("ts:queue", now)
                        .s("dir", reg.dir)
                        .i("depth", q.depth_bytes)
                        .u("drops_queue", q.dropped_queue)
                        .u("drops_random", q.dropped_random)
                        .u("delivered", q.delivered));
      ++records_;
    }
    for (const HostReg& reg : hosts_) {
      const HostSample h = reg.probe();
      sink_->record(TraceEvent("ts:host", now)
                        .s("host", reg.name)
                        .u("tx_pkts", h.tx_packets)
                        .u("tx_bytes", h.tx_bytes)
                        .u("rx_pkts", h.rx_packets));
      ++records_;
    }
  }
  for (FlowReg& reg : flows_) {
    const ConnSample s = reg.probe();
    if (sink_ != nullptr) {
      sink_->record(TraceEvent("ts:flow", now)
                        .s("flow", reg.name)
                        .u("cwnd", s.cwnd_bytes)
                        .i("srtt_ns", s.srtt_ns)
                        .u("inflight", s.bytes_in_flight)
                        .u("delivered", s.delivered_bytes));
      ++records_;
    }
    reg.timeline.push_back(FlowPoint{now, s});
  }
}

}  // namespace longlook::obs
