// Test helpers over the obs::TraceEvent protocol log: run a stream with a
// flight recorder attached, and filter a log by event kind.
#pragma once

#include <span>
#include <vector>

#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm::test_log {

/// One stream run plus the protocol log the auditor replays.
struct LoggedRun {
  rt::StreamResult r;
  std::vector<obs::TraceEvent> log;
};

inline LoggedRun run_logged(const rt::StreamRuntime& srt, sim::Simulator& sim,
                            NodeId source, std::span<const NodeId> dests,
                            rt::StreamConfig cfg) {
  obs::FlightRecorder rec;
  cfg.recorder = &rec;
  LoggedRun out{srt.run(sim, source, dests, cfg), {}};
  out.log = verify::InvariantAuditor::whole_log(rec);
  return out;
}

/// Same, over a default-configured runtime.
inline LoggedRun run_logged(sim::Simulator& sim, NodeId source,
                            std::span<const NodeId> dests, rt::StreamConfig cfg) {
  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  return run_logged(srt, sim, source, dests, std::move(cfg));
}

/// Events of kind `k` in the log, in log order.
inline std::vector<obs::TraceEvent> events_of(std::span<const obs::TraceEvent> log,
                                              obs::EventKind k) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& ev : log)
    if (ev.event_kind() == k) out.push_back(ev);
  return out;
}

}  // namespace pcm::test_log
