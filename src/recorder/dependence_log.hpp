// Per-thread dependence logs for multithreaded record & replay (paper §4).
//
// The recorder logs two kinds of events, both keyed by the thread's
// deterministic instrumentation-point index:
//
//   kEdge      — this thread's access at `point` must happen after thread
//                `src`'s release counter reaches `value` (a happens-before
//                edge; conservative fan-outs appear as one kEdge per thread);
//   kResponse  — this thread performed a release-counter bump at `point`
//                that does not correspond to a deterministic program event
//                (an explicit coordination response or a blocking entry);
//                the replayer re-issues the bump at the same point.
//   kRegionEnd — this thread performed a *deterministic* release-counter
//                bump (a PSRO or the thread-exit bump). The replayer ignores
//                these — it re-issues deterministic bumps at the same
//                program points by construction — but the offline
//                happens-before engine needs them: every bump ends an SBRS
//                region, and the stamps anchor recorded edges to the exact
//                bump that satisfied them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metadata/state_word.hpp"

namespace ht {

enum class LogEventType : std::uint8_t { kEdge, kResponse, kRegionEnd };

struct LogEvent {
  std::uint64_t point;
  LogEventType type;
  ThreadId src;         // kEdge only
  std::uint64_t value;  // kEdge: required src release-counter value;
                        // kResponse/kRegionEnd: post-bump counter (stamp),
                        // always >= 1

  // True for the event kinds that mark a release-counter bump (and hence an
  // SBRS region boundary): kResponse and kRegionEnd.
  bool is_bump() const { return type != LogEventType::kEdge; }

  bool operator==(const LogEvent&) const = default;
};

struct ThreadLog {
  std::vector<LogEvent> events;

  std::size_t edge_count() const;
  std::size_t response_count() const;
  std::size_t region_end_count() const;
};

// A complete recording: one log per thread plus the thread count, which the
// replayer needs to spawn the same thread structure.
struct Recording {
  std::vector<ThreadLog> threads;

  std::size_t total_edges() const;
  std::size_t total_responses() const;
  std::string summary() const;
};

}  // namespace ht
