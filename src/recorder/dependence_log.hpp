// Per-thread dependence logs for multithreaded record & replay (paper §4).
//
// The recorder logs three kinds of events, both keyed by the thread's
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
//
// In memory an event takes 16 bytes: point, src and type share one word
// (48 + 12 + 4 bits) and value has the other. On disk it stays 21 bytes
// (recording_io.hpp), and the loader rejects a point or src the packed
// word cannot hold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metadata/state_word.hpp"

namespace ht {

enum class LogEventType : std::uint8_t { kEdge, kResponse, kRegionEnd };

struct LogEvent {
  // The largest point and source thread the packed word holds. Thread ids
  // are 12 bits already (kMaxThreads), so every src, kNoThread included,
  // fits; a point past kMaxPoint is a hard error at record time.
  static constexpr std::uint64_t kMaxPoint = (std::uint64_t{1} << 48) - 1;
  static constexpr ThreadId kMaxSrc = kMaxThreads - 1;

  std::uint64_t point : 48;
  ThreadId src : 12;     // kEdge only
  LogEventType type : 4;
  std::uint64_t value;   // kEdge: required src release-counter value;
                         // kResponse/kRegionEnd: post-bump counter (stamp),
                         // always >= 1

  constexpr LogEvent()
      : point(0), src(0), type(LogEventType::kEdge), value(0) {}
  constexpr LogEvent(std::uint64_t p, LogEventType t, ThreadId s,
                     std::uint64_t v)
      : point(p), src(s), type(t), value(v) {}

  // True for the event kinds that mark a release-counter bump (and hence an
  // SBRS region boundary): kResponse and kRegionEnd.
  bool is_bump() const { return type != LogEventType::kEdge; }

  bool operator==(const LogEvent&) const = default;
};
static_assert(sizeof(LogEvent) == 16, "LogEvent packs into two words");

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
