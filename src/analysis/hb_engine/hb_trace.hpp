// The offline analysis event model (DESIGN.md §12): a flat, per-thread-
// ordered list of TraceEvents that every hb_engine analysis runs over.
//
// Two builders produce traces at different fidelity:
//
//   * trace_from_recording — sync-only traces from v2 recordings. A
//     recording contains dependence edges and release-counter bumps but no
//     access identity, so these traces support HB reconstruction, region-
//     serializability checking over the dependence structure, and the
//     dependence-graph analytics — but not predictive race detection.
//
//   * TraceBuilder — access-annotated traces fed by the virtual scheduler's
//     RunConfig::on_op observer. These carry reads/writes/lock ops with
//     object identity and a global serialization order, enabling the full
//     predictive race analysis (cross-validated against the runtime
//     FastTrack detector and exhaustive exploration).
//
// The two sources deliberately share one event vocabulary: an analysis
// written against Trace works on either, degrading gracefully when access
// annotations are absent.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "metadata/state_word.hpp"
#include "recorder/dependence_log.hpp"

namespace ht::analysis {

enum class TraceEventKind : std::uint8_t {
  kBump,     // release-counter bump (region boundary); stamp = post-bump
             // counter (>= 1)
  kEdge,     // cross-thread dependence: wait until src's counter >= value
  kRead,     // annotated traces only
  kWrite,    // annotated traces only
  kAcquire,  // annotated traces only: program lock acquire
  kRelease,  // annotated traces only: program lock release
};

constexpr std::uint64_t kNoSeq = std::numeric_limits<std::uint64_t>::max();

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kBump;
  ThreadId thread = kNoThread;
  std::uint64_t point = 0;  // recorder instrumentation-point index (sync
                            // traces) or the op's global seq (annotated)
  // kBump: post-bump release counter (>= 1).
  // kEdge: required source release-counter value.
  std::uint64_t value = 0;
  ThreadId src = kNoThread;  // kEdge only
  int obj = -1;              // kRead/kWrite: object index
  int lock = -1;             // kAcquire/kRelease: lock index
  // Global serialization index when the source observed one (annotated
  // traces); kNoSeq for recordings, where only per-thread order and the
  // recorded dependences order events.
  std::uint64_t seq = kNoSeq;

  bool is_bump() const { return kind == TraceEventKind::kBump; }
  bool is_access() const {
    return kind == TraceEventKind::kRead || kind == TraceEventKind::kWrite;
  }
};

struct Trace {
  // events[t] is thread t's event list in program order.
  std::vector<std::vector<TraceEvent>> threads;
  bool annotated = false;  // carries access/lock events with global seq

  std::size_t thread_count() const { return threads.size(); }
  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& t : threads) n += t.size();
    return n;
  }
};

// Sync-only trace from a loaded recording: kEdge events map 1:1, kResponse
// and kRegionEnd events both become kBump (the HB order cares that the
// counter bumped, not why).
Trace trace_from_recording(const Recording& recording);

// Access-annotated trace builder for virtual-scheduler runs. Wire it up as
//   TraceBuilder tb(nthreads);
//   explorer.run_config().on_op = tb.observer();
// then run a schedule and call take(). Release-counter bumps are derived
// from the ops themselves (each PSRO/BlockWindow/terminal coordination bumps
// the executing thread's counter), mirroring the runtime's bump discipline
// closely enough for offline HB: lock acquire/release pairs carry the
// program-synchronization order, and every op carries its global seq.
class TraceBuilder {
 public:
  explicit TraceBuilder(int nthreads);

  // Appends the events for one completed op. Called from the scheduler's
  // observer context (mutually exclusive, globally ordered).
  void on_op(std::uint64_t seq, int slot, const struct OpView& op);

  Trace take();

 private:
  Trace trace_;
  std::vector<std::uint64_t> bump_counts_;
};

// Minimal structural view of a schedule Op, so this header does not depend
// on schedule/program.hpp (the analysis library is layered below the
// schedule library).
struct OpView {
  enum class Kind : std::uint8_t {
    kLoad,
    kStore,
    kPsro,
    kBlockWindow,
    kLockAcquire,
    kLockRelease,
    kOther,
  };
  Kind kind = Kind::kOther;
  int obj = 0;
  int lock = 0;
};

}  // namespace ht::analysis
