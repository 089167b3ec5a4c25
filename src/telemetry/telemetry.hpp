// Telemetry session: per-thread ring ownership, trace snapshots, and the
// HT_TELEM_* instrumentation macros (DESIGN.md §10).
//
// Zero-cost-off contract: the macros expand to `((void)0)` unless the build
// sets HT_TELEMETRY_ENABLED (CMake -DHT_TELEMETRY=ON), exactly like the
// HT_CHECK_TRANSITION shadow-checker hooks — instrumented hot paths in the
// default build compile to the same code as before this layer existed. With
// telemetry compiled in, a call site still costs only a null check unless a
// session is installed on the runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "metadata/state_word.hpp"
#include "telemetry/ring.hpp"

namespace ht::telemetry {

struct ThreadTrace {
  std::uint16_t tid = 0;
  std::uint64_t recorded = 0;  // total events ever written
  std::uint64_t dropped = 0;   // lost to ring overwrite (oldest first)
  std::vector<Event> events;   // surviving events, oldest to newest
};

struct TraceSnapshot {
  // Calibrated once per drain so consumers can convert tsc deltas to time.
  double cycles_per_second = 0;
  // Smallest tsc in the snapshot; Chrome traces are rendered relative to it.
  std::uint64_t base_tsc = 0;
  std::vector<ThreadTrace> threads;

  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.events.size();
    return n;
  }
  std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.dropped;
    return n;
  }
  // All threads' events merged in timestamp order.
  std::vector<Event> merged() const;
  // Recomputes base_tsc from the events (0 when empty).
  void rebase();
};

// Measures the cycle counter against the steady clock (~10 ms busy window).
double calibrate_cycles_per_second();

// Owns one ring per thread id. Install on a RuntimeConfig before constructing
// the Runtime; register_thread() then attaches each context to its ring.
// Rings are keyed by ThreadId, so a context slot reused across trials keeps
// appending to the same ring — clear() between trials if that matters.
class TelemetrySession {
 public:
  explicit TelemetrySession(std::size_t ring_capacity = EventRing::kDefaultCapacity)
      : ring_capacity_(ring_capacity) {}

  // Find-or-create the ring for `tid`. Thread-safe (called from
  // register_thread on each worker); the returned ring itself is
  // single-writer.
  EventRing* attach(ThreadId tid);

  // Best-effort snapshot; safe while writers are running, and lossless once
  // the traced threads have joined.
  TraceSnapshot snapshot() const;

  // Owner must guarantee no concurrent writers.
  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<EventRing>> rings_;  // index == tid
};

}  // namespace ht::telemetry

// --- instrumentation macros --------------------------------------------------
//
// `ctx` is a ThreadContext (whose `telem` pointer is null unless a session is
// installed). Argument expressions are never evaluated when telemetry is
// compiled out.

#ifdef HT_TELEMETRY_ENABLED
#define HT_TELEM_AVAILABLE 1

// Record one event on ctx's ring (no-op when no session is installed).
#define HT_TELEM_EVENT(ctx, kind, a0, a1, a2)                          \
  do {                                                                 \
    if ((ctx).telem != nullptr) {                                      \
      (ctx).telem->record(::ht::telemetry::EventKind::kind,            \
                          static_cast<std::uint64_t>(a0),              \
                          static_cast<std::uint32_t>(a1),              \
                          static_cast<std::uint32_t>(a2));             \
    }                                                                  \
  } while (0)

// Conditional variant (condition also compiled out when telemetry is off).
#define HT_TELEM_EVENT_IF(cond, ctx, kind, a0, a1, a2) \
  do {                                                 \
    if (cond) HT_TELEM_EVENT(ctx, kind, a0, a1, a2);   \
  } while (0)

// Declares a cycle-count origin for a later HT_TELEM_ELAPSED.
#define HT_TELEM_CYCLES(var) const std::uint64_t var = ::ht::read_cycles()

// The same origin as a value, for a HT_TELEM_ELAPSED in another function.
#define HT_TELEM_ORIGIN() ::ht::read_cycles()

// Record an event whose arg0 is the cycles elapsed since HT_TELEM_CYCLES(var).
#define HT_TELEM_ELAPSED(ctx, kind, var, a1, a2) \
  HT_TELEM_EVENT(ctx, kind, ::ht::read_cycles() - (var), a1, a2)

// State-dwell edge (DESIGN.md §14): record a kStateTransition when a tracker
// moves object `mp`'s StateWord from `from` to `to` across a kind boundary.
// Same-kind updates (reader joins, owner swaps, epoch bumps) keep the object
// in the same residency class and are deliberately not dwell edges.
#define HT_TELEM_TRANSITION(ctx, mp, from, to)                             \
  HT_TELEM_EVENT_IF((from).kind() != (to).kind(), ctx, kStateTransition,   \
                    ::ht::telemetry::pack_transition(                      \
                        static_cast<unsigned>((from).kind()),              \
                        static_cast<unsigned>((to).kind())),               \
                    ::ht::telemetry::object_id(mp), 0)

#else  // !HT_TELEMETRY_ENABLED
#define HT_TELEM_AVAILABLE 0
#define HT_TELEM_EVENT(ctx, kind, a0, a1, a2) ((void)0)
#define HT_TELEM_EVENT_IF(cond, ctx, kind, a0, a1, a2) ((void)0)
#define HT_TELEM_CYCLES(var) ((void)0)
#define HT_TELEM_ORIGIN() std::uint64_t{0}
#define HT_TELEM_ELAPSED(ctx, kind, var, a1, a2) ((void)0)
#define HT_TELEM_TRANSITION(ctx, mp, from, to) ((void)0)
#endif  // HT_TELEMETRY_ENABLED
