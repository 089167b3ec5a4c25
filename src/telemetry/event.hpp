// Telemetry event schema (DESIGN.md §10).
//
// One fixed 32-byte slot per event so the per-thread ring is a flat array the
// writer can fill without allocation. The arg layout per kind is documented
// on the enumerators and consumed by metrics.cpp (aggregation) and
// chrome_trace.cpp (rendering); keep all three in sync. The kinds are numbered
// contiguously from 1 and the numbers are the trace file format: renumbering
// them needs a new trace_io.cpp version, so an older file is rejected rather
// than misread. Consumers render a kind they do not know as "unknown".
#pragma once

#include <cstdint>

namespace ht::telemetry {

enum class EventKind : std::uint16_t {
  kThreadStart = 1,  // arg0 = point_index at registration
  kThreadExit,       // arg0 = release counter at exit

  // Substrate (src/runtime/).
  kCoordRoundTrip,     // arg0 = round-trip cycles, arg1 = owner tid,
                       // arg2 = 1 if resolved implicitly (owner blocked)
  kSafePointResponse,  // arg0 = release counter after the bump
  kPsro,               // arg0 = release counter after the bump
  kBlockingEnter,      // program operation may block (lock wait, barrier)
  kBlockingExit,

  // Trackers (src/tracking/).
  kDeferredFlush,  // arg0 = lock-buffer entries unlocked by this flush,
                   // arg1 = cycles the flush loop took (low 32 bits)
  kOptConflict,    // arg1 = object id, arg2 = flag bits (kFlag*)
  kPessAcquire,    // arg1 = object id, arg2 = flag bits (kFlag*)
  kPessWait,       // arg0 = wait cycles until acquisition, arg1 = object id
  kPolicyOptToPess,  // arg1 = object id (adaptive policy moved it pessimistic)
  kPolicyPessToOpt,  // arg1 = object id (cooled down at deferred unlock)

  // RS enforcer (src/enforcer/).
  kRegionRestart,  // arg0 = cycles burned by the aborted attempt,
                   // arg1 = attempt number (0-based)

  // Dependence recorder (src/recorder/).
  kDepEdge,  // arg0 = source release-counter value, arg1 = source tid

  // Resilience layer (src/resilience/, DESIGN.md §11).
  kLeaseExpired,   // arg0 = stalled owner tid, arg1 = unanswered ticket,
                   // arg2 = stalled epochs when the lease was declared dead
  kQuarantine,     // arg0 = victim tid, arg1 = quarantine status epoch,
                   // arg2 = tickets released by the quarantine
  kSeizure,        // arg0 = seizure latency cycles, arg1 = object id,
                   // arg2 = victim tid

  // Batched coordination (DESIGN.md §13). Emitted requester-side once per
  // batch group of coordinate_batch_multi, alongside its kCoordRoundTrip.
  kCoordBatch,  // arg0 = objects covered by the batch, arg1 = owner tid,
                // arg2 = 1 if resolved implicitly (owner blocked)

  // Causal spans (DESIGN.md §14). kCoordRequest opens a cross-thread span on
  // the requester's ring at ticket acquisition (scalar) or mailbox post
  // (batch); the matching close is the requester's own kCoordRoundTrip. The
  // owner half is stitched offline: scalar spans join against the response
  // event whose watermark range (arg2, arg1] covers the ticket; batch spans
  // join kCoordBatchDrain by span id. Response-flavored events
  // (kSafePointResponse, kPsro, kBlockingEnter, kThreadExit) carry
  // arg1 = response watermark after the publish (low 32 bits) and
  // arg2 = watermark before it, so each answered ticket maps to exactly one
  // owner-side event.
  kCoordRequest,     // arg0 = ticket (scalar) or span id (batch),
                     // arg1 = owner tid, arg2 = 1 if batched
  kCoordBatchDrain,  // arg0 = span id, arg1 = requester tid,
                     // arg2 = objects covered; recorded on the ring of the
                     // thread that drained (owner, or a quarantiner)

  // Per-object state-dwell accounting (DESIGN.md §14): one event per
  // state-kind change, emitted by whichever thread's CAS (or exclusive
  // store) landed the transition. Residency is the tsc gap between
  // consecutive transitions of the same object id.
  kStateTransition,  // arg0 = pack_transition(from kind, to kind),
                     // arg1 = object id
};

// arg2 flag bits for kOptConflict / kPessAcquire.
inline constexpr std::uint32_t kFlagExplicit = 1u << 0;   // explicit round trip
inline constexpr std::uint32_t kFlagStore = 1u << 1;      // access was a store
inline constexpr std::uint32_t kFlagWentPess = 1u << 2;   // landed pessimistic
inline constexpr std::uint32_t kFlagContended = 1u << 3;  // lock was contended
inline constexpr std::uint32_t kFlagReentrant = 1u << 4;  // no atomic needed
inline constexpr std::uint32_t kFlagElided = 1u << 5;     // ideal: no wait

struct Event {
  std::uint64_t tsc = 0;   // cycle_timer.hpp read_cycles() at record time
  std::uint64_t arg0 = 0;  // latency in cycles, or a counter value
  std::uint32_t arg1 = 0;  // object id / peer tid
  std::uint32_t arg2 = 0;  // flag bits
  std::uint32_t seq = 0;   // low 32 bits of the per-thread sequence number
  std::uint16_t kind = 0;  // EventKind
  std::uint16_t tid = 0;
};
static_assert(sizeof(Event) == 32, "one event per half cache line");

inline const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kThreadStart: return "thread_start";
    case EventKind::kThreadExit: return "thread_exit";
    case EventKind::kCoordRoundTrip: return "coord_round_trip";
    case EventKind::kSafePointResponse: return "safepoint_response";
    case EventKind::kPsro: return "psro";
    case EventKind::kBlockingEnter: return "blocking_enter";
    case EventKind::kBlockingExit: return "blocking_exit";
    case EventKind::kDeferredFlush: return "deferred_flush";
    case EventKind::kOptConflict: return "opt_conflict";
    case EventKind::kPessAcquire: return "pess_acquire";
    case EventKind::kPessWait: return "pess_wait";
    case EventKind::kPolicyOptToPess: return "policy_opt_to_pess";
    case EventKind::kPolicyPessToOpt: return "policy_pess_to_opt";
    case EventKind::kRegionRestart: return "region_restart";
    case EventKind::kDepEdge: return "dep_edge";
    case EventKind::kLeaseExpired: return "lease_expired";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kSeizure: return "seizure";
    case EventKind::kCoordBatch: return "coord_batch";
    case EventKind::kCoordRequest: return "coord_request";
    case EventKind::kCoordBatchDrain: return "coord_batch_drain";
    case EventKind::kStateTransition: return "state_transition";
  }
  return "unknown";
}

// arg0 codec for kStateTransition: the from/to StateWord kinds (see
// metadata/state_word.hpp Kind, a small enum) packed into one byte each.
inline constexpr std::uint64_t pack_transition(unsigned from_kind,
                                               unsigned to_kind) {
  return (static_cast<std::uint64_t>(to_kind) << 8) |
         (from_kind & 0xffu);
}
inline constexpr unsigned transition_from_kind(std::uint64_t arg0) {
  return static_cast<unsigned>(arg0 & 0xffu);
}
inline constexpr unsigned transition_to_kind(std::uint64_t arg0) {
  return static_cast<unsigned>((arg0 >> 8) & 0xffu);
}

// True for kinds whose arg0 is a duration in cycles ending at `tsc` (rendered
// as Chrome "X" duration events and aggregated into latency histograms).
inline bool event_kind_has_latency(EventKind k) {
  return k == EventKind::kCoordRoundTrip || k == EventKind::kPessWait ||
         k == EventKind::kRegionRestart || k == EventKind::kSeizure;
}

// Compact object identity for trace events. Object metadata carries no id
// field (it is one word of state plus one of profile), so telemetry keys
// objects by address; dropping the low alignment bits keeps 32 bits of
// discriminating power per process.
inline std::uint32_t object_id(const void* p) {
  return static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(p) >> 4);
}

}  // namespace ht::telemetry
