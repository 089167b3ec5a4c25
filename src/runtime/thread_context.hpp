// Per-thread runtime state: coordination mailbox, deferred-unlocking lock
// buffer and read set, release counter, recorder point index, and the hook
// slots through which trackers / the recorder / the RS enforcer participate
// in responding safe points.
//
// The coordination fields mirror the paper's substrate (§2.2): a status word
// supporting implicit coordination with blocked threads, and a
// ticket/watermark pair implementing explicit requests. We use a watermark
// rather than per-request nodes: a responding safe point answers *all*
// pending requests at once (exactly the paper's semantics — one buffer flush
// serves every requester), and abandoned tickets from requesters that fell
// back to implicit coordination are harmless.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cache_line.hpp"
#include "common/flat_set.hpp"
#include "common/mpsc_queue.hpp"
#include "enforcer/region.hpp"
#include "metadata/state_word.hpp"
#include "tracking/transition_stats.hpp"

namespace ht {

class ObjectMeta;
class Runtime;
class ThreadContext;

namespace telemetry {
class EventRing;
}  // namespace telemetry

// Thread status word: bit 0 = blocked, bit 1 = quarantined, bits 2.. =
// epoch. A requester that finds the blocked bit set CASes the epoch up;
// success proves the owner is parked at a blocking safe point (with its lock
// buffer already flushed), so the requester may proceed immediately — the
// paper's implicit coordination.
//
// Quarantine (resilience layer) is a *terminal* status: the quarantine bit
// implies the blocked bit, so every implicit-coordination CAS against a
// quarantined thread succeeds immediately, and bump_epoch preserves both
// bits. The bit is only ever set by Runtime::quarantine_thread via a CAS
// racing the victim's own status transitions; a late-waking victim observes
// it and self-parks (throws ThreadQuarantined) at its next safe point.
struct ThreadStatus {
  static constexpr std::uint64_t kBlockedBit = 1;
  static constexpr std::uint64_t kQuarantineBit = 2;

  static bool is_blocked(std::uint64_t s) { return (s & kBlockedBit) != 0; }
  static bool is_quarantined(std::uint64_t s) {
    return (s & kQuarantineBit) != 0;
  }
  static std::uint64_t epoch(std::uint64_t s) { return s >> 2; }
  static std::uint64_t bump_epoch(std::uint64_t s) { return s + 4; }
  static std::uint64_t make(std::uint64_t ep, bool blocked) {
    return (ep << 2) | (blocked ? kBlockedBit : 0);
  }
  static std::uint64_t make_quarantined(std::uint64_t ep) {
    return (ep << 2) | kBlockedBit | kQuarantineBit;
  }
};

// Batched-coordination request node (DESIGN.md §13). A requester that needs
// several objects from one owner posts a single node to the owner's mailbox
// instead of taking one ticket per object; the responder answers its whole
// backlog in one safe-point visit.
//
// Nodes live in a small per-requester pool with registry lifetime, NOT on
// the requester's stack: a requester may abandon a posted node (implicit
// coordination won the race, or it unwound on RegionRestart /
// ThreadQuarantined), and a pooled node dangles harmlessly in the owner's
// mailbox until the next drain recycles it. `consumed` is the recycle
// handshake: the draining thread stores it (release) only after drain() has
// unlinked the node, so a node observed free is never still linked anywhere.
struct CoordBatchNode {
  CoordBatchNode* next = nullptr;  // mailbox intrusive link
  ThreadId requester = kNoThread;
  std::uint32_t objects = 0;  // batch size (stats / telemetry)
  // Causal-span id (DESIGN.md §14): stamped by the requester at post time
  // from its coord_span_counter, echoed by the draining thread's
  // kCoordBatchDrain event so offline tools can stitch the request→drain
  // edge. Written before the push (the push's CAS releases it), read by the
  // drainer before its `consumed` store.
  std::uint64_t span_id = 0;
  // Owner's post-bump release counter, written before `consumed`; every
  // object in the batch stamps its recorded edge with this one value.
  std::atomic<std::uint64_t> src_release{0};
  std::atomic<bool> consumed{true};  // true = free for reuse
};

// Hook signatures. Hooks run at responding safe points in a fixed order:
// region-abort (enforcer rollback) -> flush (tracker deferred unlocking) ->
// release-counter bump -> watermark publish -> response-log (recorder).
using ThreadHook = void (*)(void* self, ThreadContext& ctx);

class ThreadContext {
 public:
  ThreadContext();
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  // Initializes for a newly registered thread; also valid on a used context.
  void reset(ThreadId new_id, Runtime* rt);

  // --- identity -------------------------------------------------------------
  ThreadId id = kNoThread;
  Runtime* runtime = nullptr;
  bool registered = false;

  // --- hot thread-local state ------------------------------------------------
  // One dedicated cache line (static_asserts below): every field here is
  // read or written on the per-access fast path by the owning thread only,
  // so nothing another thread writes may share the line (DESIGN.md §15.4).
  // Cached raw state words for the tracker fast paths (precomputed at reset).
  alignas(kCacheLine) std::uint64_t fast_wr_ex_opt = 0;  // WrExOpt(id).raw()
  std::uint64_t fast_rd_ex_opt = 0;                      // RdExOpt(id).raw()

  // Per-thread read-share counter (Table 1: fence transition iff
  // T.rdShCount < c).
  std::uint32_t rd_sh_count = 0;

  // Deterministic instrumentation-point index (recorder §4.2): bumped at
  // every tracked access, workload poll site, and PSRO — never inside
  // nondeterministic spin loops.
  std::uint64_t point_index = 0;

  // Liveness-lease heartbeat: bumped at every poll, PSRO, and blocking
  // boundary, mirrored into liveness.heartbeat. Unlike last_poll (a mirror
  // of point_index, which freezes inside long waits), the heartbeat also
  // advances from respond_while_waiting, so a thread stuck *waiting* on a
  // genuinely stalled peer still renews its own lease.
  std::uint64_t heartbeat = 0;

  // Monotonic per-requester span id source for batched coordination
  // (DESIGN.md §14). Only this thread increments it (requester side), so it
  // is plain. Span identity offline is (requester tid, span id); scalar
  // coordination needs no counter — its span identity is (owner, ticket).
  std::uint64_t coord_span_counter = 0;

  // Deferred unlocking (§3.1): objects whose pessimistic states this thread
  // has locked, and the set of objects it holds read locks on (reentrancy).
  // Owner-only, so they may share the rest of the hot line.
  std::vector<ObjectMeta*> lock_buffer;
  FlatPtrSet rd_set;

  // Per-thread statistics counters on their own line(s): they are bumped on
  // tracker slow paths and at safe points, and previously shared a line with
  // the coordination watermarks requesters spin on — every counter increment
  // invalidated the requesters' read copies (false sharing).
  alignas(kCacheLine) TransitionStats stats;

  // Telemetry ring (single-writer: this thread). Null unless a
  // TelemetrySession is installed on the runtime; the HT_TELEM_* macros
  // (telemetry/telemetry.hpp) compile away entirely in default builds, so
  // this pointer is the only unconditional footprint of the layer.
  telemetry::EventRing* telem = nullptr;

  // --- RS enforcer state ------------------------------------------------------
  // Thread-owned: no other thread's log header or entry storage shares a
  // line with this thread's (DESIGN.md §4.5).
  bool in_region = false;
  bool restart_requested = false;
  UndoLog region_log;
  UndoLog* undo_log = nullptr;  // &region_log inside a region, else null
  // point_index when the current region attempt started. A forced response
  // arrives from inside a tracked access, after that access's point bump, so
  // point_index == region_start_point + 1 means the region is still in its
  // first access: it holds no region state yet and may respond without a
  // restart.
  std::uint64_t region_start_point = 0;

  // --- responding-safe-point hooks --------------------------------------------
  void* flush_self = nullptr;
  ThreadHook flush_fn = nullptr;  // tracker: unlock lock buffer
  void* abort_self = nullptr;
  ThreadHook abort_fn = nullptr;  // enforcer: roll back current region
  void* resp_log_self = nullptr;
  ThreadHook resp_log_fn = nullptr;  // recorder: log ResponseEvent
  void* region_log_self = nullptr;
  ThreadHook region_log_fn = nullptr;  // recorder: log deterministic bump

  // Set (by the victim itself) once it has observed its own quarantine bit
  // and self-parked. Purely an owner-thread flag consulted on the unwind
  // path (flush gating, unregister) — cross-thread readers use the status
  // word's quarantine bit instead.
  bool quarantined_self = false;

  // --- shared coordination state (padded; written/read across threads) --------
  // Liveness words: written by the owner (the pair at every poll), read only
  // by the coordination watchdog and quarantine. A line of their own, so the
  // per-poll stores never invalidate the owner_side line requesters spin on.
  struct alignas(kCacheLine) Liveness {
    // Mirror of point_index published (relaxed) at each poll, so the
    // watchdog can sample owner liveness without racing on the non-atomic
    // point_index. Stale-but-unchanging last_poll is the stall signal.
    std::atomic<std::uint64_t> last_poll{0};
    // Liveness-lease heartbeat epoch (see ThreadContext::heartbeat).
    std::atomic<std::uint64_t> heartbeat{0};
    // Set by ThreadRegistry::mark_exited, so stall diagnostics can tell
    // "parked forever because it exited" from "blocked at a program
    // operation".
    std::atomic<bool> exited{false};
  } liveness;

  // status + response_watermark + release_counter: written by owner at each
  // response, read by requesters. One line: a requester reads the counter
  // right after it sees the watermark, so a response moves exactly one line
  // (DESIGN.md §4.2). request_tickets: written by requesters, read by owner.
  struct alignas(kCacheLine) OwnerSide {
    std::atomic<std::uint64_t> status{0};
    std::atomic<std::uint64_t> response_watermark{0};
    std::atomic<std::uint64_t> release_counter{0};
  } owner_side;
  struct alignas(kCacheLine) RequesterSide {
    std::atomic<std::uint64_t> request_tickets{0};
  } requester_side;

  // Batched-coordination mailbox (owner side: drained at responding safe
  // points and blocking/exit boundaries) in its own line so batch pushes
  // don't false-share with the scalar ticket/watermark words.
  struct alignas(kCacheLine) BatchMailbox {
    MpscQueue<CoordBatchNode> queue;
    // Serializes consumers: normally the owning thread, but a quarantining
    // thread also releases a victim's backlog, and the victim may not have
    // parked yet. Spin flag, not a mutex — drains are short and rare.
    std::atomic<bool> draining{false};
  } mailbox;

  // Request-node pool (requester side; see CoordBatchNode). Sized for the
  // realistic in-flight count: one outstanding batch plus nodes abandoned to
  // still-undrained mailboxes. Exhaustion is not an error — requesters fall
  // back to scalar coordination.
  static constexpr std::size_t kBatchNodePoolSize = 4;
  struct alignas(kCacheLine) BatchNodePool {
    CoordBatchNode nodes[kBatchNodePoolSize];
  } batch_pool;

  // --- helpers -----------------------------------------------------------------
  bool requests_pending() const {
    return requester_side.request_tickets.load(std::memory_order_acquire) >
           owner_side.response_watermark.load(std::memory_order_relaxed);
  }

  bool batch_requests_pending() const {
    return !mailbox.queue.empty_relaxed();
  }

  // Claims a free request node from this thread's own pool (nullptr when
  // every node is in flight). Only the owning thread claims, so no CAS is
  // needed: the acquire load pairs with the draining thread's release store
  // of `consumed` and makes the node's unlinking visible.
  CoordBatchNode* claim_batch_node() {
    for (auto& n : batch_pool.nodes) {
      if (n.consumed.load(std::memory_order_acquire)) return &n;
    }
    return nullptr;
  }

  std::uint64_t release_counter_relaxed() const {
    return owner_side.release_counter.load(std::memory_order_relaxed);
  }
  std::uint64_t release_counter_acquire() const {
    return owner_side.release_counter.load(std::memory_order_acquire);
  }

  void run_flush_hook() {
    if (flush_fn != nullptr) flush_fn(flush_self, *this);
  }
  void run_abort_hook() {
    if (abort_fn != nullptr && in_region) abort_fn(abort_self, *this);
  }
  void run_resp_log_hook() {
    if (resp_log_fn != nullptr) resp_log_fn(resp_log_self, *this);
  }
  // Runs after deterministic release-counter bumps (PSRO, thread exit).
  // Unlike responses these need no replay action, so the hook exists purely
  // for the recorder's offline region marks (LogEventType::kRegionEnd).
  void run_region_log_hook() {
    if (region_log_fn != nullptr) region_log_fn(region_log_self, *this);
  }
};

// Cache-line audit (DESIGN.md §15.4). offsetof on this non-standard-layout
// type is conditionally-supported; GCC and Clang both implement it and only
// emit -Winvalid-offsetof, suppressed for exactly these checks.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
// The owner-local fast-path fields share one dedicated line...
static_assert(offsetof(ThreadContext, fast_wr_ex_opt) % kCacheLine == 0,
              "hot owner-local group must start a cache line");
static_assert(offsetof(ThreadContext, coord_span_counter) +
                      sizeof(std::uint64_t) -
                      offsetof(ThreadContext, fast_wr_ex_opt) <=
                  kCacheLine,
              "hot owner-local group must fit one cache line");
// ...and nothing cross-thread-written shares a line with them: the stats
// counters, the liveness words, and each coordination structure start fresh
// lines of their own.
static_assert(offsetof(ThreadContext, stats) % kCacheLine == 0,
              "per-thread stats must not share the hot or coordination lines");
static_assert(offsetof(ThreadContext, liveness) % kCacheLine == 0,
              "the per-poll liveness words must start a line of their own");
static_assert(offsetof(ThreadContext, owner_side) % kCacheLine == 0 &&
                  offsetof(ThreadContext, requester_side) % kCacheLine == 0 &&
                  offsetof(ThreadContext, mailbox) % kCacheLine == 0 &&
                  offsetof(ThreadContext, batch_pool) % kCacheLine == 0,
              "coordination structures must keep their dedicated lines");
// A response publishes status, watermark and release counter on one line.
static_assert(offsetof(ThreadContext::OwnerSide, release_counter) +
                      sizeof(std::uint64_t) <=
                  kCacheLine,
              "status, watermark and release counter must share one line");
// The per-poll stores, the per-response stores and the requesters' ticket
// increments each dirty a different line.
static_assert(offsetof(ThreadContext, owner_side) -
                          offsetof(ThreadContext, liveness) >=
                      kCacheLine &&
                  offsetof(ThreadContext, requester_side) -
                          offsetof(ThreadContext, owner_side) >=
                      kCacheLine,
              "per-poll, owner-written and requester-written words must not "
              "share a line");
// The RS-enforcer group, written on every region and in-region store, sits
// past the hot line and before the first cross-thread-written line.
static_assert(offsetof(ThreadContext, in_region) >=
                      offsetof(ThreadContext, fast_wr_ex_opt) + kCacheLine &&
                  offsetof(ThreadContext, region_start_point) +
                          sizeof(std::uint64_t) <=
                      offsetof(ThreadContext, liveness),
              "RS-enforcer group must stay off the hot and cross-thread lines");
#pragma GCC diagnostic pop
#endif

// Exception unwinding a region that responded to a coordination request
// mid-execution (paper §5: regions restart after responding).
struct RegionRestart {};

// Exception unwinding a thread that observed its own quarantine bit at a
// safe point. The thread's owned object states have been (or are being)
// seized by survivors; it must not touch tracker metadata again. Thrown
// from Runtime::poll / end_blocking / respond_while_waiting, caught by the
// thread body (workload harness, explorer run_thread), which unregisters
// the context and parks the OS thread.
struct ThreadQuarantined {
  ThreadId tid = kNoThread;
};

}  // namespace ht
