// Runtime substrate: thread registration, safe points, the coordination
// protocol, and the global read-share counter.
//
// This is the C++ stand-in for the managed-VM services the paper piggybacks
// on (§7.1): safe points at which threads can be asked to participate in
// coordination, blocking safe points enabling implicit coordination, and
// program-synchronization release operations (PSROs) at which the hybrid
// model's deferred unlocking flushes the lock buffer.
//
// Release-counter discipline (recorder soundness, DESIGN.md §4.4): a thread
// bumps its release counter
//   (1) at every PSRO                         — deterministic, not logged,
//   (2) at every non-PSRO responding safe point (explicit response, blocking
//       entry, wake-up response)              — logged via the resp-log hook.
// Bumps are ordered *after* region rollback and lock-buffer flushing and
// *before* the response watermark / blocked status is published, so any
// thread that observes the response (or the unlocked state — flushes store
// states after the bump) reads a counter value that postdates every program
// access the owner performed before relinquishing.
//
// Failure model (DESIGN.md §7): the protocol above assumes every thread
// keeps reaching safe points. The coordination watchdog drops that
// assumption: an explicit-coordination wait that sees no owner progress for
// a configured number of backoff epochs samples every thread's liveness
// (last poll index, blocked/exited status, pending-request age), emits a
// structured diagnostic, and — per policy — keeps waiting or fails fast by
// throwing CoordinationStalled. Injected faults (src/faultinject/) drive
// these paths in tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "runtime/thread_context.hpp"
#include "runtime/thread_registry.hpp"
#include "schedule/schedule_point.hpp"

namespace ht {

class FaultInjector;

namespace telemetry {
class TelemetrySession;
}  // namespace telemetry

// Point-in-time liveness sample of one thread, as seen by the watchdog.
struct ThreadLivenessSample {
  ThreadId id = kNoThread;
  bool blocked = false;
  bool quarantined = false;
  bool exited = false;
  std::uint64_t status_epoch = 0;
  std::uint64_t last_poll = 0;         // point index at its last poll
  std::uint64_t heartbeat = 0;         // liveness-lease epoch
  std::uint64_t release_counter = 0;
  std::uint64_t request_tickets = 0;
  std::uint64_t response_watermark = 0;

  // Requests issued but not yet answered (the pending-request backlog).
  std::uint64_t pending_requests() const {
    return request_tickets > response_watermark
               ? request_tickets - response_watermark
               : 0;
  }
};

// Structured dump emitted when the watchdog confirms a stall: who waited on
// whom, for how long, plus a per-thread liveness table.
struct CoordStallDiagnostic {
  ThreadId requester = kNoThread;
  ThreadId owner = kNoThread;
  std::uint64_t ticket = 0;           // the unanswered request
  std::uint64_t waited_epochs = 0;    // backoff epochs since coordinate() began
  std::uint64_t stalled_epochs = 0;   // epochs with zero observed owner progress
  ThreadLivenessSample owner_sample;
  std::vector<ThreadLivenessSample> threads;

  std::string to_string() const;
};

// Thrown by coordinate() when the watchdog policy is kFailFast and the owner
// made no progress for watchdog.stall_epochs backoff epochs. Carries the
// same diagnostic the sink received.
struct CoordinationStalled {
  CoordStallDiagnostic diagnostic;
};

struct WatchdogConfig {
  bool enabled = true;
  // Backoff epochs (pause() calls in the explicit wait loop) without any
  // observed owner progress before the wait is declared stalled. Epochs cost
  // microseconds once Backoff escalates to sleep ticks, so the default is
  // roughly a second of wall-clock silence.
  std::uint64_t stall_epochs = 4096;
  // What a confirmed stall does after the diagnostic is emitted.
  enum class OnStall : std::uint8_t {
    kContinue,    // keep waiting; re-diagnose every stall_epochs of silence
    kFailFast,    // throw CoordinationStalled
    kQuarantine,  // flip the owner to terminal Quarantined and proceed
  };
  OnStall on_stall = OnStall::kContinue;
  // Max diagnostics emitted per coordinate() call under kContinue (the wait
  // may legitimately outlive many windows; don't storm the sink).
  std::uint32_t max_dumps = 2;
  // Sleep-tick cap for the explicit-wait backoff — the lease re-request
  // period once a wait has escalated past yielding. Mirrors
  // Backoff::kDefaultMaxSleepUs.
  int backoff_max_sleep_us = 256;
  // Diagnostic sink; nullptr means "write to stderr".
  std::function<void(const CoordStallDiagnostic&)> sink;
};

// Hooks for the self-healing layer (src/resilience/). on_quarantine runs on
// the quarantining thread immediately after the victim's status flipped to
// Quarantined and its waiters were released; the standard wiring
// (resilience::QuarantineSweep) seizes every state word the victim still
// owns and seals its recorder log so the recording stays loadable.
struct ResilienceConfig {
  std::function<void(ThreadContext& self, ThreadContext& victim)>
      on_quarantine;
};

struct RuntimeConfig {
  std::size_t max_threads = 64;
  WatchdogConfig watchdog;
  ResilienceConfig resilience;
  // Optional fault injector (not owned; must outlive the Runtime). When
  // null — the default — every injection site compiles down to one branch.
  FaultInjector* fault_injector = nullptr;
  // Optional telemetry session (not owned; must outlive the Runtime).
  // register_thread() attaches each context to its per-thread event ring;
  // without HT_TELEMETRY=ON the instrumentation macros compile away and the
  // rings stay empty.
  telemetry::TelemetrySession* telemetry = nullptr;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- thread lifecycle ------------------------------------------------------
  // Registers the calling thread. Spawning a thread is itself a PSRO on the
  // parent side (the paper lists thread fork among PSROs); callers use
  // psro() before spawn — see workload::run_threads.
  ThreadContext& register_thread();

  // Final flush + release-counter bump + permanent BLOCKED parking. After
  // this every implicit coordination with the thread succeeds.
  void unregister_thread(ThreadContext& ctx);

  ThreadRegistry& registry() { return registry_; }
  const ThreadRegistry& registry() const { return registry_; }

  const RuntimeConfig& config() const { return cfg_; }
  FaultInjector* fault_injector() const { return injector_; }

  // --- global read-share counter (Table 1 note *) ------------------------------
  // Starts at 1 so that a fresh thread's rd_sh_count (0) is stale for every
  // RdSh state, forcing the fence transition on first read.
  std::uint32_t next_rd_sh_counter() {
    return g_rd_sh_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  std::uint32_t current_rd_sh_counter() const {
    return g_rd_sh_counter_.load(std::memory_order_acquire);
  }

  // --- safe points -------------------------------------------------------------
  // Deterministic poll site (loop back edges in the paper's compiled code).
  // Bumps the point index; responds to pending requests unless the thread is
  // inside an SBRS region (two-phase locking, §5.1).
  void poll(ThreadContext& ctx) {
    ++ctx.point_index;
    // Quarantine self-check comes BEFORE fault suppression: a stuck thread
    // whose polls are suppressed (injected death) must still observe its own
    // quarantine at the next poll it executes and park rather than keep
    // running against seized state words.
    if (ThreadStatus::is_quarantined(
            ctx.owner_side.status.load(std::memory_order_acquire))) {
      quarantined_self_park(ctx);  // throws ThreadQuarantined
    }
    // A suppressed poll models a thread that never reached this safe point
    // (stalled in a long computation, or dead): nothing observable happens —
    // in particular last_poll and the heartbeat stay frozen so the watchdog
    // sees the stall and the liveness lease expires.
    if (injector_ != nullptr && poll_fault_suppressed(ctx)) return;
    ctx.owner_side.last_poll.store(ctx.point_index,
                                   std::memory_order_relaxed);
    renew_lease(ctx);
    if (!ctx.in_region &&
        (ctx.requests_pending() || ctx.batch_requests_pending())) {
      respond(ctx);
    }
  }

  // Safe point inside nondeterministic spin loops (Fig 1 lines 9/18, Fig 10
  // line 55). Does NOT bump the point index. May throw RegionRestart when an
  // enforcer region responded (after rolling back). Fault injection never
  // suppresses these responses: a thread stuck waiting is exactly the thread
  // that must keep answering others (deadlock freedom, Fig 1 line 18).
  void respond_while_waiting(ThreadContext& ctx) {
    // A waiting thread renews its own liveness lease (it IS alive — it keeps
    // answering others), and checks for its own quarantine before touching
    // tracker state again: if survivors seized our locks while we waited,
    // responding would race the seizure.
    renew_lease(ctx);
    if (ThreadStatus::is_quarantined(
            ctx.owner_side.status.load(std::memory_order_acquire))) {
      quarantined_self_park(ctx);  // throws ThreadQuarantined
    }
    if (ctx.requests_pending() || ctx.batch_requests_pending()) {
      respond(ctx);
      if (ctx.restart_requested) {
        ctx.restart_requested = false;
        throw RegionRestart{};
      }
    }
    // Every responding spin iteration is a scheduling point under virtual
    // scheduling (wait flavor: a failed re-check is not forward progress).
    // This single hook covers the tracker Int/contended wait loops and the
    // coordinate() ticket wait, all of which respond while waiting.
    schedule::wait_point();
  }

  // Injection site for tracker slow paths (CAS/Int wait loops); a no-op
  // without an injector.
  void fault_point_slow_path(ThreadContext& ctx) {
    if (injector_ != nullptr) slow_path_fault(ctx);
  }

  // Program-synchronization release operation: flush the lock buffer, bump
  // the release counter (deterministically), answer pending requests.
  void psro(ThreadContext& ctx);

  // Blocking safe points (lock acquisition, join, barrier): flush, bump
  // (logged), park BLOCKED so requesters coordinate implicitly.
  void begin_blocking(ThreadContext& ctx);
  void end_blocking(ThreadContext& ctx);

  // --- coordination (requester side) --------------------------------------------
  struct CoordResult {
    std::uint64_t src_release = 0;  // owner's counter after its response
    bool implicit = false;          // true if the owner was blocked
  };

  // One round trip with `owner` (Fig 1 coordinate()). Spins responding to
  // the caller's own requests; may throw RegionRestart for enforcer regions,
  // and CoordinationStalled under the kFailFast watchdog policy.
  CoordResult coordinate(ThreadContext& self, ThreadId owner);

  // Batched round trip (DESIGN.md §13): one request node covering
  // `n_objects` objects owned by `owner`, answered in a single safe-point
  // visit (the owner drains its whole mailbox backlog alongside the scalar
  // watermark publish). The implicit fast path is identical to coordinate();
  // when the requester's node pool is exhausted the call degrades to a
  // scalar round trip. Same exception surface and watchdog policing as
  // coordinate(). Implemented as the single-group case of
  // coordinate_batch_multi().
  CoordResult coordinate_batch(ThreadContext& self, ThreadId owner,
                               std::uint32_t n_objects);

  // Scatter-gather batched coordination (DESIGN.md §13): one request per
  // distinct owner, ALL posted before any wait, so the round trips overlap —
  // total wait is bounded by the slowest owner's response, not the sum of
  // rounds. This is what keeps a multi-owner batch's Int hold window to ~one
  // round trip (a sequential per-owner settle convoys: peers spinning on the
  // held Ints escalate to sleep backoff and stop responding promptly, which
  // stretches every other in-flight round). Each group's result is filled in
  // place. Groups whose owner is parked resolve implicitly without posting;
  // groups that cannot claim a pool node fall back to scalar rounds after
  // the posted ones complete. Same exception surface as coordinate(); the
  // watchdog polices the first unresolved owner, moving on as each resolves.
  static constexpr std::size_t kMaxBatchGroups = 16;
  struct BatchGroup {
    ThreadId owner = kNoThread;
    std::uint32_t n_objects = 0;
    CoordResult result{};
  };
  void coordinate_batch_multi(ThreadContext& self, BatchGroup* groups,
                              std::size_t n);

  // Bounded-wait variant: gives up after `max_epochs` backoff epochs and
  // returns nullopt instead of spinning on a dead or stalled owner. Never
  // consults the watchdog policy (the bound IS the policy); the abandoned
  // ticket is answered by the owner's next safe point if it ever revives.
  std::optional<CoordResult> coordinate_bounded(ThreadContext& self,
                                                ThreadId owner,
                                                std::uint64_t max_epochs);

  // Conservative coordination with every other registered thread (RdSh old
  // states, paper footnote 4). Returns true if any round trip was explicit.
  bool coordinate_all_others(ThreadContext& self);

  // --- quarantine (resilience layer) -------------------------------------------
  // Attempts to flip `victim` to the terminal Quarantined status with a
  // single CAS against its last observed status word; failure means the
  // victim made progress in the meantime and must NOT be quarantined. On
  // success all of the victim's current waiters are released (watermark
  // published past every issued ticket) and the on_quarantine hook runs on
  // the calling thread. Idempotent: false for an already-quarantined or
  // exited victim.
  bool quarantine_thread(ThreadContext& self, ThreadId victim);

  bool thread_quarantined(ThreadId id) const {
    return ThreadStatus::is_quarantined(
        registry_.context(id).owner_side.status.load(
            std::memory_order_acquire));
  }
  // Cheap global flag consulted by tracker slow paths: when nonzero,
  // lock-buffer flushes tolerate entries whose states were seized.
  bool has_quarantined() const {
    return quarantined_count_.load(std::memory_order_acquire) != 0;
  }
  std::uint32_t quarantined_count() const {
    return quarantined_count_.load(std::memory_order_acquire);
  }

  // Victim-side quarantine observation: drop (never flush) the lock buffer
  // and read set — survivors own those states now — and unwind. Public so
  // tracker landings that lose their Int CAS to a seizure can park directly.
  [[noreturn]] void quarantined_self_park(ThreadContext& ctx);

  // Tracker slow paths call this before acquiring NEW ownership (a lock CAS
  // or an Int entry). A quarantined victim that raced past its last poll
  // must not lock fresh states: the sweep has already run, so anything it
  // locks now would leak until some survivor happens to touch it. Between
  // this check and the acquiring CAS there is no scheduling point, so under
  // the virtual scheduler the window is fully closed.
  void check_self_quarantine(ThreadContext& ctx) {
    if (has_quarantined() && thread_quarantined(ctx.id)) {
      quarantined_self_park(ctx);
    }
  }

  // --- diagnostics -------------------------------------------------------------
  ThreadLivenessSample sample_thread(ThreadId id) const;
  std::vector<ThreadLivenessSample> sample_all_threads() const;

 private:
  // Publishes the thread's liveness-lease heartbeat (owner-side, relaxed).
  static void renew_lease(ThreadContext& ctx) {
    ctx.owner_side.heartbeat.store(++ctx.heartbeat,
                                   std::memory_order_relaxed);
  }

  // Responding safe point body; precondition: scalar or batch requests
  // pending (or forced).
  void respond(ThreadContext& ctx);

  // Answers `ctx`'s whole batch backlog: stamps every posted node with
  // `src_release` and recycles it (consumed, release — after drain() has
  // unlinked it). Serialized by ctx.mailbox.draining because the owner and a
  // quarantining thread may race to consume; losing the flag race is fine —
  // whoever holds it answers the backlog with an equally valid counter.
  // `recorder` is the executing thread (== ctx except when a quarantiner
  // releases a victim's backlog); its single-writer telemetry ring receives
  // the kCoordBatchDrain span events.
  static void drain_mailbox(ThreadContext& recorder, ThreadContext& ctx,
                            std::uint64_t src_release);

  // Out-of-line fault-injection bodies (keep faultinject out of the hot
  // inline path; called only when injector_ != nullptr).
  bool poll_fault_suppressed(ThreadContext& ctx);
  void slow_path_fault(ThreadContext& ctx);

  // Shared wait loop behind coordinate / coordinate_bounded. `max_epochs`
  // of 0 means unbounded (watchdog-policed). Returns nullopt only for
  // bounded waits that expired.
  std::optional<CoordResult> coordinate_impl(ThreadContext& self,
                                             ThreadId owner,
                                             std::uint64_t max_epochs);

  CoordStallDiagnostic build_stall_diagnostic(const ThreadContext& self,
                                              const ThreadContext& remote,
                                              std::uint64_t ticket,
                                              std::uint64_t waited_epochs,
                                              std::uint64_t stalled_epochs)
      const;
  void emit_stall_diagnostic(const CoordStallDiagnostic& diag) const;

  RuntimeConfig cfg_;
  ThreadRegistry registry_;
  FaultInjector* injector_;
  std::atomic<std::uint32_t> g_rd_sh_counter_{1};
  std::atomic<std::uint32_t> quarantined_count_{0};
};

}  // namespace ht
