// Statically-bounded region serializability (SBRS) enforcement (paper §5).
//
// SBRS regions are bounded by synchronization operations, method calls, and
// loop back edges; the enforcer makes each executed region serializable via
// two-phase locking of object states:
//   * while a thread is inside a region, its safepoint polls do not respond
//     to coordination requests, so every object state the region has acquired
//     — optimistic ownership or (hybrid) a deferred pessimistic lock — stays
//     held until the region ends;
//   * the only exception is a thread waiting inside its own transition slow
//     path, which must respond to avoid deadlock (§5.1). Responding there
//     relinquishes states mid-region, so the region rolls back (undo log) and
//     restarts.
//
// The enforcer is parameterized by tracker, giving the paper's two
// configurations: the optimistic RS enforcer [36] and the hybrid RS enforcer
// (§5.2). For the hybrid version, deferred unlocking already postpones every
// unlock to a PSRO or responding safe point — and SBRS regions contain
// neither — so region boundaries are the only unlock points, exactly the
// paper's argument for why hybrid tracking suits SBRS.
#pragma once

#include <cstdint>
#include <mutex>
#include <thread>

#include "runtime/runtime.hpp"
#include "runtime/thread_context.hpp"
#include "telemetry/telemetry.hpp"

namespace ht {

template <typename Tracker>
class RsEnforcer {
 public:
  explicit RsEnforcer(Runtime& rt, Tracker& tracker)
      : runtime_(&rt), tracker_(&tracker) {}

  Tracker& tracker() { return *tracker_; }

  // Installs the enforcer's region-abort hook alongside the tracker's hooks.
  void attach_thread(ThreadContext& ctx) {
    tracker_->attach_thread(ctx);
    ctx.abort_self = this;
    ctx.abort_fn = [](void* self, ThreadContext& c) {
      static_cast<RsEnforcer*>(self)->on_forced_response(c);
    };
  }

  // Runs `fn` as one SBRS region: all tracked accesses inside it appear
  // atomic to every other thread. `fn` must be re-executable (its only side
  // effects are tracked stores, which the undo log reverts on restart).
  //
  // The region ends at the caller's next safe point, as in the paper, where
  // region boundaries (synchronization, calls, loop back edges) are exactly
  // where the VM puts safe points: run_region answers no request itself.
  // Requests queued during the region are answered at the caller's next
  // poll, PSRO or blocking entry, so every caller must reach one after each
  // region (DESIGN.md §4.5).
  //
  // The first attempt is inline; a restart hands the region to the cold
  // retry(). Retries back off with a randomized, growing yield count:
  // symmetric threads otherwise restart in lockstep and re-collide
  // indefinitely (the analogue of contention management in STMs; the
  // paper's JVM gets the equivalent desynchronization for free from 32 truly
  // concurrent cores). After kSerialFallback consecutive restarts, the
  // attempt runs holding a global fallback mutex (the STM "serial mode"
  // idea). Symmetric high-contention regions can otherwise livelock on a
  // timeshared core: each thread's commit window is as long as its
  // adversaries' request period, so every attempt receives a request and
  // restarts. Queued fallback threads park at a *blocking safe point*, so
  // the running thread coordinates with them implicitly and commits; the
  // paper's 32-core testbed makes commit windows ~100 ns and does not need
  // this.
  static constexpr std::uint32_t kSerialFallback = 12;

  template <typename Fn>
  void run_region(ThreadContext& ctx, Fn&& fn) {
    HT_ASSERT(!ctx.in_region, "SBRS regions do not nest");
    const std::uint64_t attempt_t0 = HT_TELEM_ORIGIN();
    if (!attempt(ctx, fn)) retry(ctx, fn, attempt_t0);
  }

 private:
  // One attempt at the region. Committed: the writes stay and the thread
  // leaves two-phase locking. Restarted: on_forced_response already rolled
  // back and the responding safe point flushed and answered. Any other
  // exception (ThreadQuarantined, CoordinationStalled) leaves the region
  // open; ThreadContext::reset clears it.
  template <typename Fn>
  [[gnu::always_inline]] static bool attempt(ThreadContext& ctx, Fn& fn) {
    ctx.in_region = true;
    ctx.undo_log = &ctx.region_log;
    ctx.region_start_point = ctx.point_index;
    bool committed = true;
    try {
      fn();
    } catch (const RegionRestart&) {
      committed = false;
    }
    if (committed) ctx.region_log.commit();
    HT_DASSERT(ctx.region_log.empty(), "rollback left undo entries behind");
    ctx.in_region = false;
    ctx.undo_log = nullptr;
    return committed;
  }

  // Everything after a first restart: the telemetry, the backoff and serial
  // mode. The fallback mutex is released however the region is left:
  // end_blocking or fn() may throw ThreadQuarantined or CoordinationStalled,
  // and a mutex left locked would hang the next region to reach serial mode.
  template <typename Fn>
  [[gnu::cold, gnu::noinline]] void retry(ThreadContext& ctx, Fn& fn,
                                          std::uint64_t attempt_t0) {
    (void)attempt_t0;  // read only by the telemetry build
    std::unique_lock<std::mutex> serial(fallback_mu_, std::defer_lock);
    for (std::uint32_t restarts = 1;; ++restarts) {
      ++ctx.stats.region_restarts;
      HT_TELEM_ELAPSED(ctx, kRegionRestart, attempt_t0, restarts - 1, 0);
      if (restarts < kSerialFallback) {
        backoff(ctx, restarts);
      } else if (!serial.owns_lock()) {
        runtime_->begin_blocking(ctx);  // queued: implicit coordination
        serial.lock();
        runtime_->end_blocking(ctx);
      }
      attempt_t0 = HT_TELEM_ORIGIN();
      if (attempt(ctx, fn)) return;
    }
  }

  // Runtime::respond() calls this (via the abort hook) when a thread inside
  // a region is about to answer a coordination request from its own slow-path
  // wait. We still own every object the region wrote — roll back now, then
  // let the response proceed; the slow path unwinds via RegionRestart.
  //
  // Exception: a region still inside its first tracked access holds no
  // region state, so responding (which only flushes locks deferred from
  // *committed* regions) cannot violate its serializability — it keeps
  // running. This removes the dominant cause of restart storms: every
  // region's wait on its own FIRST access. Forced responses come only from
  // respond_while_waiting inside a tracked access, after its point bump, so
  // the first access is point region_start_point + 1.
  void on_forced_response(ThreadContext& ctx) {
    HT_DASSERT(ctx.in_region && ctx.undo_log != nullptr,
               "forced response outside a region");
    HT_ASSERT(ctx.point_index > ctx.region_start_point,
              "forced response outside a tracked access");
    if (ctx.point_index == ctx.region_start_point + 1) {
      HT_DASSERT(ctx.undo_log->empty(), "writes before the first access?");
      return;
    }
    ctx.undo_log->rollback();
    ctx.restart_requested = true;
  }

  static void backoff(ThreadContext& ctx, std::uint32_t attempt) {
    // Cheap hash of (thread, attempt) -> 1..2^min(attempt,6) yields.
    std::uint64_t z = (static_cast<std::uint64_t>(ctx.id) << 32) ^ attempt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    const std::uint32_t cap = 1u << (attempt < 6 ? attempt : 6);
    const std::uint32_t yields = 1 + static_cast<std::uint32_t>(z % cap);
    for (std::uint32_t i = 0; i < yields; ++i) std::this_thread::yield();
  }

  Runtime* runtime_;
  Tracker* tracker_;
  std::mutex fallback_mu_;
};

}  // namespace ht
