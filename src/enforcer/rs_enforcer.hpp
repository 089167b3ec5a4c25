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
  // Retries back off with a randomized, growing yield count: symmetric
  // threads otherwise restart in lockstep and re-collide indefinitely (the
  // analogue of contention management in STMs; the paper's JVM gets the
  // equivalent desynchronization for free from 32 truly concurrent cores).
  // After kSerialFallback consecutive restarts, the attempt runs holding a
  // global fallback mutex (the STM "serial mode" idea). Symmetric high-
  // contention regions can otherwise livelock on a timeshared core: each
  // thread's commit window is as long as its adversaries' request period, so
  // every attempt receives a request and restarts. Queued fallback threads
  // park at a *blocking safe point*, so the running thread coordinates with
  // them implicitly and commits; the paper's 32-core testbed makes commit
  // windows ~100 ns and does not need this.
  static constexpr std::uint32_t kSerialFallback = 12;

  template <typename Fn>
  void run_region(ThreadContext& ctx, Fn&& fn) {
    HT_ASSERT(!ctx.in_region, "SBRS regions do not nest");
    Runtime& rt = *runtime_;
    UndoLog& log = ctx.region_log;
    std::uint32_t attempt = 0;
    bool serial = false;
    for (;;) {
      if (attempt >= kSerialFallback && !serial) {
        rt.begin_blocking(ctx);  // queued: implicit coordination succeeds
        fallback_mu_.lock();
        rt.end_blocking(ctx);
        serial = true;
      }
      ctx.in_region = true;
      ctx.undo_log = &log;
      ctx.region_start_point = ctx.point_index;
      HT_TELEM_CYCLES(telem_attempt_t0);
      try {
        fn();
        // Committed: writes stay; exit two-phase locking and answer the
        // requesters that queued up during the region. The region boundary
        // is a response only, not a poll: it adds no instrumentation point
        // and publishes no liveness, because the caller's next poll or PSRO
        // does both (DESIGN.md §4.5).
        log.commit();
        ctx.in_region = false;
        ctx.undo_log = nullptr;
        if (serial) fallback_mu_.unlock();
        rt.respond_if_pending(ctx);
        return;
      } catch (const RegionRestart&) {
        // on_forced_response already rolled back and the responding safe
        // point flushed/answered; back off, then retry the region.
        HT_DASSERT(log.empty(), "rollback left undo entries behind");
        ctx.in_region = false;
        ctx.undo_log = nullptr;
        ++ctx.stats.region_restarts;
        HT_TELEM_ELAPSED(ctx, kRegionRestart, telem_attempt_t0, attempt, 0);
        ++attempt;
        if (!serial) backoff(ctx, attempt);
      }
    }
  }

 private:
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
