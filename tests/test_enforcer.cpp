// Region serializability enforcement (paper §5): executed regions must be
// serializable even for racy programs.
//
// Tests use two classic witnesses:
//   * atomic increments — racy load+store regions on one counter must sum
//     exactly (lost updates would show non-serializable interleavings);
//   * the x==y invariant — writer regions keep two variables equal; reader
//     regions must never observe them unequal.
// Both run under the optimistic enforcer [36] and the hybrid enforcer (§5.2).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "common/cache_line.hpp"
#include "enforcer/rs_enforcer.hpp"
#include "recorder/recorder.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/microbench.hpp"

namespace ht {
namespace {

template <typename Tracker, typename MakeTracker>
void racy_increments_become_atomic(MakeTracker&& make_tracker) {
  Runtime rt;
  Tracker tracker = make_tracker(rt);
  RsEnforcer<Tracker> enforcer(rt, tracker);
  MicrobenchData data;

  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 3'000;
  const WorkloadRunResult r = run_microbench(
      kThreads, data,
      [&](ThreadId) { return EnforcerApi<Tracker>(rt, enforcer); },
      [&](auto& api, ThreadId) { return racy_inc_body(api, data, kIters); });

  EXPECT_EQ(data.counter.raw_load(), kThreads * kIters)
      << "lost updates: regions were not serializable"
      << " (restarts: " << r.stats.region_restarts << ")";
}

TEST(RsEnforcer, OptimisticEnforcerMakesRacyIncrementsAtomic) {
  racy_increments_become_atomic<OptimisticTracker<true>>(
      [](Runtime& rt) { return OptimisticTracker<true>(rt); });
}

TEST(RsEnforcer, HybridEnforcerMakesRacyIncrementsAtomic) {
  racy_increments_become_atomic<HybridTracker<true>>(
      [](Runtime& rt) { return HybridTracker<true>(rt, HybridConfig{}); });
}

TEST(RsEnforcer, HybridEnforcerWithEscapePolicyStaysSound) {
  HybridConfig cfg;
  cfg.policy = PolicyConfig::with_escape(4);
  racy_increments_become_atomic<HybridTracker<true>>(
      [cfg](Runtime& rt) { return HybridTracker<true>(rt, cfg); });
}

// Without the enforcer the same racy increments lose updates with near
// certainty; this pins down that the test above is actually discriminating.
TEST(RsEnforcer, WithoutEnforcerRacyIncrementsLoseUpdates) {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  MicrobenchData data;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 20'000;
  (void)run_microbench(
      kThreads, data,
      [&](ThreadId) {
        return DirectApi<OptimisticTracker<>>(rt, tracker);
      },
      [&](auto& api, ThreadId) { return racy_inc_body(api, data, kIters); });
  // Not asserted as a hard inequality on principle (a miracle schedule could
  // preserve every update), but with 80k racy increments on shared hardware
  // the practical probability of losing none is nil; tolerate it by only
  // requiring <=.
  EXPECT_LE(data.counter.raw_load(), kThreads * kIters);
}

struct XyData {
  TrackedVar<std::uint64_t> x, y;
  template <typename T>
  void init_for_thread(T& trk, ThreadContext& ctx) {
    if (ctx.id != 0) return;
    x.init(trk, ctx, 0);
    y.init(trk, ctx, 0);
  }
  void raw_reset_values() {}
};

template <typename Tracker, typename MakeTracker>
void x_equals_y_invariant(MakeTracker&& make_tracker) {
  Runtime rt;
  Tracker tracker = make_tracker(rt);
  RsEnforcer<Tracker> enforcer(rt, tracker);
  XyData data;

  constexpr int kThreads = 4;
  constexpr int kIters = 2'000;
  std::atomic<std::uint64_t> violations{0};

  (void)run_threads(
      kThreads, [&](ThreadId) { return EnforcerApi<Tracker>(rt, enforcer); },
      [&](auto& api, ThreadId tid) { api.init_data(data, tid); },
      [&](auto& api, ThreadId tid) -> std::uint64_t {
        if (tid % 2 == 0) {
          for (int i = 0; i < kIters; ++i) {
            api.region([&] {
              api.store(data.x, api.load(data.x) + 1);
              api.store(data.y, api.load(data.y) + 1);
            });
            api.poll();
          }
        } else {
          for (int i = 0; i < kIters; ++i) {
            std::uint64_t a = 0, b = 0;
            api.region([&] {
              a = api.load(data.x);
              b = api.load(data.y);
            });
            if (a != b) violations.fetch_add(1);
            api.poll();
          }
        }
        return 0;
      });

  EXPECT_EQ(violations.load(), 0u) << "readers saw a torn writer region";
  EXPECT_EQ(data.x.raw_load(), data.y.raw_load());
  EXPECT_EQ(data.x.raw_load(), static_cast<std::uint64_t>(kThreads / 2) * kIters);
}

TEST(RsEnforcer, OptimisticEnforcerPreservesXyInvariant) {
  x_equals_y_invariant<OptimisticTracker<true>>(
      [](Runtime& rt) { return OptimisticTracker<true>(rt); });
}

TEST(RsEnforcer, HybridEnforcerPreservesXyInvariant) {
  x_equals_y_invariant<HybridTracker<true>>(
      [](Runtime& rt) { return HybridTracker<true>(rt, HybridConfig{}); });
}

TEST(RsEnforcer, RestartsRollBackPartialWrites) {
  // Deterministic restart: the region writes x, then responds to a pending
  // request from its own slow-path wait on y (owned by a running thread that
  // simultaneously requests x). After everything settles, x must reflect
  // whole regions only.
  Runtime rt;
  HybridTracker<true> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<true>> enforcer(rt, tracker);

  TrackedVar<std::uint64_t> x, y;
  std::atomic<int> phase{0};

  std::thread a([&] {
    ThreadContext& ctx = rt.register_thread();
    enforcer.attach_thread(ctx);
    x.init(tracker, ctx, 0);
    y.init(tracker, ctx, 0);
    // Give y away so the other thread owns it.
    phase.store(1);
    while (phase.load() < 2) rt.poll(ctx);
    // Region: write x (we own it), then read y (owned by b, which is
    // spinning on a request for x) -> forced response -> restart.
    enforcer.run_region(ctx, [&] {
      x.store(tracker, ctx, x.load(tracker, ctx) + 1);
      (void)y.load(tracker, ctx);
    });
    phase.store(3);
    while (phase.load() < 4) rt.poll(ctx);
    rt.unregister_thread(ctx);
  });

  std::thread b([&] {
    ThreadContext& ctx = rt.register_thread();
    enforcer.attach_thread(ctx);
    while (phase.load() < 1) std::this_thread::yield();
    y.store(tracker, ctx, 100);  // take ownership of y (a polls)
    phase.store(2);
    // Hammer x so thread a's region keeps conflicting.
    while (phase.load() < 3) {
      enforcer.run_region(ctx, [&] {
        x.store(tracker, ctx, x.load(tracker, ctx) + 1);
      });
      rt.poll(ctx);
    }
    phase.store(4);
    rt.unregister_thread(ctx);
  });

  a.join();
  b.join();
  // x's final value = 1 (a's region, exactly once) + b's increments; the key
  // property is that a's increment is applied exactly once despite restarts.
  // b's count is unknown, but every region incremented exactly once, so x is
  // consistent with total region executions — which the atomicity tests
  // already pin down; here we only require that a's restarts did not leak
  // (x >= 1) and the run terminated.
  EXPECT_GE(x.raw_load(), 1u);
}

// True when [a, a + na) and [b, b + nb) touch a common cache line.
bool share_a_line(const void* a, std::size_t na, const void* b,
                  std::size_t nb) {
  const auto first = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kCacheLine;
  };
  const auto last = [](const void* p, std::size_t n) {
    return (reinterpret_cast<std::uintptr_t>(p) + n - 1) / kCacheLine;
  };
  return first(a) <= last(b, nb) && first(b) <= last(a, na);
}

// Every region commit and every in-region store writes the thread's undo
// log header, and every in-region store writes an entry; four threads'
// headers or entry buffers on shared lines false-share on every region
// (DESIGN.md §4.5, §15.4).
TEST(RsEnforcer, ThreadUndoLogsLieOnDistinctCacheLines) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  constexpr int kThreads = 4;
  const UndoLog* logs[kThreads] = {};
  const UndoLog::Entry* entries[kThreads] = {};
  std::size_t entry_bytes[kThreads] = {};
  TrackedVar<std::uint64_t> vars[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    ThreadContext& ctx = rt.register_thread();
    enforcer.attach_thread(ctx);
    vars[t].init(tracker, ctx, 0);
    enforcer.run_region(ctx, [&] {
      logs[t] = ctx.undo_log;
      vars[t].store(tracker, ctx, 1);
      entries[t] = ctx.undo_log->data();
      entry_bytes[t] = ctx.undo_log->capacity() * sizeof(UndoLog::Entry);
    });
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(logs[i], nullptr);
    for (int j = i + 1; j < kThreads; ++j) {
      EXPECT_FALSE(share_a_line(logs[i], sizeof(UndoLog), logs[j],
                                sizeof(UndoLog)))
          << "undo logs of threads " << i << " and " << j << " share a line";
    }
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(entries[i], nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(entries[i]) % kCacheLine, 0u)
        << "thread " << i << "'s undo entries do not start a line";
    EXPECT_EQ(entry_bytes[i] % kCacheLine, 0u)
        << "thread " << i << "'s undo entries end inside a line";
    for (int j = i + 1; j < kThreads; ++j) {
      EXPECT_FALSE(share_a_line(entries[i], entry_bytes[i], entries[j],
                                entry_bytes[j]))
          << "undo entries of threads " << i << " and " << j
          << " share a line";
    }
  }
}

TEST(DependenceRecorder, ThreadLogsLieOnDistinctCacheLines) {
  Runtime rt;
  DependenceRecorder rec(rt);
  constexpr ThreadId kThreads = 4;
  for (ThreadId t = 0; t < kThreads; ++t) (void)rt.register_thread();
  for (ThreadId i = 0; i < kThreads; ++i) {
    for (ThreadId j = i + 1; j < kThreads; ++j) {
      EXPECT_FALSE(share_a_line(&rec.log(i), sizeof(ThreadLog), &rec.log(j),
                                sizeof(ThreadLog)))
          << "recorder logs of threads " << i << " and " << j
          << " share a line";
    }
  }
}

// A region unwound by ThreadQuarantined reaches neither commit nor rollback;
// reset must still hand the context back with an empty log.
TEST(RsEnforcer, ResetEmptiesALogAbandonedMidRegion) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  enforcer.attach_thread(ctx);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);

  const UndoLog* log = nullptr;
  EXPECT_THROW(enforcer.run_region(ctx,
                                   [&] {
                                     v.store(tracker, ctx, 1);
                                     v.store(tracker, ctx, 2);
                                     log = ctx.undo_log;
                                     throw ThreadQuarantined{ctx.id};
                                   }),
               ThreadQuarantined);
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->size(), 2u);

  ctx.reset(ctx.id, &rt);
  EXPECT_TRUE(log->empty());
  EXPECT_FALSE(ctx.in_region);
  EXPECT_EQ(ctx.undo_log, nullptr);
}

// The first-access rule is decided by instrumentation points, so it holds for
// regions that touch TrackedVars directly, not only through EnforcerApi. A
// forced response delivered while the region is inside its second access
// must roll the first access's store back and request a restart.
TEST(RsEnforcer, ForcedResponseAfterFirstAccessRollsBack) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  enforcer.attach_thread(ctx);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 5);

  enforcer.run_region(ctx, [&] {
    v.store(tracker, ctx, 6);
    ++ctx.point_index;  // entering the next tracked access
    ctx.run_abort_hook();
  });
  EXPECT_TRUE(ctx.restart_requested);
  EXPECT_EQ(v.raw_load(), 5u);
}

// A forced response inside the region's first access finds nothing to roll
// back: the region keeps running and no restart is requested.
TEST(RsEnforcer, ForcedResponseInFirstAccessKeepsRunning) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  enforcer.attach_thread(ctx);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 5);

  enforcer.run_region(ctx, [&] {
    ++ctx.point_index;  // inside the first tracked access
    ctx.run_abort_hook();
    v.store(tracker, ctx, 6);
  });
  EXPECT_FALSE(ctx.restart_requested);
  EXPECT_EQ(v.raw_load(), 6u);
}

// A region ends at the caller's next safe point, not inside run_region: a
// request another thread posts while the region runs is still pending when
// run_region returns, and the caller's next poll answers it, exactly once.
// `request` runs on the requester thread and blocks until answered;
// `posted` tells the owner the request is in.
template <typename Request, typename Posted>
void callers_poll_answers(Request&& request, Posted&& posted) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& owner = rt.register_thread();
  enforcer.attach_thread(owner);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, owner, 0);

  std::atomic<bool> answered{false};
  std::thread requester([&] {
    ThreadContext& self = rt.register_thread();
    request(rt, self, owner.id);
    answered.store(true);
    rt.unregister_thread(self);
  });
  const std::uint64_t responses = owner.stats.responding_safepoints;
  enforcer.run_region(owner, [&] {
    v.store(tracker, owner, 1);
    while (!posted(owner)) std::this_thread::yield();
  });
  EXPECT_TRUE(posted(owner)) << "run_region answered the request itself";
  EXPECT_EQ(owner.stats.responding_safepoints, responses);
  EXPECT_FALSE(answered.load());
  rt.poll(owner);
  EXPECT_FALSE(posted(owner)) << "the caller's poll left the request pending";
  EXPECT_EQ(owner.stats.responding_safepoints, responses + 1);
  requester.join();
  EXPECT_TRUE(answered.load());
  EXPECT_EQ(v.raw_load(), 1u);
  rt.poll(owner);
  EXPECT_EQ(owner.stats.responding_safepoints, responses + 1)
      << "a second poll answered the request again";
  rt.unregister_thread(owner);
}

TEST(RsEnforcer, CallersPollAnswersAScalarTicketPostedInARegion) {
  callers_poll_answers(
      [](Runtime& rt, ThreadContext& self, ThreadId owner) {
        (void)rt.coordinate(self, owner);
      },
      [](const ThreadContext& owner) { return owner.requests_pending(); });
}

TEST(RsEnforcer, CallersPollAnswersABatchMailboxNodePostedInARegion) {
  callers_poll_answers(
      [](Runtime& rt, ThreadContext& self, ThreadId owner) {
        Runtime::BatchGroup g{owner, 3};
        rt.coordinate_batch_multi(self, &g, 1);
      },
      [](const ThreadContext& owner) {
        return owner.batch_requests_pending();
      });
}

// The region end adds no instrumentation point of its own: a committed
// region advances point_index by exactly its tracked accesses.
TEST(RsEnforcer, CommittedRegionAddsOnlyItsAccessPoints) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  enforcer.attach_thread(ctx);
  TrackedVar<std::uint64_t> x, y;
  x.init(tracker, ctx, 0);
  y.init(tracker, ctx, 0);

  const std::uint64_t start = ctx.point_index;
  enforcer.run_region(ctx, [&] {
    x.store(tracker, ctx, x.load(tracker, ctx) + 1);
    y.store(tracker, ctx, 2);
  });
  EXPECT_EQ(ctx.point_index, start + 3);
  enforcer.run_region(ctx, [] {});
  EXPECT_EQ(ctx.point_index, start + 3) << "an empty region added a point";
}

// A thread quarantined while inside a region commits it (the region end is
// no safe point) and parks at its next safe point, a poll or a PSRO,
// without answering the ticket it holds.
template <typename SafePoint>
void quarantine_in_region_parks_at(SafePoint&& safe_point) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  ThreadContext& survivor = rt.register_thread();
  enforcer.attach_thread(ctx);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);

  const std::uint64_t release = ctx.release_counter_relaxed();
  const std::uint64_t responses = ctx.stats.responding_safepoints;
  enforcer.run_region(ctx, [&] {
    v.store(tracker, ctx, 1);
    // A requester's ticket, then the watchdog's verdict.
    ctx.requester_side.request_tickets.fetch_add(1);
    ASSERT_TRUE(rt.quarantine_thread(survivor, ctx.id));
  });
  EXPECT_FALSE(ctx.in_region);
  EXPECT_TRUE(ctx.region_log.empty()) << "the region did not commit";
  EXPECT_EQ(v.raw_load(), 1u);
  EXPECT_FALSE(ctx.quarantined_self);
  EXPECT_THROW(safe_point(rt, ctx), ThreadQuarantined);
  EXPECT_TRUE(ctx.quarantined_self);
  EXPECT_EQ(ctx.release_counter_relaxed(), release) << "the victim responded";
  EXPECT_EQ(ctx.stats.responding_safepoints, responses)
      << "the victim responded";
}

TEST(RsEnforcer, QuarantineDuringARegionParksAtTheNextPoll) {
  quarantine_in_region_parks_at(
      [](Runtime& rt, ThreadContext& ctx) { rt.poll(ctx); });
}

TEST(RsEnforcer, QuarantineDuringARegionParksAtTheNextPsro) {
  quarantine_in_region_parks_at(
      [](Runtime& rt, ThreadContext& ctx) { rt.psro(ctx); });
}

// ElisionTracking: a repeated store to the same variable inside a region,
// which barrier elision (removed, DESIGN.md §15) used to serve from its
// ownership cache. Each store feeds the undo log.
TEST(ElisionTracking, ElidedStoresStillFeedTheUndoLog) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enf(rt, tracker);
  EnforcerApi<HybridTracker<>> api(rt, enf);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 7);
  api.region([&] {
    api.store(v, 1);
    api.store(v, 2);
    ASSERT_NE(ctx.undo_log, nullptr);
    EXPECT_EQ(ctx.undo_log->size(), 2u);
  });
  EXPECT_EQ(v.raw_load(), 2u);
  api.end_thread();
}

// Thread a restarts its region while thread b holds an open region with a
// logged write: a's rollback must undo a's writes only and leave b's log and
// b's write in place.
TEST(RsEnforcer, RestartRollsBackOnlyTheRestartingThread) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& a = rt.register_thread();
  ThreadContext& b = rt.register_thread();
  enforcer.attach_thread(a);
  enforcer.attach_thread(b);
  TrackedVar<std::uint64_t> xa, yb;
  xa.init(tracker, a, 10);
  yb.init(tracker, b, 20);

  int attempts = 0;
  std::uint64_t xa_after_rollback = 0;
  enforcer.run_region(b, [&] {
    yb.store(tracker, b, 21);
    ASSERT_EQ(b.undo_log->size(), 1u);
    enforcer.run_region(a, [&] {
      if (attempts++ == 0) {
        xa.store(tracker, a, 11);
        ++a.point_index;  // now inside the region's second access
        // The forced response a responding safe point would deliver.
        a.run_abort_hook();
        ASSERT_TRUE(a.restart_requested);
        a.restart_requested = false;
        xa_after_rollback = xa.raw_load();
        throw RegionRestart{};
      }
      xa.store(tracker, a, 12);
    });
    EXPECT_EQ(b.undo_log->size(), 1u) << "a's rollback touched b's log";
    EXPECT_EQ(yb.raw_load(), 21u) << "a's rollback undid b's write";
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(xa_after_rollback, 10u);
  EXPECT_EQ(xa.raw_load(), 12u);
  EXPECT_EQ(yb.raw_load(), 21u);
  EXPECT_EQ(a.stats.region_restarts, 1u);
}

// Serial mode's fallback mutex is released however the serial attempt ends.
// The first region restarts until it goes serial and is then quarantined;
// a second region, on another thread, must still get through serial mode.
// The scenario runs in a child under an alarm, so a leaked mutex fails the
// test rather than hanging it.
TEST(RsEnforcerDeathTest, QuarantineInSerialModeReleasesTheFallbackMutex) {
  constexpr std::uint32_t kSerial =
      RsEnforcer<HybridTracker<>>::kSerialFallback;
  EXPECT_EXIT(
      {
        alarm(10);
        Runtime rt;
        HybridTracker<> tracker(rt);
        RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
        ThreadContext& a = rt.register_thread();
        ThreadContext& b = rt.register_thread();
        enforcer.attach_thread(a);
        enforcer.attach_thread(b);
        std::uint32_t a_attempts = 0;
        try {
          enforcer.run_region(a, [&] {
            if (a_attempts++ < kSerial) throw RegionRestart{};
            throw ThreadQuarantined{a.id};
          });
        } catch (const ThreadQuarantined&) {
        }
        std::uint32_t b_attempts = 0;
        enforcer.run_region(b, [&] {
          if (b_attempts++ < kSerial) throw RegionRestart{};
        });
        std::_Exit(a_attempts == kSerial + 1 && b_attempts == kSerial + 1
                       ? 0
                       : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace ht
