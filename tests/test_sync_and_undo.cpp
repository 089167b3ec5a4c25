// Program synchronization primitives (PSRO semantics, blocking safe points)
// and the enforcer's undo log.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "enforcer/region.hpp"
#include "runtime/sync.hpp"
#include "test_util.hpp"
#include "tracking/tracked_var.hpp"
#include "tracking/null_tracker.hpp"

namespace ht {
namespace {

TEST(ProgramLock, ReleaseIsAPsro) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  ProgramLock l;
  l.acquire(ctx);
  const std::uint64_t before = ctx.release_counter_relaxed();
  l.release(ctx);
  EXPECT_EQ(ctx.release_counter_relaxed(), before + 1);
  EXPECT_EQ(ctx.stats.psros, 1u);
}

TEST(ProgramLock, UncontendedAcquireDoesNotBlock) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  ProgramLock l;
  l.acquire(ctx);
  EXPECT_FALSE(ThreadStatus::is_blocked(
      ctx.owner_side.status.load(std::memory_order_relaxed)));
  l.release(ctx);
}

TEST(ProgramLock, ContendedAcquireParksBlocked) {
  Runtime rt;
  ProgramLock l;
  ThreadContext& holder = rt.register_thread();
  l.acquire(holder);

  std::atomic<bool> waiter_blocked{false};
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    ThreadContext& ctx = rt.register_thread();
    l.acquire(ctx);  // blocks; begin_blocking publishes BLOCKED first
    l.release(ctx);
    done.store(true);
  });
  // Observe the waiter actually parking (status of thread id 1).
  while (!waiter_blocked.load() && !done.load()) {
    if (rt.registry().high_water() >= 2) {
      const auto s = rt.registry().context(1).owner_side.status.load(
          std::memory_order_acquire);
      if (ThreadStatus::is_blocked(s)) waiter_blocked.store(true);
    }
    std::this_thread::yield();
  }
  EXPECT_TRUE(waiter_blocked.load());
  l.release(holder);
  waiter.join();
  EXPECT_TRUE(done.load());
  // After waking, the waiter must be RUNNING again (it released and exited).
  EXPECT_FALSE(ThreadStatus::is_blocked(
      rt.registry().context(1).owner_side.status.load(
          std::memory_order_acquire)));
}

TEST(ProgramLock, ScopeIsRaii) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  ProgramLock l;
  {
    ProgramLock::Scope s(l, ctx);
  }
  EXPECT_EQ(ctx.stats.psros, 1u);
  l.acquire(ctx);  // not deadlocked: the scope released
  l.release(ctx);
}

TEST(ProgramBarrier, RendezvousAndPsro) {
  Runtime rt;
  ProgramBarrier barrier(3);
  std::atomic<int> passed{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 3; ++i) {
    ts.emplace_back([&] {
      ThreadContext& ctx = rt.register_thread();
      barrier.arrive_and_wait(ctx);
      passed.fetch_add(1);
      EXPECT_GE(ctx.stats.psros, 1u);
      rt.unregister_thread(ctx);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(passed.load(), 3);
}

TEST(UndoLog, RollbackRestoresInReverseOrder) {
  UndoLog log;
  std::atomic<std::uint64_t> a{1}, b{2};
  auto restore = [](void* addr, std::uint64_t bits) {
    static_cast<std::atomic<std::uint64_t>*>(addr)->store(
        bits, std::memory_order_relaxed);
  };
  log.push(&a, a.load(), restore);
  a.store(10);
  log.push(&b, b.load(), restore);
  b.store(20);
  log.push(&a, a.load(), restore);  // second write to a
  a.store(100);
  log.rollback();
  EXPECT_EQ(a.load(), 1u);  // earliest old value wins
  EXPECT_EQ(b.load(), 2u);
  EXPECT_TRUE(log.empty());
}

TEST(UndoLog, CommitDiscardsEntries) {
  UndoLog log;
  std::atomic<std::uint64_t> a{1};
  log.push(&a, 1,
           [](void* addr, std::uint64_t bits) {
             static_cast<std::atomic<std::uint64_t>*>(addr)->store(bits);
           });
  a.store(5);
  log.commit();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(a.load(), 5u);
}

// Old values in the order rollback restored them (RestoreFn cannot capture).
std::vector<std::uint64_t> g_restored;

void restore_and_note(void* addr, std::uint64_t bits) {
  g_restored.push_back(bits);
  static_cast<std::atomic<std::uint64_t>*>(addr)->store(
      bits, std::memory_order_relaxed);
}

TEST(UndoLog, GrowsPastInitialCapacityAndRollsBackEarliestValues) {
  constexpr std::size_t kVars = 5;
  constexpr std::size_t kPushes = 3 * UndoLog::kInitialCapacity + 7;
  std::atomic<std::uint64_t> vars[kVars];
  for (std::size_t i = 0; i < kVars; ++i) vars[i].store(100 * i);

  UndoLog log;
  std::vector<std::uint64_t> pushed;
  for (std::size_t k = 0; k < kPushes; ++k) {
    std::atomic<std::uint64_t>& v = vars[k % kVars];  // each var many times
    pushed.push_back(v.load());
    log.push(&v, v.load(), &restore_and_note);
    v.store(1000 + k);
  }
  EXPECT_EQ(log.size(), kPushes);
  EXPECT_GE(log.capacity(), kPushes);

  g_restored.clear();
  log.rollback();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(g_restored,
            std::vector<std::uint64_t>(pushed.rbegin(), pushed.rend()))
      << "rollback must run newest entry first";
  for (std::size_t i = 0; i < kVars; ++i) {
    EXPECT_EQ(vars[i].load(), 100 * i) << "var " << i;
  }
}

TEST(UndoLog, CommitKeepsStorageForTheNextRegion) {
  std::atomic<std::uint64_t> a{0};
  constexpr std::size_t kPushes = 2 * UndoLog::kInitialCapacity + 1;
  UndoLog log;
  for (std::size_t k = 0; k < kPushes; ++k) {
    log.push(&a, k, &restore_and_note);
  }
  log.commit();
  EXPECT_TRUE(log.empty());
  const UndoLog::Entry* storage = log.data();
  const std::size_t capacity = log.capacity();
  ASSERT_NE(storage, nullptr);

  for (std::size_t k = 0; k < kPushes; ++k) {
    log.push(&a, k, &restore_and_note);
  }
  EXPECT_EQ(log.data(), storage) << "a same-sized region reallocated";
  EXPECT_EQ(log.capacity(), capacity);
  log.commit();
}

TEST(UndoLog, ContextResetEmptiesAGrownLog) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  std::atomic<std::uint64_t> a{0};
  for (std::size_t k = 0; k < 3 * UndoLog::kInitialCapacity; ++k) {
    ctx.region_log.push(&a, k, &restore_and_note);
  }
  ASSERT_GT(ctx.region_log.capacity(), UndoLog::kInitialCapacity);

  ctx.reset(ctx.id, &rt);
  EXPECT_TRUE(ctx.region_log.empty());
  g_restored.clear();
  ctx.region_log.rollback();
  EXPECT_TRUE(g_restored.empty()) << "reset left entries to roll back";
}

TEST(TrackedVar, StoreLogsUndoOnlyInsideRegions) {
  Runtime rt;
  NullTracker tracker(rt);
  ThreadContext& ctx = rt.register_thread();
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 42);

  UndoLog log;
  v.store(tracker, ctx, 1);  // no region: no undo entry
  EXPECT_TRUE(log.empty());

  ctx.undo_log = &log;
  v.store(tracker, ctx, 2);
  EXPECT_EQ(log.size(), 1u);
  ctx.undo_log = nullptr;

  log.rollback();
  EXPECT_EQ(v.load(tracker, ctx), 1u);  // back to the pre-region value
}

TEST(TrackedVar, RawAccessBypassesTracking) {
  Runtime rt;
  NullTracker tracker(rt);
  ThreadContext& ctx = rt.register_thread();
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 3);
  const std::uint64_t points_before = ctx.point_index;
  EXPECT_EQ(v.raw_load(), 3u);
  v.raw_store(4);
  EXPECT_EQ(v.raw_load(), 4u);
  EXPECT_EQ(ctx.point_index, points_before);  // raw access: no point bump
}

TEST(TrackedVar, TrackedAccessesAdvancePointIndex) {
  Runtime rt;
  NullTracker tracker(rt);
  ThreadContext& ctx = rt.register_thread();
  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);
  const std::uint64_t p0 = ctx.point_index;
  (void)v.load(tracker, ctx);
  v.store(tracker, ctx, 1);
  EXPECT_EQ(ctx.point_index, p0 + 2);
}

}  // namespace
}  // namespace ht
