// Optimistic (Octet) tracking tests: Table 1's same-state, upgrading, fence
// and conflicting transitions, implicit vs explicit coordination, and a
// multithreaded stress for metadata integrity.
#include "tracking/optimistic_tracker.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/xorshift.hpp"
#include "test_util.hpp"
#include "tracking/tracked_var.hpp"

namespace ht {
namespace {

using testing::BlockedThread;
using testing::state_is;

using Tracker = OptimisticTracker</*kStats=*/true>;

struct OptFixture : ::testing::Test {
  Runtime rt;
  Tracker tracker{rt};
  ThreadContext& t0 = rt.register_thread();
  TrackedVar<std::uint64_t> var;

  void SetUp() override { var.init(tracker, t0, 7); }
};

TEST_F(OptFixture, SameStateAccessesAreFastPath) {
  var.store(tracker, t0, 1);
  (void)var.load(tracker, t0);
  EXPECT_EQ(t0.stats.opt_same, 2u);
  EXPECT_EQ(t0.stats.opt_conflicting(), 0u);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, t0.id));
}

// ElisionTracking: the repeated same-owner accesses that barrier elision
// (removed, DESIGN.md §15) used to serve from its ownership cache. Each one
// now reaches the tracker and is counted exactly once.
TEST(ElisionTracking, OptimisticHotLoopConservesAccessCounts) {
  Runtime rt;
  Tracker tracker(rt);
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);

  constexpr std::uint64_t kN = 1000;
  for (std::uint64_t i = 0; i < kN; ++i) var.store(tracker, ctx, i);
  for (std::uint64_t i = 0; i < kN; ++i) (void)var.load(tracker, ctx);

  EXPECT_EQ(ctx.stats.accesses(), 2 * kN);
  EXPECT_EQ(ctx.stats.opt_same, 2 * kN);
  EXPECT_EQ(ctx.stats.elision_hits, 0u);
  EXPECT_EQ(var.raw_load(), kN - 1);
}

TEST_F(OptFixture, ConflictingReadOfBlockedOwner) {
  // t0 owns the object, then blocks; a reader coordinates implicitly.
  Runtime& r = rt;
  r.begin_blocking(t0);
  ThreadContext& t1 = r.register_thread();
  EXPECT_EQ(var.load(tracker, t1), 7u);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kRdExOpt, t1.id));
  EXPECT_EQ(t1.stats.opt_confl_implicit, 1u);
  EXPECT_EQ(t1.stats.opt_confl_explicit, 0u);
  r.end_blocking(t0);
}

TEST_F(OptFixture, ConflictingWriteOfBlockedOwner) {
  rt.begin_blocking(t0);
  ThreadContext& t1 = rt.register_thread();
  var.store(tracker, t1, 99);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, t1.id));
  EXPECT_EQ(t1.stats.opt_confl_implicit, 1u);
  rt.end_blocking(t0);
  // Conflicting back: t1 must be at a safe point for t0's read to complete —
  // park it (both contexts are driven by this one OS thread).
  rt.begin_blocking(t1);
  EXPECT_EQ(var.load(tracker, t0), 99u);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kRdExOpt, t0.id));
  rt.end_blocking(t1);
}

TEST_F(OptFixture, UpgradeOwnReadToWrite) {
  rt.begin_blocking(t0);
  ThreadContext& t1 = rt.register_thread();
  (void)var.load(tracker, t1);  // RdExOpt(t1)
  var.store(tracker, t1, 5);    // upgrading, no coordination
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, t1.id));
  EXPECT_EQ(t1.stats.opt_upgrading, 1u);
  EXPECT_EQ(t1.stats.opt_conflicting(), 1u);  // only the initial read
  rt.end_blocking(t0);
}

TEST_F(OptFixture, SecondReaderUpgradesToRdSh) {
  rt.begin_blocking(t0);
  ThreadContext& t1 = rt.register_thread();
  ThreadContext& t2 = rt.register_thread();
  (void)var.load(tracker, t1);  // RdExOpt(t1), implicit conflict
  (void)var.load(tracker, t2);  // upgrade to RdShOpt, CAS only
  EXPECT_TRUE(state_is(var.meta(), StateKind::kRdShOpt));
  EXPECT_EQ(t2.stats.opt_upgrading, 1u);
  EXPECT_EQ(t2.stats.opt_conflicting(), 0u);
  const StateWord s = var.meta().load_state();
  EXPECT_GE(t2.rd_sh_count, s.counter());  // the upgrader saw its own epoch
  rt.end_blocking(t0);
}

TEST_F(OptFixture, RdShReadersFenceOncePerEpoch) {
  rt.begin_blocking(t0);
  ThreadContext& t1 = rt.register_thread();
  ThreadContext& t2 = rt.register_thread();
  ThreadContext& t3 = rt.register_thread();
  (void)var.load(tracker, t1);
  (void)var.load(tracker, t2);  // RdShOpt
  (void)var.load(tracker, t3);  // fence transition (t3 stale)
  EXPECT_EQ(t3.stats.opt_fence, 1u);
  (void)var.load(tracker, t3);  // now same-state
  EXPECT_EQ(t3.stats.opt_same, 1u);
  EXPECT_EQ(t3.stats.opt_fence, 1u);
  rt.end_blocking(t0);
}

TEST_F(OptFixture, WriteToRdShCoordinatesWithAllThreads) {
  rt.begin_blocking(t0);
  ThreadContext& t1 = rt.register_thread();
  ThreadContext& t2 = rt.register_thread();
  (void)var.load(tracker, t1);
  (void)var.load(tracker, t2);  // RdShOpt
  // t2 writes: must coordinate with t0 (blocked) and t1 (running — but t1
  // shares this OS thread, so park it first to keep the test single-threaded).
  rt.begin_blocking(t1);
  var.store(tracker, t2, 1);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, t2.id));
  EXPECT_EQ(t2.stats.opt_confl_implicit, 1u);
  // Rounds: one per other registered thread (t0, t1).
  EXPECT_GE(t2.stats.coordination_rounds, 2u);
  rt.end_blocking(t1);
  rt.end_blocking(t0);
}

TEST_F(OptFixture, ExplicitCoordinationWithRunningOwner) {
  ThreadContext& t1 = rt.register_thread();
  std::atomic<bool> done{false};
  // Reader runs on another OS thread; the owner (this thread) polls.
  std::thread reader([&] {
    EXPECT_EQ(var.load(tracker, t1), 7u);
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(t0);
    std::this_thread::yield();
  }
  reader.join();
  EXPECT_EQ(t1.stats.opt_confl_explicit, 1u);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kRdExOpt, t1.id));
}

TEST(OptimisticStress, ManyThreadsManyObjects) {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  // Conflict-heavy by design (most accesses hit foreign-owned objects), so
  // the op count stays small: every conflict is a cross-thread round trip,
  // and the test box timeshares one core.
  constexpr int kThreads = 4;
  constexpr int kObjects = 256;
  constexpr int kOps = 3000;
  std::vector<TrackedVar<std::uint64_t>> vars(kObjects);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadContext& ctx = rt.register_thread();
      if (ctx.id == 0) {
        for (auto& v : vars) v.init(tracker, ctx, 0);
      }
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        rt.poll(ctx);
        std::this_thread::yield();
      }
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        auto& v = vars[rng.next_below(kObjects)];
        if (rng.chance(30, 100)) {
          v.store(tracker, ctx, rng.next());
        } else {
          (void)v.load(tracker, ctx);
        }
        rt.poll(ctx);
      }
      rt.unregister_thread(ctx);
    });
  }
  for (auto& th : threads) th.join();
  for (auto& v : vars) {
    const StateWord s = v.meta().load_state();
    EXPECT_TRUE(s.is_optimistic()) << s.to_string();
  }
}

}  // namespace
}  // namespace ht
