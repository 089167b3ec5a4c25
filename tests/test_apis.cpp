// Access-API contract tests: instrumentation-point discipline (the replayer
// depends on every API advancing point indices identically), lock elision in
// replay, enforcer access counting, and stats plumbing.
#include <gtest/gtest.h>

#include "tracking/hybrid_tracker.hpp"
#include "tracking/null_tracker.hpp"
#include "workload/apis.hpp"

namespace ht {
namespace {

TEST(DirectApi, AdvancesPointIndexPerInstrumentationPoint) {
  Runtime rt;
  NullTracker tracker(rt);
  DirectApi<NullTracker> api(rt, tracker);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();

  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);
  ProgramLock lock;

  const std::uint64_t p0 = ctx.point_index;
  (void)api.load(v);      // +1
  api.store(v, 1);        // +1
  api.lock(lock);         // +1
  api.unlock(lock);       // +1 (PSRO)
  api.poll();             // +1
  EXPECT_EQ(ctx.point_index, p0 + 5);
  api.end_thread();
}

TEST(ReplayApi, MirrorsPointIndexDiscipline) {
  // A recording with no events: replay must advance through the same number
  // of points without touching any event machinery.
  Recording rec;
  rec.threads.resize(1);
  Replayer rp(rec);
  ReplayApi api(rp);
  api.begin_thread(0);

  TrackedVar<std::uint64_t> v;
  v.raw_store(7);
  ProgramLock lock;

  EXPECT_EQ(api.load(v), 7u);
  api.store(v, 9);
  EXPECT_EQ(v.raw_load(), 9u);
  api.lock(lock);    // elided: must not actually acquire
  api.lock(lock);    // would deadlock if real
  api.unlock(lock);  // PSRO point: bumps replay release counter
  EXPECT_EQ(rp.release_counter(0), 1u);
  api.end_thread();
  EXPECT_EQ(rp.release_counter(0), 2u);  // thread-end bump
}

TEST(EnforcerApi, CountsAccessesWithinRegion) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enf(rt, tracker);
  EnforcerApi<HybridTracker<>> api(rt, enf);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();

  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);

  // The enforcer counts a region's accesses by instrumentation points: each
  // EnforcerApi access is exactly one point past the region's start.
  api.region([&] {
    EXPECT_EQ(ctx.point_index - ctx.region_start_point, 0u);
    (void)api.load(v);
    EXPECT_EQ(ctx.point_index - ctx.region_start_point, 1u);
    api.store(v, 2);
    EXPECT_EQ(ctx.point_index - ctx.region_start_point, 2u);
  });
  EXPECT_FALSE(ctx.in_region);
  EXPECT_EQ(ctx.undo_log, nullptr);
  api.end_thread();
}

TEST(EnforcerApi, RegionWritesAreUndoLogged) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enf(rt, tracker);
  EnforcerApi<HybridTracker<>> api(rt, enf);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();

  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 5);
  api.region([&] {
    api.store(v, 6);
    ASSERT_NE(ctx.undo_log, nullptr);
    EXPECT_EQ(ctx.undo_log->size(), 1u);
  });
  EXPECT_EQ(v.raw_load(), 6u);  // committed
  api.end_thread();
}

TEST(DirectApi, StatsSnapshotTracksContext) {
  Runtime rt;
  HybridTracker<true> tracker(rt, HybridConfig{});
  DirectApi<HybridTracker<true>> api(rt, tracker);
  api.begin_thread(0);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, api.context(), 0);
  api.store(v, 1);
  api.store(v, 2);
  const TransitionStats snap = api.take_stats();
  EXPECT_EQ(snap.opt_same, 2u);
  api.end_thread();
}

TEST(RunThreads, MergesStatsAndChecksums) {
  Runtime rt;
  NullTracker tracker(rt);
  const auto r = run_threads(
      3, [&](ThreadId) { return DirectApi<NullTracker>(rt, tracker); },
      [](auto&, ThreadId) {}, [](auto&, ThreadId tid) {
        return static_cast<std::uint64_t>(tid) + 100;
      });
  ASSERT_EQ(r.checksums.size(), 3u);
  EXPECT_EQ(r.checksums[0], 100u);
  EXPECT_EQ(r.checksums[2], 102u);
  EXPECT_GE(r.seconds, 0.0);
}

}  // namespace
}  // namespace ht
