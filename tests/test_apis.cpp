// Access-API contract tests: instrumentation-point discipline (the replayer
// depends on every API advancing point indices identically), lock elision in
// replay, enforcer access counting, and stats plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

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

// Starts threads in reverse tid order: thread tid registers only after every
// higher tid has, so a registry that handed out ids in arrival order would
// give every thread the wrong id.
template <typename Api>
class ReverseStartApi : public Api {
 public:
  ReverseStartApi(Api api, std::atomic<int>* started,
                  std::vector<ThreadId>* ids)
      : Api(std::move(api)), started_(started), ids_(ids) {}
  void begin_thread(ThreadId tid) {
    const int later = static_cast<int>(ids_->size() - 1 - tid);
    while (started_->load(std::memory_order_acquire) != later) {
      std::this_thread::yield();
    }
    Api::begin_thread(tid);
    (*ids_)[tid] = this->context().id;
    started_->fetch_add(1, std::memory_order_release);
  }

 private:
  std::atomic<int>* started_;
  std::vector<ThreadId>* ids_;
};

// Runs a small workload whose threads start in reverse tid order and
// returns each thread's runtime id. init_data checks its tid against the
// runtime id, and the private pool of tid must end up owned by tid.
template <typename MakeApi>
std::vector<ThreadId> ids_of_reverse_starts(MakeApi&& make_api) {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.private_objects = 4;
  cfg.general_objects = 4;
  cfg.readshare_objects = 4;
  cfg.hot_objects = 2;
  WorkloadData data(cfg);
  std::atomic<int> started{0};
  std::vector<ThreadId> ids(static_cast<std::size_t>(cfg.threads), kNoThread);
  (void)run_threads(
      cfg.threads,
      [&](ThreadId) {
        return ReverseStartApi<decltype(make_api())>(make_api(), &started,
                                                     &ids);
      },
      [&](auto& api, ThreadId tid) { api.init_data(data, tid); },
      [](auto&, ThreadId) { return std::uint64_t{0}; });
  for (ThreadId t = 0; t < ids.size(); ++t) {
    EXPECT_EQ(data.private_obj(t, 0).meta().load_state().tid(), t);
  }
  return ids;
}

TEST(ApiIdentity, DirectApiRegistersEachThreadAsItsTid) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  const std::vector<ThreadId> ids = ids_of_reverse_starts(
      [&] { return DirectApi<HybridTracker<>>(rt, tracker); });
  for (ThreadId t = 0; t < ids.size(); ++t) EXPECT_EQ(ids[t], t);
}

TEST(ApiIdentity, EnforcerApiRegistersEachThreadAsItsTid) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enf(rt, tracker);
  const std::vector<ThreadId> ids = ids_of_reverse_starts(
      [&] { return EnforcerApi<HybridTracker<>>(rt, enf); });
  for (ThreadId t = 0; t < ids.size(); ++t) EXPECT_EQ(ids[t], t);
}

}  // namespace
}  // namespace ht
