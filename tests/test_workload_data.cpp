// WorkloadData mechanics: pool indexing, per-thread initialization ownership,
// the warm-up phase's effect on states, raw resets, and the conflict census.
#include <gtest/gtest.h>

#include "tracking/hybrid_tracker.hpp"
#include "tracking/null_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/workload.hpp"

namespace ht {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.private_objects = 8;
  cfg.general_objects = 16;
  cfg.readshare_objects = 4;
  cfg.hot_objects = 2;
  cfg.locks = 4;
  return cfg;
}

TEST(WorkloadData, PoolAccessorsWrapAround) {
  const WorkloadConfig cfg = small_config();
  WorkloadData data(cfg);
  EXPECT_EQ(&data.general(0), &data.general(16));
  EXPECT_EQ(&data.readshare(1), &data.readshare(5));
  EXPECT_EQ(&data.hot(0), &data.hot(2));
  EXPECT_EQ(&data.private_obj(0, 0), &data.private_obj(0, 8));
  EXPECT_NE(&data.private_obj(0, 0), &data.private_obj(1, 0));
  EXPECT_EQ(&data.lock(0), &data.lock(4));
  EXPECT_EQ(&data.global_lock(), &data.lock(0));
}

TEST(WorkloadData, InitForThreadSplitsOwnership) {
  const WorkloadConfig cfg = small_config();
  WorkloadData data(cfg);
  Runtime rt;
  OptimisticTracker<> trk(rt);
  ThreadContext& t0 = rt.register_thread();
  ThreadContext& t1 = rt.register_thread();

  data.init_for_thread(trk, t0, 0);
  data.init_for_thread(trk, t1, 1);

  // Shared pools owned by thread 0; each private pool by its thread.
  EXPECT_EQ(data.general(3).meta().load_state().tid(), t0.id);
  EXPECT_EQ(data.hot(1).meta().load_state().tid(), t0.id);
  EXPECT_EQ(data.private_obj(0, 2).meta().load_state().tid(), t0.id);
  EXPECT_EQ(data.private_obj(1, 2).meta().load_state().tid(), t1.id);
}

// Threads may register with the runtime in any order: the private pool a
// thread initializes is the one its body indexes by workload tid.
TEST(WorkloadData, PrivatePoolFollowsWorkloadTidNotRuntimeId) {
  const WorkloadConfig cfg = small_config();
  WorkloadData data(cfg);
  Runtime rt;
  OptimisticTracker<> trk(rt);
  ThreadContext& first = rt.register_thread();   // workload thread 1
  ThreadContext& second = rt.register_thread();  // workload thread 0

  data.init_for_thread(trk, first, 1);
  data.init_for_thread(trk, second, 0);

  EXPECT_EQ(data.private_obj(1, 2).meta().load_state().tid(), first.id);
  EXPECT_EQ(data.private_obj(0, 2).meta().load_state().tid(), second.id);
  EXPECT_EQ(data.general(3).meta().load_state().tid(), second.id);
}

TEST(WorkloadData, WarmupSettlesSharedStatesWithoutTimedConflicts) {
  WorkloadConfig cfg = small_config();
  cfg.ops_per_thread = 400;
  cfg.hotsync_p100k = 0;  // quiet profile: no hot regions at all
  cfg.sharedgen_p100k = 0;
  cfg.readshare_write_pct = 0;
  WorkloadData data(cfg);

  Runtime rt;
  OptimisticTracker<true> trk(rt);
  const auto r = run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<OptimisticTracker<true>>(rt, trk);
  });
  // All first-touch transfers happened in the warm-up (untimed, but counted
  // in stats) — afterwards the readshare pool is read-shared.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(data.readshare(i).meta().load_state().is_rd_sh());
  }
  EXPECT_GT(r.stats.opt_same, 0u);
}

TEST(WorkloadData, RawResetClearsValuesOnly) {
  const WorkloadConfig cfg = small_config();
  WorkloadData data(cfg);
  Runtime rt;
  NullTracker trk(rt);
  ThreadContext& ctx = rt.register_thread();
  data.init_all(trk, ctx);
  data.general(0).raw_store(42);
  const StateWord before = data.general(0).meta().load_state();
  data.raw_reset_values();
  EXPECT_EQ(data.general(0).raw_load(), 0u);
  EXPECT_EQ(data.general(0).meta().load_state().raw(), before.raw());
}

TEST(WorkloadData, ConflictCensusReadsProfileWords) {
  const WorkloadConfig cfg = small_config();
  WorkloadData data(cfg);
  Runtime rt;
  NullTracker trk(rt);
  ThreadContext& ctx = rt.register_thread();
  data.init_all(trk, ctx);

  data.hot(0).meta().profile().update(
      [](ProfileWord w) { return w.with_opt_conflict_inc(); });
  const auto counts = data.per_object_conflict_counts();
  // hot pool is first in the census.
  ASSERT_GE(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);

  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 1u);
}

TEST(WorkloadData, ForEachMetaVisitsEveryObject) {
  const WorkloadConfig cfg = small_config();
  WorkloadData data(cfg);
  std::size_t n = 0;
  data.for_each_meta([&](ObjectMeta&) { ++n; });
  // 2 threads x 8 private + 16 general + 4 readshare + 2 hot.
  EXPECT_EQ(n, 2u * 8 + 16 + 4 + 2);
}

}  // namespace
}  // namespace ht
