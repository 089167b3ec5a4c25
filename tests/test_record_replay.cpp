// End-to-end record & replay soundness (paper §4).
//
// The strongest checkable property: replaying the recorded happens-before
// edges reproduces every loaded value. The workload body folds every load
// into a per-thread checksum; if the recorder missed a cross-thread
// dependence, some racy load would read a different value during replay and
// the checksums would diverge. The parameterized sweep covers low-conflict,
// synchronized-conflict, and racy-conflict configurations under both the
// optimistic recorder (§4.1) and the hybrid recorder (§4.2).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "recorder/recorder.hpp"
#include "recorder/replayer.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/workload.hpp"

namespace ht {
namespace {

struct RecordReplayCase {
  const char* label;
  std::uint32_t hotsync_p100k;
  std::uint32_t hotracy_p100k;
  std::uint32_t hotglobal_p100k;
  std::uint64_t seed;
};

WorkloadConfig make_config(const RecordReplayCase& c) {
  WorkloadConfig cfg;
  cfg.name = c.label;
  cfg.threads = 4;
  cfg.ops_per_thread = 6'000;
  cfg.readshare_p100k = 10'000;
  cfg.sharedgen_p100k = 2'000;
  cfg.hotsync_p100k = c.hotsync_p100k;
  cfg.hotracy_p100k = c.hotracy_p100k;
  cfg.hotglobal_p100k = c.hotglobal_p100k;
  cfg.hot_objects = 4;
  cfg.base_seed = c.seed;
  return cfg;
}

template <template <bool, typename> class TrackerT>
void record_then_replay(const WorkloadConfig& cfg) {
  WorkloadData data(cfg);

  // --- record ---------------------------------------------------------------
  Runtime rt;
  DependenceRecorder recorder(rt);
  using Tracker = TrackerT<false, DependenceRecorder>;
  Tracker tracker = [&] {
    if constexpr (std::is_constructible_v<Tracker, Runtime&, HybridConfig,
                                          DependenceRecorder*>) {
      return Tracker(rt, HybridConfig{}, &recorder);
    } else {
      return Tracker(rt, &recorder);
    }
  }();

  const WorkloadRunResult recorded = run_workload(
      cfg, data, [&](ThreadId) { return DirectApi<Tracker>(rt, tracker, &recorder); });

  const Recording recording =
      recorder.take_recording(static_cast<ThreadId>(cfg.threads));
  ASSERT_EQ(recording.threads.size(), static_cast<std::size_t>(cfg.threads));

  // --- replay ---------------------------------------------------------------
  Replayer replayer(recording);
  const WorkloadRunResult replayed = run_workload(
      cfg, data, [&](ThreadId) { return ReplayApi(replayer); });

  // Value determinism: every thread observed identical loaded values.
  for (int t = 0; t < cfg.threads; ++t) {
    EXPECT_EQ(recorded.checksums[static_cast<std::size_t>(t)],
              replayed.checksums[static_cast<std::size_t>(t)])
        << "thread " << t << " diverged under " << cfg.name
        << " (recording: " << recording.summary() << ")";
  }
}

class RecordReplayP : public ::testing::TestWithParam<RecordReplayCase> {};

TEST_P(RecordReplayP, OptimisticRecorderIsValueDeterministic) {
  record_then_replay<OptimisticTracker>(make_config(GetParam()));
}

TEST_P(RecordReplayP, HybridRecorderIsValueDeterministic) {
  record_then_replay<HybridTracker>(make_config(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecordReplayP,
    ::testing::Values(
        RecordReplayCase{"low_conflict", 0, 0, 0, 1},
        RecordReplayCase{"sync_conflicts", 2'000, 0, 0, 2},
        RecordReplayCase{"racy_conflicts", 0, 2'000, 0, 3},
        RecordReplayCase{"global_lock", 0, 0, 2'000, 4},
        RecordReplayCase{"mixed_heavy", 2'000, 1'000, 500, 5},
        RecordReplayCase{"mixed_heavy_alt_seed", 2'000, 1'000, 500, 77}),
    [](const ::testing::TestParamInfo<RecordReplayCase>& param_info) {
      return std::string(param_info.param.label) + "_seed" +
             std::to_string(param_info.param.seed);
    });

TEST(RecordReplay, HybridAndOptimisticRecordersCaptureDependences) {
  // "it still detects and records the same number of cross-thread
  // dependences" (§7.6) — the counts need not match exactly (the hybrid
  // recorder uses conservative fan-out edges where the state word names no
  // owner), but both must capture a nonempty dependence set on a conflict-
  // heavy run.
  const WorkloadConfig cfg =
      make_config(RecordReplayCase{"dep_count", 2'000, 1'000, 0, 9});
  WorkloadData data(cfg);

  Runtime rt_o;
  DependenceRecorder rec_o(rt_o);
  OptimisticTracker<false, DependenceRecorder> opt(rt_o, &rec_o);
  (void)run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<OptimisticTracker<false, DependenceRecorder>>(rt_o, opt,
                                                                   &rec_o);
  });
  const Recording ro = rec_o.take_recording(static_cast<ThreadId>(cfg.threads));

  Runtime rt_h;
  DependenceRecorder rec_h(rt_h);
  HybridTracker<false, DependenceRecorder> hyb(rt_h, HybridConfig{}, &rec_h);
  (void)run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<HybridTracker<false, DependenceRecorder>>(rt_h, hyb,
                                                               &rec_h);
  });
  const Recording rh = rec_h.take_recording(static_cast<ThreadId>(cfg.threads));

  EXPECT_GT(ro.total_edges(), 0u);
  EXPECT_GT(rh.total_edges(), 0u);
}

TEST(RecordReplay, SingleThreadedRecordingHasNoEdges) {
  WorkloadConfig cfg;
  cfg.threads = 1;
  cfg.ops_per_thread = 2'000;
  cfg.hotsync_p100k = 1'000;
  WorkloadData data(cfg);
  Runtime rt;
  DependenceRecorder recorder(rt);
  OptimisticTracker<false, DependenceRecorder> tracker(rt, &recorder);
  (void)run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<OptimisticTracker<false, DependenceRecorder>>(rt, tracker,
                                                                   &recorder);
  });
  const Recording r = recorder.take_recording(1);
  EXPECT_EQ(r.total_edges(), 0u);
}

// Objects for the batch-cap check: one past the store-batch cap, all
// initialized by thread 0.
struct BatchCapData {
  static constexpr std::size_t kN = kStoreBatchCap + 1;
  TrackedVar<std::uint64_t> vars[kN];

  template <typename Tracker>
  void init_for_thread(Tracker& tracker, ThreadContext& ctx) {
    if (ctx.id != 0) return;
    for (auto& v : vars) v.init(tracker, ctx, 0);
  }
  void raw_reset_values() {
    for (auto& v : vars) v.raw_store(0);
  }
};

// Thread 0 alternates batches of exactly kStoreBatchCap stores (one point)
// and kStoreBatchCap + 1 stores (one point per store); the other threads
// read the objects. If replay counted a batch's points differently from the
// record side, thread 0's logged responses would replay at other stores and
// the readers' checksums would diverge.
template <typename Api>
std::uint64_t batch_cap_body(Api& api, BatchCapData& d, ThreadId tid) {
  constexpr std::uint64_t kIters = 3000;
  std::uint64_t checksum = 0;
  TrackedVar<std::uint64_t>* ptrs[BatchCapData::kN];
  std::uint64_t vals[BatchCapData::kN];
  for (std::size_t j = 0; j < BatchCapData::kN; ++j) ptrs[j] = &d.vars[j];
  for (std::uint64_t i = 0; i < kIters; ++i) {
    if (tid == 0) {
      const std::size_t n = i % 2 == 0 ? kStoreBatchCap : kStoreBatchCap + 1;
      for (std::size_t j = 0; j < n; ++j) vals[j] = i * BatchCapData::kN + j;
      api.store_batch(ptrs, vals, n);
    } else {
      for (std::size_t j = i % 4; j < BatchCapData::kN; j += 8) {
        checksum = checksum * 0x100000001b3ULL + api.load(d.vars[j]);
      }
    }
    api.poll();
    if (i % 2 == 0) std::this_thread::yield();
  }
  return checksum;
}

TEST(RecordReplay, BatchesAtAndPastTheStoreBatchCapReplay) {
  constexpr int kThreads = 3;
  BatchCapData data;
  Runtime rt;
  DependenceRecorder recorder(rt);
  using Tracker = HybridTracker<false, DependenceRecorder>;
  Tracker tracker(rt, HybridConfig{}, &recorder);
  const auto init = [&data](auto& api, ThreadId tid) {
    api.init_data(data, tid);
  };
  const auto body = [&data](auto& api, ThreadId tid) {
    return batch_cap_body(api, data, tid);
  };
  const WorkloadRunResult recorded = run_threads(
      kThreads, [&](ThreadId) { return DirectApi<Tracker>(rt, tracker, &recorder); },
      init, body);
  const Recording recording = recorder.take_recording(kThreads);
  ASSERT_GT(recording.total_edges(), 0u);

  Replayer replayer(recording);
  const WorkloadRunResult replayed = run_threads(
      kThreads, [&](ThreadId) { return ReplayApi(replayer); }, init, body);
  EXPECT_EQ(recorded.checksums, replayed.checksums);
}

// Delays each thread's registration by its distance from the last tid, so
// a registry that handed out ids in arrival order would reverse them.
template <typename Tracker>
class LateLowTidsApi : public DirectApi<Tracker> {
 public:
  LateLowTidsApi(Runtime& rt, Tracker& tracker, DependenceRecorder* rec,
                 std::vector<ThreadId>* ids)
      : DirectApi<Tracker>(rt, tracker, rec), ids_(ids) {}
  void begin_thread(ThreadId tid) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        5 * static_cast<int>(ids_->size() - tid)));
    DirectApi<Tracker>::begin_thread(tid);
    (*ids_)[tid] = this->context().id;
  }

 private:
  std::vector<ThreadId>* ids_;
};

// Logs are indexed by runtime id and replayed by workload tid; threads that
// start out of order must still record under their own tid, or replay runs
// each thread against another thread's log.
TEST(RecordReplay, OutOfOrderThreadStartsStillReplay) {
  const WorkloadConfig cfg =
      make_config(RecordReplayCase{"late_low_tids", 2'000, 1'000, 500, 5});
  WorkloadData data(cfg);
  Runtime rt;
  DependenceRecorder recorder(rt);
  using Tracker = HybridTracker<false, DependenceRecorder>;
  Tracker tracker(rt, HybridConfig{}, &recorder);
  std::vector<ThreadId> ids(static_cast<std::size_t>(cfg.threads), kNoThread);
  const WorkloadRunResult recorded = run_workload(cfg, data, [&](ThreadId) {
    return LateLowTidsApi<Tracker>(rt, tracker, &recorder, &ids);
  });
  for (std::size_t t = 0; t < ids.size(); ++t) {
    ASSERT_EQ(ids[t], static_cast<ThreadId>(t))
        << "thread registered out of tid order";
  }

  const Recording recording =
      recorder.take_recording(static_cast<ThreadId>(cfg.threads));
  Replayer replayer(recording);
  const WorkloadRunResult replayed = run_workload(
      cfg, data, [&](ThreadId) { return ReplayApi(replayer); });
  EXPECT_EQ(recorded.checksums, replayed.checksums);
}

}  // namespace
}  // namespace ht
