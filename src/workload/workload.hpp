// Synthetic workloads standing in for the paper's DaCapo / SPECjbb
// benchmarks (DESIGN.md substitution 3).
//
// A workload is a set of threads executing statically-bounded regions over
// four object populations:
//   private     — thread-local objects (fast-path, same-state accesses)
//   readshare   — read-mostly objects that settle into RdSh states
//   sharedgen   — general shared objects accessed under per-object locks
//   hot         — a small set of high-conflict objects, accessed either
//                 well-synchronized (hotsync: the hybrid model's sweet spot,
//                 like the paper's syncInc) or racily (hotracy: object-level
//                 data races, like avrora9/pjbb2005), or under one global
//                 lock (hotglobal: conflicts resolved by implicit
//                 coordination because owners are usually blocked, like
//                 hsqldb6).
//
// Region kinds are drawn per-mille from the config; everything is
// deterministic per (seed, thread id) so the replayer can re-execute the
// identical per-thread instruction streams (DESIGN.md §4.4).
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/cycle_timer.hpp"
#include "common/xorshift.hpp"
#include "runtime/sync.hpp"
#include "schedule/schedule_point.hpp"
#include "tracking/tracked_var.hpp"
#include "tracking/transition_stats.hpp"

namespace ht {

struct WorkloadConfig {
  const char* name = "unnamed";
  int threads = 8;
  std::uint64_t ops_per_thread = 100'000;  // tracked accesses per thread
  std::uint32_t accesses_per_region = 4;

  // Region-kind weights, per 100 000 regions; the rest are private regions.
  // (Conflict rates in the paper's Table 2 span 1e-6..1e-2 of accesses, so
  // per-mille granularity is too coarse.)
  std::uint32_t readshare_p100k = 10'000;
  std::uint32_t sharedgen_p100k = 4'000;
  std::uint32_t hotsync_p100k = 0;    // hot object under its own lock
  std::uint32_t hotracy_p100k = 0;    // hot object, no lock (object-level race)
  std::uint32_t hotglobal_p100k = 0;  // hot object under one global lock
  std::uint32_t batchxfer_p100k = 0;  // batched store over a hot-object group
                                      // (one instrumentation point,
                                      // DESIGN.md §13)

  // Pool sizes.
  std::size_t private_objects = 512;  // per thread
  std::size_t general_objects = 512;
  std::size_t readshare_objects = 256;
  std::size_t hot_objects = 16;
  int locks = 64;

  // Write fractions (percent).
  std::uint32_t write_pct = 30;
  std::uint32_t readshare_write_pct = 2;

  std::uint64_t base_seed = 0x9e3779b9;

  // Yield to the scheduler every N regions (0 = never). On a multi-core host
  // the paper's threads run truly concurrently; on a single-core container a
  // thread would otherwise run whole quanta (or to completion) alone, so no
  // cross-thread conflicts would materialize against *running* owners.
  // Periodic yields interleave the threads at region granularity, restoring
  // the concurrency structure the paper's machine provides. The yield cost
  // is identical across trackers (it is part of the workload, outside
  // instrumentation), so overhead ratios remain comparable.
  std::uint32_t yield_every_regions = 64;

  std::uint64_t regions_per_thread() const {
    return ops_per_thread / accesses_per_region;
  }
};

inline constexpr std::uint32_t kMaxRegionAccesses = 16;

// The shared heap of a workload. Allocatable once and re-initialized per
// trial (metadata reset to the trial tracker's initial states, values to 0).
class WorkloadData {
 public:
  explicit WorkloadData(const WorkloadConfig& cfg);

  // Per-thread initialization, mirroring allocation in the paper's model:
  // each object starts owned by its allocating thread (§6.2), so workload
  // thread `tid` initializes its own private pool and thread 0 the shared
  // pools. Called by every thread before the start barrier. The pool is
  // chosen by `tid`, the index the thread body uses, not by `ctx.id`:
  // threads may register with the runtime in any order.
  template <typename Tracker>
  void init_for_thread(Tracker& tracker, ThreadContext& ctx, ThreadId tid) {
    if (tid < private_pools_.size()) {
      for (auto& v : *private_pools_[tid]) v.init(tracker, ctx, 0);
    }
    if (tid == 0) {
      for (auto& v : general_) v.init(tracker, ctx, 0);
      for (auto& v : readshare_) v.init(tracker, ctx, 0);
      for (auto& v : hot_) v.init(tracker, ctx, 0);
    }
  }

  // Whole-heap initialization from one thread (unit tests, single-threaded
  // uses).
  template <typename Tracker>
  void init_all(Tracker& tracker, ThreadContext& ctx) {
    for (auto& pool : private_pools_)
      for (auto& v : *pool) v.init(tracker, ctx, 0);
    for (auto& v : general_) v.init(tracker, ctx, 0);
    for (auto& v : readshare_) v.init(tracker, ctx, 0);
    for (auto& v : hot_) v.init(tracker, ctx, 0);
  }

  // Replay-side reset: values only, metadata untouched (replay runs no
  // tracking). Must produce the same initial values as init_all.
  void raw_reset_values();

  TrackedVar<std::uint64_t>& private_obj(ThreadId tid, std::size_t i) {
    return (*private_pools_[tid])[i % private_pools_[tid]->size()];
  }
  TrackedVar<std::uint64_t>& general(std::size_t i) {
    return general_[i % general_.size()];
  }
  TrackedVar<std::uint64_t>& readshare(std::size_t i) {
    return readshare_[i % readshare_.size()];
  }
  TrackedVar<std::uint64_t>& hot(std::size_t i) {
    return hot_[i % hot_.size()];
  }
  std::size_t hot_count() const { return hot_.size(); }
  std::size_t general_count() const { return general_.size(); }

  ProgramLock& lock(std::size_t i) { return *locks_[i % locks_.size()]; }
  ProgramLock& global_lock() { return *locks_[0]; }
  std::size_t lock_count() const { return locks_.size(); }

  // Census of optimistic conflicting transitions per hot/general object,
  // used by the Fig 6 limit study (reads each object's profile word).
  std::vector<std::uint32_t> per_object_conflict_counts() const;

  // Untimed warm-up: every thread reads the shared pools once, settling
  // first-touch ownership transfers (allocator -> readers -> RdSh) outside
  // the timed window. On this container an explicit coordination round trip
  // costs a multi-thread scheduling cycle (~0.5 ms), so the one-time
  // first-touch conflicts would otherwise dominate low-conflict profiles —
  // an artifact the paper's long runs amortize away. Deterministic per
  // thread, so the replayer re-executes it identically.
  template <typename Api>
  void warmup_shared(Api& api) {
    for (auto& v : readshare_) {
      (void)api.load(v);
      api.poll();
    }
    for (auto& v : general_) {
      (void)api.load(v);
      api.poll();
    }
    for (auto& v : hot_) {
      (void)api.load(v);
      api.poll();
    }
  }

  // Visits every object's metadata (tests: post-run invariant sweeps).
  template <typename Fn>
  void for_each_meta(Fn&& fn) {
    for (auto& pool : private_pools_)
      for (auto& v : *pool) fn(v.meta());
    for (auto& v : general_) fn(v.meta());
    for (auto& v : readshare_) fn(v.meta());
    for (auto& v : hot_) fn(v.meta());
  }

 private:
  std::vector<std::unique_ptr<std::vector<TrackedVar<std::uint64_t>>>>
      private_pools_;
  std::vector<TrackedVar<std::uint64_t>> general_;
  std::vector<TrackedVar<std::uint64_t>> readshare_;
  std::vector<TrackedVar<std::uint64_t>> hot_;
  std::vector<std::unique_ptr<ProgramLock>> locks_;
};

// ---------------------------------------------------------------------------
// Per-thread workload body. Api is one of the access APIs in apis.hpp
// (direct tracking, enforcer-wrapped, replay, baseline).
// ---------------------------------------------------------------------------

enum class RegionKind : std::uint8_t {
  kPrivate,
  kReadShare,
  kSharedGen,
  kHotSync,
  kHotRacy,
  kHotGlobal,
  kBatchXfer
};

struct RegionPlan {
  RegionKind kind;
  std::uint32_t accesses;
  // Per access: object selector and write flag + value.
  std::uint64_t obj_sel[kMaxRegionAccesses];
  bool is_write[kMaxRegionAccesses];
  std::uint64_t wr_val[kMaxRegionAccesses];
};

// Draws the next region's deterministic plan.
inline RegionPlan plan_region(Xoshiro256& rng, const WorkloadConfig& cfg) {
  RegionPlan p;
  const std::uint32_t dice =
      static_cast<std::uint32_t>(rng.next_below(100'000));
  std::uint32_t acc = cfg.readshare_p100k;
  if (dice < acc) {
    p.kind = RegionKind::kReadShare;
  } else if (dice < (acc += cfg.sharedgen_p100k)) {
    p.kind = RegionKind::kSharedGen;
  } else if (dice < (acc += cfg.hotsync_p100k)) {
    p.kind = RegionKind::kHotSync;
  } else if (dice < (acc += cfg.hotracy_p100k)) {
    p.kind = RegionKind::kHotRacy;
  } else if (dice < (acc += cfg.hotglobal_p100k)) {
    p.kind = RegionKind::kHotGlobal;
  } else if (dice < (acc += cfg.batchxfer_p100k)) {
    p.kind = RegionKind::kBatchXfer;
  } else {
    p.kind = RegionKind::kPrivate;
  }
  p.accesses = cfg.accesses_per_region < kMaxRegionAccesses
                   ? cfg.accesses_per_region
                   : kMaxRegionAccesses;
  // Hot / sharedgen regions focus on one object (a critical section over one
  // record); other kinds spread across their pool.
  const std::uint64_t focus = rng.next();
  const std::uint32_t wpct =
      p.kind == RegionKind::kReadShare ? cfg.readshare_write_pct : cfg.write_pct;
  for (std::uint32_t i = 0; i < p.accesses; ++i) {
    const bool focused = p.kind == RegionKind::kSharedGen ||
                         p.kind == RegionKind::kHotSync ||
                         p.kind == RegionKind::kHotRacy ||
                         p.kind == RegionKind::kHotGlobal;
    // BatchXfer writes a contiguous hot-object group (the objects a prior
    // writer owns together), so its one batched point can cover the group
    // with a single coordination round.
    p.obj_sel[i] = p.kind == RegionKind::kBatchXfer ? focus + i
                   : focused                        ? focus
                                                    : rng.next();
    p.is_write[i] =
        p.kind == RegionKind::kBatchXfer || rng.chance(wpct, 100);
    p.wr_val[i] = rng.next();
  }
  return p;
}

// Executes one thread's whole workload; returns a checksum over every loaded
// value (the record/replay value-determinism witness).
template <typename Api>
std::uint64_t workload_thread_body(Api& api, const WorkloadConfig& cfg,
                                   WorkloadData& data, ThreadId tid) {
  Xoshiro256 rng(cfg.base_seed * 1000003ULL + tid);
  std::uint64_t checksum = 0;
  std::uint64_t vals[kMaxRegionAccesses];
  const std::uint64_t regions = cfg.regions_per_thread();

  for (std::uint64_t r = 0; r < regions; ++r) {
    const RegionPlan p = plan_region(rng, cfg);

    ProgramLock* lock = nullptr;
    switch (p.kind) {
      case RegionKind::kSharedGen:
        lock = &data.lock(p.obj_sel[0] % data.general_count());
        break;
      case RegionKind::kHotSync:
        lock = &data.lock(p.obj_sel[0] % data.hot_count());
        break;
      case RegionKind::kHotGlobal:
        lock = &data.global_lock();
        break;
      default:
        break;
    }

    if (lock != nullptr) api.lock(*lock);
    // A quarantined thread parks by throwing out of a safe point inside the
    // region; the program mutex it holds must not go down with it (tracker
    // state is seized by the sweep, but no runtime can reclaim an OS mutex).
    // Raw abandon, not api.unlock: release(ctx) runs safe-point bookkeeping
    // this thread may no longer perform.
    try {
    // The region body is re-executable: all inputs come from the plan, all
    // loaded values land in `vals` (overwritten on restart), and all stores
    // are tracked (undone by the enforcer on restart).
    api.region([&] {
      if (p.kind == RegionKind::kBatchXfer) {
        // One batched instrumentation point over the whole hot-object group
        // (DESIGN.md §13): the tracker secures all objects with at most one
        // coordination round before any value is written.
        TrackedVar<std::uint64_t>* objs[kMaxRegionAccesses];
        for (std::uint32_t i = 0; i < p.accesses; ++i) {
          objs[i] = &data.hot(p.obj_sel[i]);
          vals[i] = 0;
        }
        api.store_batch(objs, p.wr_val, p.accesses);
        return;
      }
      for (std::uint32_t i = 0; i < p.accesses; ++i) {
        TrackedVar<std::uint64_t>* obj;
        switch (p.kind) {
          case RegionKind::kPrivate:
            obj = &data.private_obj(tid, p.obj_sel[i]);
            break;
          case RegionKind::kReadShare:
            obj = &data.readshare(p.obj_sel[i]);
            break;
          case RegionKind::kSharedGen:
            obj = &data.general(p.obj_sel[i]);
            break;
          default:
            obj = &data.hot(p.obj_sel[i]);
            break;
        }
        if (p.is_write[i]) {
          api.store(*obj, p.wr_val[i]);
          vals[i] = 0;
        } else {
          vals[i] = api.load(*obj);
        }
      }
    });
    } catch (const ThreadQuarantined&) {
      if (lock != nullptr) lock->abandon();
      throw;
    }
    if (lock != nullptr) api.unlock(*lock);

    for (std::uint32_t i = 0; i < p.accesses; ++i) {
      checksum = checksum * 0x100000001b3ULL + vals[i];
    }
    api.poll();
    schedule::cadence_point(r, cfg.yield_every_regions);
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// Thread driver: spawns cfg-many threads, runs `body(api, tid)` in each, and
// returns wall time plus merged statistics. Thread spawn/join act as the
// fork/join PSROs the paper lists — the APIs handle the release semantics in
// begin_thread/end_thread.
// ---------------------------------------------------------------------------

struct WorkloadRunResult {
  double seconds = 0;
  // The same timed window in raw cycle_timer ticks (0 when the counter is
  // unavailable). Bench --json reports archive it next to `seconds` so trace
  // timestamps (also in ticks) can be related to trial wall times without
  // trusting the cycles-per-second calibration.
  std::uint64_t cycles = 0;
  // Spread between the first and last worker finishing its body: large skew
  // means the tail thread ran partly alone and the trial measured less
  // contention than configured.
  double join_skew_seconds = 0;
  TransitionStats stats;
  // The unmerged per-thread counters behind `stats` (index = ThreadId).
  // Bench --json reports export the per-thread fast-path hit counts from
  // here; skew across threads is itself a signal (a thread with few fast-path
  // hits has objects that keep changing owners).
  std::vector<TransitionStats> per_thread_stats;
  std::vector<std::uint64_t> checksums;
  // Threads that ended by ThreadQuarantined instead of completing their body
  // (DESIGN.md §11.2). Their checksum slot is whatever they had accumulated
  // when the lease blow landed; value-determinism checks only apply to runs
  // with quarantined == 0.
  int quarantined = 0;
};

// `init(api, tid)` runs on every thread after registration but before the
// start barrier, so the heap is initialized (each pool owned by its
// allocating thread) before any thread enters the timed window.
template <typename MakeApi, typename Init, typename Warmup, typename Body>
WorkloadRunResult run_threads(int nthreads, MakeApi&& make_api, Init&& init,
                              Warmup&& warmup, Body&& body) {
  WorkloadRunResult result;
  result.checksums.assign(static_cast<std::size_t>(nthreads), 0);
  std::vector<TransitionStats> stats(static_cast<std::size_t>(nthreads));
  std::vector<std::chrono::steady_clock::time_point> finished(
      static_cast<std::size_t>(nthreads));

  // Two rendezvous: init (single-owner setup) must complete everywhere
  // before warm-up touches shared data, and warm-up must complete before
  // the timed window opens.
  std::barrier init_barrier(nthreads);
  std::barrier start_barrier(nthreads + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));

  std::atomic<int> quarantined_total{0};
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      const ThreadId tid = static_cast<ThreadId>(t);
      auto api = make_api(tid);
      api.begin_thread(tid);
      // Quarantine tolerance (DESIGN.md §11.2): a thread whose lease was
      // revoked ends its run at the throw, but it must still *arrive* at
      // both barriers or every healthy thread deadlocks. It arrives without
      // begin_wait/end_wait — those are runtime safe points and would
      // re-park it — which is safe precisely because it is quarantined:
      // coordination against it succeeds implicitly while it waits.
      bool quarantined = false;
      const auto step = [&](auto&& fn) {
        if (quarantined) return;
        try {
          fn();
        } catch (const ThreadQuarantined&) {
          quarantined = true;
        }
      };
      step([&] { init(api, tid); });
      step([&] { api.begin_wait(); });
      init_barrier.arrive_and_wait();
      step([&] { api.end_wait(); });
      step([&] { warmup(api, tid); });
      api.reset_stats();  // report steady-state statistics, not warm-up
      step([&] { api.begin_wait(); });
      start_barrier.arrive_and_wait();
      step([&] { api.end_wait(); });
      step([&] {
        result.checksums[static_cast<std::size_t>(t)] = body(api, tid);
      });
      finished[static_cast<std::size_t>(t)] = std::chrono::steady_clock::now();
      stats[static_cast<std::size_t>(t)] = api.take_stats();
      // A quarantined thread stays registered (implicit coordination must
      // keep succeeding against its terminal status); only healthy threads
      // run the exit-flush PSRO. end_thread itself may discover a quarantine
      // that landed after the body finished.
      step([&] { api.end_thread(); });
      if (quarantined) quarantined_total.fetch_add(1, std::memory_order_relaxed);
    });
  }

  start_barrier.arrive_and_wait();
  WallTimer timer;
  const std::uint64_t cycles0 = read_cycles();
  for (auto& th : threads) th.join();
  result.cycles = read_cycles() - cycles0;
  result.seconds = timer.elapsed_seconds();
  result.quarantined = quarantined_total.load(std::memory_order_relaxed);
  for (const auto& s : stats) result.stats += s;
  result.per_thread_stats = std::move(stats);
  auto [first, last] = std::minmax_element(finished.begin(), finished.end());
  result.join_skew_seconds =
      std::chrono::duration<double>(*last - *first).count();
  return result;
}

// Back-compat overload without a warm-up phase.
template <typename MakeApi, typename Init, typename Body>
WorkloadRunResult run_threads(int nthreads, MakeApi&& make_api, Init&& init,
                              Body&& body) {
  return run_threads(nthreads, std::forward<MakeApi>(make_api),
                     std::forward<Init>(init), [](auto&, ThreadId) {},
                     std::forward<Body>(body));
}

// Convenience wrapper for the standard workload body.
template <typename MakeApi>
WorkloadRunResult run_workload(const WorkloadConfig& cfg, WorkloadData& data,
                               MakeApi&& make_api) {
  return run_threads(
      cfg.threads, std::forward<MakeApi>(make_api),
      [&data](auto& api, ThreadId tid) { api.init_data(data, tid); },
      [&data](auto& api, ThreadId) { data.warmup_shared(api); },
      [&cfg, &data](auto& api, ThreadId tid) {
        return workload_thread_body(api, cfg, data, tid);
      });
}

}  // namespace ht
