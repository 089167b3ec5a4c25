// Google-benchmark micro-operation suite: per-operation costs of the
// building blocks — tracker fast paths, state-word encode/decode, profile
// updates, lock-buffer flushes — complementing costs_table's transition-level
// measurements with ns/op precision and automatic iteration control.
#include <benchmark/benchmark.h>

#include "metadata/state_word.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/ideal_tracker.hpp"
#include "tracking/null_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/pessimistic_tracker.hpp"
#include "tracking/tracked_var.hpp"

namespace ht {
namespace {

void BM_StateWordEncodeDecode(benchmark::State& state) {
  std::uint64_t acc = 0;
  ThreadId t = 0;
  for (auto _ : state) {
    const StateWord w = StateWord::rd_sh_rlock(static_cast<std::uint32_t>(acc),
                                               (t & 0xFF) + 1);
    acc += w.counter() + w.rdlock_count() + static_cast<int>(w.kind());
    ++t;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_StateWordEncodeDecode);

void BM_ProfileWordUpdate(benchmark::State& state) {
  AtomicProfile p;
  for (auto _ : state) {
    p.update([](ProfileWord w) { return w.with_pess_non_confl_inc(); });
  }
  benchmark::DoNotOptimize(p.load().raw());
}
BENCHMARK(BM_ProfileWordUpdate);

template <typename Tracker, typename... Args>
void bench_store_fast_path(benchmark::State& state, Args&&... args) {
  Runtime rt;
  Tracker tracker(rt, std::forward<Args>(args)...);
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    var.store(tracker, ctx, ++i);
  }
  benchmark::DoNotOptimize(var.raw_load());
}

void BM_StoreFastPath_Null(benchmark::State& s) {
  bench_store_fast_path<NullTracker>(s);
}
BENCHMARK(BM_StoreFastPath_Null);

void BM_StoreFastPath_Pessimistic(benchmark::State& s) {
  bench_store_fast_path<PessimisticTracker<>>(s);
}
BENCHMARK(BM_StoreFastPath_Pessimistic);

void BM_StoreFastPath_Optimistic(benchmark::State& s) {
  bench_store_fast_path<OptimisticTracker<>>(s);
}
BENCHMARK(BM_StoreFastPath_Optimistic);

void BM_StoreFastPath_Hybrid(benchmark::State& s) {
  bench_store_fast_path<HybridTracker<>>(s, HybridConfig{});
}
BENCHMARK(BM_StoreFastPath_Hybrid);

void BM_StoreFastPath_Ideal(benchmark::State& s) {
  bench_store_fast_path<IdealTracker<>>(s);
}
BENCHMARK(BM_StoreFastPath_Ideal);

// Pessimistic uncontended lock/unlock cycle in the hybrid model: one locked
// store plus the flush that unlocks it (the Tpess unit of §6.1).
void BM_HybridPessLockUnlockCycle(benchmark::State& state) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  var.meta().reset(StateWord::wr_ex_pess(ctx.id));
  std::uint64_t i = 0;
  for (auto _ : state) {
    var.store(tracker, ctx, ++i);
    tracker.flush(ctx);
  }
}
BENCHMARK(BM_HybridPessLockUnlockCycle);

// Reentrant pessimistic accesses: lock once, then hammer (no atomics).
void BM_HybridPessReentrantStore(benchmark::State& state) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  var.meta().reset(StateWord::wr_ex_pess(ctx.id));
  var.store(tracker, ctx, 1);  // acquire the write lock once
  std::uint64_t i = 0;
  for (auto _ : state) {
    var.store(tracker, ctx, ++i);
  }
  tracker.flush(ctx);
}
BENCHMARK(BM_HybridPessReentrantStore);

void BM_SafepointPollNoRequests(benchmark::State& state) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  for (auto _ : state) {
    rt.poll(ctx);
  }
}
BENCHMARK(BM_SafepointPollNoRequests);

void BM_PsroEmptyBuffer(benchmark::State& state) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  for (auto _ : state) {
    rt.psro(ctx);
  }
}
BENCHMARK(BM_PsroEmptyBuffer);

}  // namespace
}  // namespace ht

BENCHMARK_MAIN();
