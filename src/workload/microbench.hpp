// The paper's Fig 8 stress microbenchmarks, translated verbatim:
//
//   syncInc:  for (i...) { synchronized (gLock) { gCounter++; } }
//   racyInc:  for (i...) { gCounter++; }
//
// Eight threads each increment one global counter. syncInc is the hybrid
// model's best case (high conflict, object-level data-race free: deferred
// unlocking eliminates nearly all coordination); racyInc is its worst case
// (every increment is a true data race).
#pragma once

#include <cstdint>

#include "runtime/sync.hpp"
#include "tracking/tracked_var.hpp"
#include "workload/workload.hpp"

namespace ht {

struct MicrobenchData {
  TrackedVar<std::uint64_t> counter;
  ProgramLock lock;

  template <typename Tracker>
  void init_for_thread(Tracker& tracker, ThreadContext& ctx) {
    if (ctx.id == 0) counter.init(tracker, ctx, 0);
  }
  void raw_reset_values() { counter.raw_store(0); }
};

// Increment loop bodies. The increment is a tracked load + tracked store —
// the same two accesses the JVM's gCounter++ performs — wrapped in a region
// so the identical body also runs under the RS enforcer.
// yield_every: scheduler-yield cadence in iterations (0 = never); see
// WorkloadConfig::yield_every_regions for why single-core interleaving needs
// this. The paper's 32-core machine interleaves the eight incrementing
// threads at instruction granularity; a small cadence approximates that.
template <typename Api>
std::uint64_t sync_inc_body(Api& api, MicrobenchData& d, std::uint64_t iters,
                            std::uint32_t yield_every = 16) {
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    api.lock(d.lock);
    api.region([&] {
      last = api.load(d.counter);
      api.store(d.counter, last + 1);
    });
    api.unlock(d.lock);
    api.poll();
    schedule::cadence_point(i, yield_every);
  }
  return last;
}

template <typename Api>
std::uint64_t racy_inc_body(Api& api, MicrobenchData& d, std::uint64_t iters,
                            std::uint32_t yield_every = 16) {
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    api.region([&] {
      last = api.load(d.counter);
      api.store(d.counter, last + 1);
    });
    api.poll();
    schedule::cadence_point(i, yield_every);
  }
  return last;
}

// Runs a microbenchmark over `threads` threads.
template <typename MakeApi, typename Body>
WorkloadRunResult run_microbench(int threads, MicrobenchData& d,
                                 MakeApi&& make_api, Body&& body) {
  return run_threads(
      threads, std::forward<MakeApi>(make_api),
      [&d](auto& api, ThreadId tid) { api.init_data(d, tid); },
      std::forward<Body>(body));
}

}  // namespace ht
