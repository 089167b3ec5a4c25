// Optimistic tracking (paper §2.2; Octet [11]): no synchronization at all on
// the fast path, an atomic operation for upgrading transitions, a memory
// fence for RdSh fence transitions, and full inter-thread coordination for
// conflicting transitions (Fig 1).
//
// Hybrid tracking's optimistic states are Octet's states, so optimistic
// tracking is hybrid tracking at an infinite cutoff (Fig 7): no object ever
// goes pessimistic, so the lock buffer stays empty and threads need no flush
// hook. Everything else — fast paths, slow paths, coordination, batched
// stores, seizure landings, the explicit-conflict census — is HybridTracker's
// (DESIGN.md §2.1).
#pragma once

#include "tracking/hybrid_tracker.hpp"

namespace ht {

template <bool kStats = false, typename Sink = NullSink>
class OptimisticTracker : public HybridTracker<kStats, Sink> {
 public:
  static constexpr const char* kName = "optimistic";

  explicit OptimisticTracker(Runtime& rt, Sink* sink = nullptr)
      : HybridTracker<kStats, Sink>(
            rt, HybridConfig{PolicyConfig::infinite(), WrExReadMode::kFull},
            sink) {}

  // Nothing is ever locked, so PSROs pay no flush hook.
  void attach_thread(ThreadContext&) {}
};

}  // namespace ht
