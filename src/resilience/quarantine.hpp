// Standard wiring for the runtime's on_quarantine hook (DESIGN.md §11.2).
//
// Runtime::quarantine_thread flips the victim's status and releases its
// waiters, but the runtime does not know which objects exist or where the
// recorder lives; QuarantineSweep closes that loop. Bound into
// RuntimeConfig::resilience.on_quarantine, it runs on the quarantining
// thread immediately after the status flip and
//   1. seizes every state word the victim still owns (the enumerator the
//      embedder provides walks the object population),
//   2. seals the victim's dependence-recorder log at its last complete
//      entry so degraded-run recordings stay loadable and lint-clean.
//
// Multiple victims can be quarantined concurrently by different
// coordinators, so the counters are atomic; the enumerator itself must be
// safe for concurrent read-only traversal (both WorkloadData and the
// explorer worlds are — fixed object arrays).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "resilience/seizure.hpp"

namespace ht::resilience {

class QuarantineSweep {
 public:
  // Calls the argument once per object metadata in the population.
  using Enumerate =
      std::function<void(const std::function<void(ObjectMeta&)>&)>;

  QuarantineSweep() = default;
  explicit QuarantineSweep(Enumerate e) : enumerate_(std::move(e)) {}

  void set_enumerator(Enumerate e) { enumerate_ = std::move(e); }
  void set_seal(std::function<void(ThreadId)> s) { seal_ = std::move(s); }
  // Optimistic tracking never goes pessimistic; abandoned Ints must
  // land optimistic there (see seizure_landing).
  void set_land_pessimistic(bool p) { land_pessimistic_ = p; }

  // The hook body. Bind by reference:
  //   rc.resilience.on_quarantine = std::ref(sweep);
  void operator()(ThreadContext& self, ThreadContext& victim);

  std::uint64_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  std::uint64_t objects_seized() const {
    return objects_seized_.load(std::memory_order_relaxed);
  }

 private:
  Enumerate enumerate_;
  std::function<void(ThreadId)> seal_;
  bool land_pessimistic_ = true;
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> objects_seized_{0};
};

}  // namespace ht::resilience
