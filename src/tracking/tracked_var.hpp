// Tracked shared memory: the C++ stand-in for the paper's JIT-inserted
// instrumentation barriers (DESIGN.md substitution 1).
//
// Every load/store runs the tracker's instrumentation before (and, for the
// pessimistic tracker, after) the program access, giving the same
// instrumentation–access atomicity the VM barriers provide. The payload
// lives in a std::atomic accessed with relaxed ordering so that *program*
// data races — which the trackers must handle soundly — are expressible
// without C++ undefined behavior; ordering comes from the trackers, exactly
// as in the paper.
#pragma once

#include <atomic>
#include <type_traits>

#include "enforcer/region.hpp"
#include "metadata/object_meta.hpp"
#include "runtime/thread_context.hpp"

namespace ht {

template <typename T>
class TrackedVar {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "tracked payloads must fit the undo log's 64-bit entries");

 public:
  TrackedVar() : value_(T{}) {}
  TrackedVar(const TrackedVar&) = delete;
  TrackedVar& operator=(const TrackedVar&) = delete;

  // (Re)initialize under `tracker` as freshly allocated by `ctx`'s thread.
  template <typename Tracker>
  void init(Tracker& tracker, ThreadContext& ctx, T v = T{}) {
    meta_.reset(tracker.initial_state(ctx));
    value_.store(v, std::memory_order_relaxed);
  }

  template <typename Tracker>
  T load(Tracker& tracker, ThreadContext& ctx) {
    ++ctx.point_index;
    auto tok = tracker.pre_load(ctx, meta_);
    const T v = value_.load(std::memory_order_relaxed);
    tracker.post_load(ctx, meta_, tok);
    return v;
  }

  template <typename Tracker>
  void store(Tracker& tracker, ThreadContext& ctx, T v) {
    ++ctx.point_index;
    auto tok = tracker.pre_store(ctx, meta_);
    if (ctx.undo_log != nullptr) {
      // Inside an SBRS region: log the old value for rollback. The tracker
      // has already secured write access, so the read cannot race.
      ctx.undo_log->push(&value_, bits_of(value_.load(std::memory_order_relaxed)),
                         &restore_bits);
    }
    value_.store(v, std::memory_order_relaxed);
    tracker.post_store(ctx, meta_, tok);
  }

  // Uninstrumented access: baseline harnesses and the replayer (replay runs
  // no tracking; ordering comes from replayed happens-before waits).
  T raw_load() const { return value_.load(std::memory_order_relaxed); }
  void raw_store(T v) { value_.store(v, std::memory_order_relaxed); }

  // Store to a slot whose write ownership was already secured at this
  // instrumentation point (batched store, DESIGN.md §13): undo logging and
  // the value write only — no point bump, no tracker call.
  void store_prepared(ThreadContext& ctx, T v) {
    if (ctx.undo_log != nullptr) {
      ctx.undo_log->push(&value_,
                         bits_of(value_.load(std::memory_order_relaxed)),
                         &restore_bits);
    }
    value_.store(v, std::memory_order_relaxed);
  }

  ObjectMeta& meta() { return meta_; }
  const ObjectMeta& meta() const { return meta_; }

 private:
  static std::uint64_t bits_of(T v) {
    std::uint64_t b = 0;
    __builtin_memcpy(&b, &v, sizeof(T));
    return b;
  }
  static void restore_bits(void* addr, std::uint64_t bits) {
    T v;
    __builtin_memcpy(&v, &bits, sizeof(T));
    static_cast<std::atomic<T>*>(addr)->store(v, std::memory_order_relaxed);
  }

  ObjectMeta meta_;
  std::atomic<T> value_;
};

// The most stores one batched point covers; a larger batch is one point per
// store. ReplayApi::store_batch reads the same cap, so replay points stay in
// step with recorded points.
inline constexpr std::size_t kStoreBatchCap = 32;

// Batched store (DESIGN.md §13): ONE instrumentation point covering all `n`
// stores. The tracker secures write ownership of every object before any
// value is written, so a tracker with a batched slow path folds the group's
// conflicting transitions into a single coordination round; trackers without
// one (pessimistic, null) degrade to per-access scalar stores, each its own
// point. Replay-sound because all edges recorded at the single point precede
// all `n` raw stores.
template <typename Tracker, typename T>
void store_batch(Tracker& tracker, ThreadContext& ctx,
                 TrackedVar<T>* const* vars, const T* values, std::size_t n) {
  if constexpr (requires(ObjectMeta* const* mm) {
                  tracker.pre_store_batch(ctx, mm, n);
                }) {
    if (n != 0 && n <= kStoreBatchCap) {
      ++ctx.point_index;
      ObjectMeta* metas[kStoreBatchCap];
      for (std::size_t i = 0; i < n; ++i) metas[i] = &vars[i]->meta();
      tracker.pre_store_batch(ctx, metas, n);
      for (std::size_t i = 0; i < n; ++i) {
        vars[i]->store_prepared(ctx, values[i]);
      }
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) vars[i]->store(tracker, ctx, values[i]);
}

// Array of tracked slots sharing one metadata granularity choice: the paper
// tracks whole objects ("the term 'object' refers to any unit of shared
// memory"), and Jikes RVM gives arrays a single header — so the default
// array form uses one ObjectMeta per element block of `kBlock` elements,
// with kBlock=1 meaning per-element metadata.
template <typename T>
class TrackedArray {
 public:
  explicit TrackedArray(std::size_t n) : vars_(n) {}

  template <typename Tracker>
  void init_all(Tracker& tracker, ThreadContext& ctx, T v = T{}) {
    for (auto& var : vars_) var.init(tracker, ctx, v);
  }

  std::size_t size() const { return vars_.size(); }
  TrackedVar<T>& operator[](std::size_t i) { return vars_[i]; }
  const TrackedVar<T>& operator[](std::size_t i) const { return vars_[i]; }

 private:
  std::vector<TrackedVar<T>> vars_;
};

}  // namespace ht
