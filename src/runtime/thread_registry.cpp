#include "runtime/thread_registry.hpp"

#include <atomic>

#include "common/assert.hpp"

namespace ht {

ThreadRegistry::ThreadRegistry(std::size_t max_threads)
    : slots_(max_threads) {
  HT_ASSERT(max_threads >= 1 && max_threads < kMaxThreads,
            "max_threads out of range for 12-bit tid encoding");
}

ThreadContext& ThreadRegistry::register_thread(Runtime* rt) {
  std::lock_guard<std::mutex> g(mu_);
  HT_ASSERT(next_id_ < slots_.size(), "thread registry full");
  slots_[next_id_] = std::make_unique<ThreadContext>();
  ThreadContext& ctx = *slots_[next_id_];
  ctx.reset(next_id_, rt);
  // Publish (slot pointer included): high_water readers use acquire on
  // next_id via the atomic below.
  next_id_published_.store(next_id_ + 1, std::memory_order_release);
  ++next_id_;
  live_.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

void ThreadRegistry::mark_exited(ThreadContext& ctx) {
  ctx.exited.store(true, std::memory_order_relaxed);
  live_.fetch_sub(1, std::memory_order_relaxed);
  // Park as blocked forever: implicit coordination always succeeds.
  std::uint64_t s = ctx.owner_side.status.load(std::memory_order_relaxed);
  if (ThreadStatus::is_quarantined(s)) return;  // already terminally parked
  HT_ASSERT(!ThreadStatus::is_blocked(s), "exiting thread already blocked");
  ctx.owner_side.status.store(s | ThreadStatus::kBlockedBit,
                              std::memory_order_release);
}

ThreadContext& ThreadRegistry::context(ThreadId id) {
  HT_ASSERT(id < next_id_published_.load(std::memory_order_acquire),
            "thread id not registered");
  return *slots_[id];
}

const ThreadContext& ThreadRegistry::context(ThreadId id) const {
  HT_ASSERT(id < next_id_published_.load(std::memory_order_acquire),
            "thread id not registered");
  return *slots_[id];
}

ThreadId ThreadRegistry::high_water() const {
  return next_id_published_.load(std::memory_order_acquire);
}

}  // namespace ht
