#include "runtime/thread_registry.hpp"

#include <utility>

#include "common/assert.hpp"

namespace ht {

ThreadRegistry::ThreadRegistry(std::size_t max_threads)
    : owned_(max_threads),
      slots_(std::make_unique<std::atomic<ThreadContext*>[]>(max_threads)) {
  HT_ASSERT(max_threads >= 1 && max_threads < kMaxThreads,
            "max_threads out of range for 12-bit tid encoding");
}

ThreadContext& ThreadRegistry::register_thread(Runtime* rt, ThreadId id) {
  std::lock_guard<std::mutex> g(mu_);
  if (id == kNoThread) {
    id = 0;
    while (id < owned_.size() && owned_[id] != nullptr) ++id;
  }
  HT_ASSERT(id < owned_.size(), "thread registry full");
  HT_ASSERT(owned_[id] == nullptr, "thread slot already claimed");
  owned_[id] = std::make_unique<ThreadContext>();
  ThreadContext& ctx = *owned_[id];
  ctx.reset(id, rt);
  slots_[id].store(&ctx, std::memory_order_release);
  if (id >= high_water_.load(std::memory_order_relaxed)) {
    high_water_.store(id + 1, std::memory_order_release);
  }
  live_.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

void ThreadRegistry::mark_exited(ThreadContext& ctx) {
  ctx.liveness.exited.store(true, std::memory_order_relaxed);
  live_.fetch_sub(1, std::memory_order_relaxed);
  // Park as blocked forever: implicit coordination always succeeds.
  std::uint64_t s = ctx.owner_side.status.load(std::memory_order_relaxed);
  if (ThreadStatus::is_quarantined(s)) return;  // already terminally parked
  HT_ASSERT(!ThreadStatus::is_blocked(s), "exiting thread already blocked");
  ctx.owner_side.status.store(s | ThreadStatus::kBlockedBit,
                              std::memory_order_release);
}

ThreadContext& ThreadRegistry::context(ThreadId id) {
  return const_cast<ThreadContext&>(std::as_const(*this).context(id));
}

const ThreadContext& ThreadRegistry::context(ThreadId id) const {
  HT_ASSERT(id < max_threads(), "thread id out of range");
  const ThreadContext* ctx = slots_[id].load(std::memory_order_acquire);
  HT_ASSERT(ctx != nullptr, "thread id not registered");
  return *ctx;
}

}  // namespace ht
