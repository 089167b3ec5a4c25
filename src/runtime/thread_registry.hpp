// Registry of tracked threads.
//
// The runtime assigns small dense thread ids so that state words can encode
// the owner in 12 bits and so "coordinate with every other thread" (the
// paper's conservative handling of RdSh conflicts, footnote 4) is an array
// scan. A harness that knows its thread's identity (a workload tid, an
// explorer slot) claims exactly that slot, so the runtime id, the recorder's
// log index and the replayer's thread are one number (DESIGN.md §4.4).
// Slots may be claimed in any order: while threads start, a slot below
// high_water() can still be unclaimed, and scans skip it. Slots are never
// deallocated during a run: a thread that exits flushes its state and parks
// its status as permanently BLOCKED, so late requesters always succeed with
// implicit coordination.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/thread_context.hpp"

namespace ht {

class ThreadRegistry {
 public:
  explicit ThreadRegistry(std::size_t max_threads = 64);

  // Registers the calling thread in slot `id`, or in the lowest free slot
  // when `id` is kNoThread; returns its context. Claiming a slot that is
  // taken is a fatal error. Thread-safe.
  ThreadContext& register_thread(Runtime* rt, ThreadId id);

  // Marks the context's slot reusable-never: the thread has exited. The
  // caller must already have flushed (Runtime::unregister_thread does).
  void mark_exited(ThreadContext& ctx);

  // The context in slot `id`, which must be claimed.
  ThreadContext& context(ThreadId id);
  const ThreadContext& context(ThreadId id) const;

  // Whether slot `id` has been claimed (exited threads included).
  bool claimed(ThreadId id) const {
    return slots_[id].load(std::memory_order_acquire) != nullptr;
  }

  // One past the highest claimed slot (exited threads included).
  ThreadId high_water() const {
    return high_water_.load(std::memory_order_acquire);
  }

  // Registered threads that have not exited.
  ThreadId live() const { return live_.load(std::memory_order_relaxed); }

  std::size_t max_threads() const { return owned_.size(); }

 private:
  // A slot's context is built when the slot is claimed, then published with
  // a release store that context()/claimed() read with acquire.
  std::vector<std::unique_ptr<ThreadContext>> owned_;  // elements: mu_
  std::unique_ptr<std::atomic<ThreadContext*>[]> slots_;
  std::mutex mu_;
  std::atomic<ThreadId> high_water_{0};
  std::atomic<ThreadId> live_{0};
};

}  // namespace ht
