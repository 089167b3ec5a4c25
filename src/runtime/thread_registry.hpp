// Registry of tracked threads.
//
// The runtime assigns small dense thread ids so that state words can encode
// the owner in 12 bits and so "coordinate with every other thread" (the
// paper's conservative handling of RdSh conflicts, footnote 4) is an array
// scan. Slots are never deallocated during a run: a thread that exits flushes
// its state and parks its status as permanently BLOCKED, so late requesters
// always succeed with implicit coordination.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/thread_context.hpp"

namespace ht {

class ThreadRegistry {
 public:
  explicit ThreadRegistry(std::size_t max_threads = 64);

  // Registers the calling thread; returns its context. Thread-safe.
  ThreadContext& register_thread(Runtime* rt);

  // Marks the context's slot reusable-never: the thread has exited. The
  // caller must already have flushed (Runtime::unregister_thread does).
  void mark_exited(ThreadContext& ctx);

  ThreadContext& context(ThreadId id);
  const ThreadContext& context(ThreadId id) const;

  // Number of ids handed out so far (exited threads included).
  ThreadId high_water() const;

  // Registered threads that have not exited.
  ThreadId live() const { return live_.load(std::memory_order_relaxed); }

  std::size_t max_threads() const { return slots_.size(); }

 private:
  // A slot's context is built when its id is handed out.
  std::vector<std::unique_ptr<ThreadContext>> slots_;
  std::mutex mu_;
  ThreadId next_id_ = 0;                            // guarded by mu_
  std::atomic<ThreadId> next_id_published_{0};      // lock-free reader view
  std::atomic<ThreadId> live_{0};
};

}  // namespace ht
