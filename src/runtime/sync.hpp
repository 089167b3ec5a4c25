// Program synchronization primitives visible to workloads.
//
// These model the *program's* synchronization (Java monitors in the paper),
// as opposed to the synchronization the trackers add internally. What matters
// to the hybrid model is their interaction with deferred unlocking:
//   * releasing a lock / passing a barrier / forking a thread is a PSRO —
//     the lock buffer flushes and the release counter bumps (§3.1), and
//   * blocking while acquiring is a blocking safe point — the thread parks
//     BLOCKED so that other threads coordinate with it implicitly (§2.2).
// Both primitives carry explicit TSan acquire/release annotations (the
// HT_TSAN_* macros from common/spin.hpp): the std::mutex under each already
// gives TSan a happens-before edge, but annotating the primitive itself pins
// the edge to the object the *program* synchronizes on, so sanitize-tier
// reports stay correct if the implementation moves off std::mutex.
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/spin.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_context.hpp"

namespace ht {

class ProgramLock {
 public:
  ProgramLock() = default;
  ProgramLock(const ProgramLock&) = delete;
  ProgramLock& operator=(const ProgramLock&) = delete;

  void acquire(ThreadContext& ctx);
  void release(ThreadContext& ctx);

  // Raw unlock without runtime involvement, for the schedule explorer's
  // abort path: a cancelled run unwinds past the program's own release
  // sites, and the (still-locked) mutex must be released by the holding
  // thread before the next run's fresh world is built. Never part of a
  // normal execution.
  void abandon();

  // RAII critical section. A quarantined thread parks at the release PSRO
  // by throwing ThreadQuarantined, which propagates unless the scope is
  // already unwinding (a second exception would terminate); release frees
  // the mutex either way.
  class Scope {
   public:
    Scope(ProgramLock& l, ThreadContext& ctx) : lock_(l), ctx_(ctx) {
      lock_.acquire(ctx_);
    }
    ~Scope() noexcept(false) {
      try {
        lock_.release(ctx_);
      } catch (const ThreadQuarantined&) {
        if (std::uncaught_exceptions() == unwinding_) throw;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ProgramLock& lock_;
    ThreadContext& ctx_;
    const int unwinding_ = std::uncaught_exceptions();
  };

 private:
  std::mutex mu_;
};

// All-thread rendezvous; arrival releases (PSRO), waiting blocks (implicit
// coordination target), departure resumes.
class ProgramBarrier {
 public:
  explicit ProgramBarrier(int parties);

  void arrive_and_wait(ThreadContext& ctx);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace ht
