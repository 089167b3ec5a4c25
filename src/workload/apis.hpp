// Access APIs: the bridge between workload bodies and the runtime-support
// configurations. One workload body, compiled against:
//
//   DirectApi<Tracker>     — dependence tracking alone (Fig 7/8), and — with
//                            a DependenceRecorder sink attached — the
//                            recorder configurations (Fig 9a);
//   EnforcerApi<Tracker>   — region serializability enforcement (Fig 9b);
//   ReplayApi              — deterministic replay of a recording (no
//                            tracking, synchronization elided, §7.6);
//
// DirectApi<NullTracker> is the unmodified-runtime baseline every overhead
// figure divides by.
#pragma once

#include "enforcer/rs_enforcer.hpp"
#include "recorder/recorder.hpp"
#include "recorder/replayer.hpp"
#include "runtime/sync.hpp"
#include "workload/workload.hpp"

namespace ht {

template <typename Tracker>
class DirectApi {
 public:
  DirectApi(Runtime& rt, Tracker& tracker,
            DependenceRecorder* recorder = nullptr)
      : rt_(&rt), tracker_(&tracker), recorder_(recorder) {}

  // The thread registers as `tid`: the replayer runs workload thread tid
  // against log tid (DESIGN.md §4.4).
  void begin_thread(ThreadId tid) {
    ctx_ = &rt_->register_thread(tid);
    tracker_->attach_thread(*ctx_);
    if (recorder_ != nullptr) recorder_->attach_thread(*ctx_);
  }
  void end_thread() { rt_->unregister_thread(*ctx_); }

  template <typename Data>
  void init_data(Data& data, ThreadId tid) {
    HT_ASSERT(tid == ctx_->id, "init_data for another thread");
    data.init_for_thread(*tracker_, *ctx_);
  }

  std::uint64_t load(TrackedVar<std::uint64_t>& v) {
    return v.load(*tracker_, *ctx_);
  }
  void store(TrackedVar<std::uint64_t>& v, std::uint64_t x) {
    v.store(*tracker_, *ctx_, x);
  }
  // Batched store (DESIGN.md §13): one instrumentation point, one
  // coordination round for a single-owner conflicting group.
  void store_batch(TrackedVar<std::uint64_t>* const* vars,
                   const std::uint64_t* values, std::size_t n) {
    ht::store_batch(*tracker_, *ctx_, vars, values, n);
  }
  void lock(ProgramLock& l) { l.acquire(*ctx_); }
  void unlock(ProgramLock& l) { l.release(*ctx_); }
  void poll() { rt_->poll(*ctx_); }
  template <typename F>
  void region(F&& f) {
    f();
  }

  // Driver rendezvous (barriers between init/warmup/body phases) are
  // blocking safe points: a parked thread must remain an implicit
  // coordination target or other threads' warm-up conflicts deadlock.
  void begin_wait() { rt_->begin_blocking(*ctx_); }
  void end_wait() { rt_->end_blocking(*ctx_); }

  TransitionStats take_stats() const { return ctx_->stats; }
  void reset_stats() { ctx_->stats = TransitionStats{}; }
  ThreadContext& context() { return *ctx_; }

 private:
  Runtime* rt_;
  Tracker* tracker_;
  DependenceRecorder* recorder_;
  ThreadContext* ctx_ = nullptr;
};

template <typename Tracker>
class EnforcerApi {
 public:
  EnforcerApi(Runtime& rt, RsEnforcer<Tracker>& enforcer)
      : rt_(&rt), enforcer_(&enforcer) {}

  void begin_thread(ThreadId tid) {
    ctx_ = &rt_->register_thread(tid);
    enforcer_->attach_thread(*ctx_);  // tracker hooks + region-abort hook
  }
  void end_thread() { rt_->unregister_thread(*ctx_); }

  template <typename Data>
  void init_data(Data& data, ThreadId tid) {
    HT_ASSERT(tid == ctx_->id, "init_data for another thread");
    data.init_for_thread(enforcer_->tracker(), *ctx_);
  }

  std::uint64_t load(TrackedVar<std::uint64_t>& v) {
    return v.load(enforcer_->tracker(), *ctx_);
  }
  void store(TrackedVar<std::uint64_t>& v, std::uint64_t x) {
    v.store(enforcer_->tracker(), *ctx_, x);
  }
  void store_batch(TrackedVar<std::uint64_t>* const* vars,
                   const std::uint64_t* values, std::size_t n) {
    ht::store_batch(enforcer_->tracker(), *ctx_, vars, values, n);
  }
  void lock(ProgramLock& l) { l.acquire(*ctx_); }
  void unlock(ProgramLock& l) { l.release(*ctx_); }
  void poll() { rt_->poll(*ctx_); }
  template <typename F>
  void region(F&& f) {
    enforcer_->run_region(*ctx_, std::forward<F>(f));
  }

  void begin_wait() { rt_->begin_blocking(*ctx_); }
  void end_wait() { rt_->end_blocking(*ctx_); }

  TransitionStats take_stats() const { return ctx_->stats; }
  void reset_stats() { ctx_->stats = TransitionStats{}; }
  ThreadContext& context() { return *ctx_; }

 private:
  Runtime* rt_;
  RsEnforcer<Tracker>* enforcer_;
  ThreadContext* ctx_ = nullptr;
};

// Replays a recording: every instrumentation point advances the replay
// cursor (applying logged bumps and blocking on logged edges), then performs
// the raw access. Locks are elided — replayed dependences already order
// everything the locks ordered.
class ReplayApi {
 public:
  explicit ReplayApi(Replayer& rp) : rp_(&rp) {}

  void begin_thread(ThreadId tid) { tid_ = tid; }
  void end_thread() { rp_->at_thread_end(tid_); }

  template <typename Data>
  void init_data(Data& data, ThreadId) {
    if (tid_ == 0) data.raw_reset_values();
  }

  std::uint64_t load(TrackedVar<std::uint64_t>& v) {
    rp_->at_point(tid_);
    return v.raw_load();
  }
  void store(TrackedVar<std::uint64_t>& v, std::uint64_t x) {
    rp_->at_point(tid_);
    v.raw_store(x);
  }
  // A recorded batch was one instrumentation point covering all n stores;
  // its edges must be honored before any of the raw stores happen. Mirrors
  // ht::store_batch's point accounting for batch-capable trackers (the ones
  // recordings are made with): oversized batches fell back to one point per
  // store on the record side.
  void store_batch(TrackedVar<std::uint64_t>* const* vars,
                   const std::uint64_t* values, std::size_t n) {
    if (n == 0) return;
    if (n > kStoreBatchCap) {
      for (std::size_t i = 0; i < n; ++i) {
        rp_->at_point(tid_);
        vars[i]->raw_store(values[i]);
      }
      return;
    }
    rp_->at_point(tid_);
    for (std::size_t i = 0; i < n; ++i) vars[i]->raw_store(values[i]);
  }
  // Lock acquire was one instrumentation point; release was a PSRO.
  void lock(ProgramLock&) { rp_->at_point(tid_); }
  void unlock(ProgramLock&) { rp_->at_psro(tid_); }
  void poll() { rp_->at_point(tid_); }
  template <typename F>
  void region(F&& f) {
    f();
  }

  // Replay threads synchronize through replayed release counters, not
  // runtime status, so rendezvous need no blocking announcement.
  void begin_wait() {}
  void end_wait() {}

  TransitionStats take_stats() const { return TransitionStats{}; }
  void reset_stats() {}

 private:
  Replayer* rp_;
  ThreadId tid_ = 0;
};

}  // namespace ht
