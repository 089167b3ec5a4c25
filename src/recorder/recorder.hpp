// The dependence recorder (paper §4): a sink that trackers feed happens-
// before edges into, plus the response-logging hook for nondeterministic
// release-counter bumps.
//
// Composing it with HybridTracker gives the hybrid recorder (§4.2);
// composing it with OptimisticTracker, which is HybridTracker at an infinite
// cutoff, gives the paper's optimistic recorder (§4.1, prior work [10]): no
// object goes pessimistic, so every cross-thread edge comes from a
// coordination round trip or a RdSh fan-out. Either way the same
// dependences are captured — the hybrid recorder merely captures
// pessimistic-transition edges from release counters instead of
// coordination round trips.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "common/cache_line.hpp"
#include "recorder/dependence_log.hpp"
#include "recorder/recording_io.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_context.hpp"
#include "telemetry/telemetry.hpp"

namespace ht {

class DependenceRecorder {
 public:
  static constexpr bool kActive = true;

  explicit DependenceRecorder(Runtime& rt)
      : logs_(rt.registry().max_threads()),
        sealed_(std::make_unique<std::atomic<bool>[]>(
            rt.registry().max_threads())),
        streamed_(rt.registry().max_threads(), 0) {}

  // --- sink interface (called by trackers) ------------------------------------
  void edge(ThreadContext& ctx, ThreadId src, std::uint64_t value) {
    if (sealed_[ctx.id].load(std::memory_order_relaxed)) return;
    logs_[ctx.id]->events.push_back(
        LogEvent{ctx.point_index, LogEventType::kEdge, src, value});
    HT_TELEM_EVENT(ctx, kDepEdge, value, src, 0);
  }

  // Conservative fan-out: one edge per other registered thread at its
  // current release counter (see HybridTracker's edge discipline note).
  // Unclaimed slots are skipped, like a thread registering after the scan.
  void edge_all_others(ThreadContext& ctx, Runtime& rt) {
    const ThreadId n = rt.registry().high_water();
    for (ThreadId t = 0; t < n; ++t) {
      if (t == ctx.id || !rt.registry().claimed(t)) continue;
      const auto& o = rt.registry().context(t);
      edge(ctx, t,
           o.owner_side.release_counter.load(std::memory_order_acquire));
    }
  }

  // --- thread hooks -------------------------------------------------------------
  // Install after the tracker's attach_thread; logs each nondeterministic
  // release-counter bump so replay can reproduce it, plus a kRegionEnd mark
  // at each deterministic bump (PSRO, thread exit) so offline analyses see
  // every region boundary. Both hooks run after the bump, so events are
  // stamped with the post-bump counter: the replayer ignores the stamps (it
  // re-issues nondeterministic bumps and skips region marks), but the
  // offline trace lint and the happens-before engine use them to order bumps
  // against dependence edges. A post-bump counter is always >= 1, and
  // validate_recording rejects a bump stamped 0.
  void attach_thread(ThreadContext& ctx) {
    ctx.resp_log_self = this;
    ctx.resp_log_fn = [](void* self, ThreadContext& c) {
      static_cast<DependenceRecorder*>(self)->log_bump(
          c, LogEventType::kResponse);
    };
    ctx.region_log_self = this;
    ctx.region_log_fn = [](void* self, ThreadContext& c) {
      static_cast<DependenceRecorder*>(self)->log_bump(
          c, LogEventType::kRegionEnd);
    };
  }

  // --- resilience hook (DESIGN.md §11.3) ----------------------------------------
  // Seals a quarantined thread's log: the recorded prefix is frozen (every
  // entry in it is complete, so the trace lint's invariants hold on it) and
  // any append a not-yet-parked victim still attempts is dropped. If a
  // streaming writer is attached, the victim's sealed log is flushed to disk
  // at a v2 chunk boundary immediately, so a later crash of the degraded run
  // cannot lose it. Runs on the quarantining thread; safe for concurrent
  // quarantines of different victims.
  void on_quarantine(ThreadId victim) {
    sealed_[victim].store(true, std::memory_order_relaxed);
    stream_thread(victim);
  }

  // Optional crash-tolerance stream (not owned; must outlive the recorder).
  // Chunks appended here are also kept in memory, so take_recording still
  // returns the full recording; finish_stream() writes everything not yet
  // streamed plus the trailer.
  void set_stream_writer(RecordingStreamWriter* w) {
    std::lock_guard<std::mutex> g(stream_mu_);
    stream_ = w;
  }
  bool finish_stream(ThreadId thread_count) {
    std::lock_guard<std::mutex> g(stream_mu_);
    if (stream_ == nullptr) return true;
    for (ThreadId t = 0; t < thread_count; ++t) stream_thread_locked(t);
    return stream_->finish();
  }

  // --- results -------------------------------------------------------------------
  // Moves the recording out (call after all recorded threads joined).
  Recording take_recording(ThreadId thread_count) {
    Recording r;
    r.threads.reserve(thread_count);
    for (ThreadId t = 0; t < thread_count; ++t)
      r.threads.push_back(std::move(*logs_[t]));
    for (auto& l : logs_) l->events.clear();
    return r;
  }

  const ThreadLog& log(ThreadId t) const { return *logs_[t]; }
  bool sealed(ThreadId t) const {
    return sealed_[t].load(std::memory_order_relaxed);
  }

 private:
  void log_bump(ThreadContext& ctx, LogEventType type) {
    if (sealed_[ctx.id].load(std::memory_order_relaxed)) return;
    logs_[ctx.id]->events.push_back(
        LogEvent{ctx.point_index, type, kNoThread,
                 ctx.owner_side.release_counter.load(
                     std::memory_order_relaxed)});
  }

  void stream_thread(ThreadId t) {
    std::lock_guard<std::mutex> g(stream_mu_);
    stream_thread_locked(t);
  }
  void stream_thread_locked(ThreadId t) {
    if (stream_ == nullptr) return;
    const auto& events = logs_[t]->events;
    while (streamed_[t] < events.size()) {
      const std::size_t n =
          std::min<std::size_t>(events.size() - streamed_[t], 512);
      if (!stream_->append(t, events.data() + streamed_[t], n)) return;
      streamed_[t] += n;
    }
  }

  // Padded: every edge and bump appends to its thread's log header.
  std::vector<CachePadded<ThreadLog>> logs_;
  // Indexed by thread id; atomic because the victim may still be appending
  // (pre-park) when the quarantining thread seals it.
  std::unique_ptr<std::atomic<bool>[]> sealed_;
  std::mutex stream_mu_;
  RecordingStreamWriter* stream_ = nullptr;       // guarded by stream_mu_
  std::vector<std::size_t> streamed_;             // guarded by stream_mu_
};

}  // namespace ht
