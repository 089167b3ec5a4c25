// FastTrack-style happens-before data race detector — the paper's canonical
// *detect* runtime support (§2: "data race detectors (e.g., [18])") built on
// pessimistic tracking's instrumentation pattern.
//
// Race detection "requires only instrumentation atomicity because it does
// not need to know the order of racy accesses" (§2), so the detector locks
// each variable's analysis state with the §2.1 CAS pattern around the check
// + metadata update, without spanning the program access itself.
//
// Analysis state per variable (FastTrack [18]):
//   W        — epoch of the last write
//   R        — epoch of the last read (exclusive-read mode), or
//   Rvc      — full read vector clock (shared-read mode)
// Thread state: vector clock C_t, ticked at each release operation; lock
// state: vector clock L_m joined into the acquirer.
//
// This is an extension beyond the paper's artifact (which builds a recorder
// and an RS enforcer); the tests also use it as an oracle that the synthetic
// workloads' "racy" profiles really race and the synchronized ones do not.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cache_line.hpp"
#include "common/spin.hpp"
#include "common/vector_clock.hpp"
#include "runtime/sync.hpp"
#include "runtime/thread_context.hpp"

namespace ht {

struct RaceReport {
  std::uint64_t write_write = 0;
  std::uint64_t write_read = 0;   // racy read after write
  std::uint64_t read_write = 0;   // racy write after read(s)
  std::uint64_t total() const { return write_write + write_read + read_write; }
};

class RaceDetector;

// Per-variable detector metadata with a one-word spinlock providing the
// instrumentation atomicity of §2.1.
class RaceCheckedMeta {
 public:
  RaceCheckedMeta() = default;
  RaceCheckedMeta(const RaceCheckedMeta&) = delete;
  RaceCheckedMeta& operator=(const RaceCheckedMeta&) = delete;

  // True once any race was counted against this variable. Gives race
  // reports object identity (RaceReport itself only counts), which the
  // offline hb_engine's predictive detector is cross-validated against.
  bool raced() const { return raced_.load(std::memory_order_relaxed); }

 private:
  friend class RaceDetector;

  void lock() {
    Backoff backoff;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      backoff.pause();
    }
  }
  void unlock() { locked_.store(false, std::memory_order_release); }

  std::atomic<bool> locked_{false};
  std::atomic<bool> raced_{false};
  Epoch write_;
  Epoch read_;          // valid while !read_shared_
  bool read_shared_ = false;
  VectorClock read_vc_; // valid while read_shared_
};

class RaceDetector {
 public:
  explicit RaceDetector(std::size_t max_threads = 64)
      : threads_(max_threads) {}

  // --- thread lifecycle -------------------------------------------------------
  void attach_thread(ThreadContext& ctx) {
    PerThread& t = threads_.at(ctx.id);
    t.clock.clear();
    t.clock.set(ctx.id, 1);  // epochs start at 1 so Epoch{} means "never"
    t.races = RaceReport{};
  }

  // --- synchronization hooks ----------------------------------------------------
  // Acquire: join the lock's clock into the thread (the HB edge source was
  // the previous release of the same lock).
  void on_acquire(ThreadContext& ctx, const void* lock_identity) {
    std::lock_guard<std::mutex> g(locks_mu_);
    threads_.at(ctx.id).clock.join(lock_clocks_[lock_identity]);
  }

  // Release: publish the thread's clock into the lock, then tick.
  void on_release(ThreadContext& ctx, const void* lock_identity) {
    PerThread& t = threads_.at(ctx.id);
    {
      std::lock_guard<std::mutex> g(locks_mu_);
      lock_clocks_[lock_identity].join(t.clock);
    }
    t.clock.tick(ctx.id);
  }

  // Fork edge: child inherits the parent's clock (used by the thread driver;
  // our workloads start all threads from a common barrier instead).
  void on_fork(ThreadContext& parent, ThreadContext& child) {
    threads_.at(child.id).clock.join(threads_.at(parent.id).clock);
    threads_.at(child.id).clock.set(child.id, 1);
    threads_.at(parent.id).clock.tick(parent.id);
  }

  // --- access checks --------------------------------------------------------------
  // FastTrack read rule.
  void on_read(ThreadContext& ctx, RaceCheckedMeta& m) {
    PerThread& t = threads_.at(ctx.id);
    m.lock();
    // write-read race: last write not ordered before this read.
    if (!m.write_.is_zero() && m.write_.tid() != ctx.id &&
        !t.clock.covers(m.write_)) {
      ++t.races.write_read;
      m.raced_.store(true, std::memory_order_relaxed);
    }
    if (!m.read_shared_) {
      if (m.read_.is_zero() || m.read_.tid() == ctx.id ||
          t.clock.covers(m.read_)) {
        // Same-epoch / ordered read: stay in exclusive mode.
        m.read_ = t.clock.epoch_of(ctx.id);
      } else {
        // Concurrent readers: inflate to a read vector clock.
        m.read_shared_ = true;
        m.read_vc_.clear();
        m.read_vc_.set(m.read_.tid(), m.read_.clock());
        m.read_vc_.set(ctx.id, t.clock.get(ctx.id));
      }
    } else {
      m.read_vc_.set(ctx.id, t.clock.get(ctx.id));
    }
    m.unlock();
  }

  // FastTrack write rule.
  void on_write(ThreadContext& ctx, RaceCheckedMeta& m) {
    PerThread& t = threads_.at(ctx.id);
    m.lock();
    if (!m.write_.is_zero() && m.write_.tid() != ctx.id &&
        !t.clock.covers(m.write_)) {
      ++t.races.write_write;
      m.raced_.store(true, std::memory_order_relaxed);
    }
    if (m.read_shared_) {
      if (!t.clock.covers_all(m.read_vc_)) {
        ++t.races.read_write;
        m.raced_.store(true, std::memory_order_relaxed);
      }
      m.read_shared_ = false;
      m.read_vc_.clear();
      m.read_ = Epoch{};
    } else if (!m.read_.is_zero() && m.read_.tid() != ctx.id &&
               !t.clock.covers(m.read_)) {
      ++t.races.read_write;
      m.raced_.store(true, std::memory_order_relaxed);
      m.read_ = Epoch{};
    }
    m.write_ = t.clock.epoch_of(ctx.id);
    m.unlock();
  }

  // --- results --------------------------------------------------------------------
  RaceReport report(ThreadId t) const { return threads_.at(t).races; }

  RaceReport total_report(ThreadId thread_count) const {
    RaceReport sum;
    for (ThreadId t = 0; t < thread_count; ++t) {
      const RaceReport& r = threads_.at(t).races;
      sum.write_write += r.write_write;
      sum.write_read += r.write_read;
      sum.read_write += r.read_write;
    }
    return sum;
  }

 private:
  struct alignas(kCacheLine) PerThread {
    VectorClock clock;
    RaceReport races;
  };

  std::vector<PerThread> threads_;
  std::mutex locks_mu_;
  std::unordered_map<const void*, VectorClock> lock_clocks_;
};

// A tracked variable bundled with race-detector metadata, plus an access API
// mirroring TrackedVar's shape.
template <typename T>
class RaceCheckedVar {
 public:
  void init(RaceDetector& rd, ThreadContext& ctx, T v = T{}) {
    (void)rd;
    (void)ctx;
    value_.store(v, std::memory_order_relaxed);
  }

  T load(RaceDetector& rd, ThreadContext& ctx) {
    rd.on_read(ctx, meta_);
    return value_.load(std::memory_order_relaxed);
  }
  void store(RaceDetector& rd, ThreadContext& ctx, T v) {
    rd.on_write(ctx, meta_);
    value_.store(v, std::memory_order_relaxed);
  }
  T raw_load() const { return value_.load(std::memory_order_relaxed); }

  RaceCheckedMeta& meta() { return meta_; }

 private:
  RaceCheckedMeta meta_;
  std::atomic<T> value_{};
};

}  // namespace ht
