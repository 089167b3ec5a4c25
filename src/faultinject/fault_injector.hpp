// Deterministic, seedable fault injection for the runtime substrate.
//
// The coordination protocol (Fig 1) and deferred unlocking (§3.1) are proved
// correct under the assumption that every thread keeps reaching safe points
// and that recordings are written to completion. Production deployments
// violate both: threads stall in long JNI-style computations, processes die
// mid-write, disks tear files. This module makes those failures *injectable*
// — deterministically, from a seed — so the hardening that handles them (the
// coordination watchdog, the v2 crash-tolerant recording format) is
// testable instead of aspirational.
//
// Sites and their effects:
//   kPollDelay      busy-spin delay at a safe-point poll (slow safe point);
//   kPollSkip       one poll passes without responding (missed poll window);
//   kCoordStall     the thread stops responding at safe points for
//                   `stall_polls` consecutive polls — a bounded non-polling
//                   stall, exactly what the watchdog must detect;
//   kThreadDeath    the thread never responds at a deterministic safe point
//                   again (it still executes program code and still responds
//                   from nondeterministic waits — see note below);
//   kSlowPathDelay  busy-spin delay inside tracker slow paths (CAS loops,
//                   Int-state waits);
//   kIoOpenFail     recording open() fails;
//   kIoShortWrite   a recording chunk write is torn after a random prefix;
//   kIoReadFail     a recording chunk read fails mid-stream.
//
// Death/stall note: suppression applies only to *deterministic* safe points
// (Runtime::poll). A thread spinning inside coordinate() is at a
// nondeterministic wait and keeps responding there; suppressing those too
// would let two injected-dead threads deadlock each other, which models a
// scheduler bug rather than a stalled thread, and would make every
// injection-enabled test flaky by construction.
//
// Determinism: each thread slot draws from its own Xoshiro256 stream seeded
// by (seed, slot), so a fixed seed and per-thread probe sequence yields a
// fixed fault schedule regardless of cross-thread interleaving. I/O sites
// draw from a separate mutex-guarded stream (I/O is cold).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cache_line.hpp"
#include "common/xorshift.hpp"
#include "metadata/state_word.hpp"  // ThreadId

namespace ht {

enum class FaultSite : std::uint8_t {
  kPollDelay = 0,
  kPollSkip,
  kCoordStall,
  kThreadDeath,
  kSlowPathDelay,
  kIoOpenFail,
  kIoShortWrite,
  kIoReadFail,
};
inline constexpr std::size_t kFaultSiteCount = 8;

const char* fault_site_name(FaultSite site);

struct FaultConfig {
  std::uint64_t seed = 1;
  // Per-site firing rate in firings per 100k probes; 0 disables the site.
  std::array<std::uint32_t, kFaultSiteCount> rate_p100k{};
  std::uint32_t delay_spins = 2'000;  // cpu_relax() count for delay faults
  std::uint32_t stall_polls = 256;    // polls suppressed per kCoordStall
  std::size_t max_thread_slots = 256;
  // Transient-I/O modeling: when nonzero, each I/O site fires at most this
  // many times total and then goes quiet — a burst a capped retry outlives
  // (deterministic with rate 100000: exactly the first N I/O probes fail).
  // 0 keeps faults firing per rate forever.
  std::uint32_t io_failure_cap = 0;
  // Death severity. Default (false): a dead thread stops responding at polls
  // only — it still answers at PSROs, blocking entries, and coordination
  // waits, so a run stays live even with the watchdog in kContinue. True
  // models a PERMANENTLY STUCK thread (DESIGN.md §11): death also freezes
  // its PSROs and blocking safe points, so whatever it holds stays held and
  // only the quarantine/seizure path (or fail-fast) can finish the run.
  bool stuck_death = false;

  FaultConfig& enable(FaultSite site, std::uint32_t rate) {
    rate_p100k[static_cast<std::size_t>(site)] = rate;
    return *this;
  }
  std::uint32_t rate(FaultSite site) const {
    return rate_p100k[static_cast<std::size_t>(site)];
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig cfg = {});
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultConfig& config() const { return cfg_; }

  // --- runtime sites (called by the probing thread itself) -------------------
  // Probes every poll-attached site. Returns true when the thread must NOT
  // respond at this safe point (skip window, active stall, or death).
  bool at_safe_point(ThreadId tid);

  // Probes kSlowPathDelay; spins when it fires.
  void at_slow_path(ThreadId tid);

  // --- recording I/O sites ---------------------------------------------------
  bool fail_open();  // kIoOpenFail
  bool fail_read();  // kIoReadFail
  // kIoShortWrite: when it fires, returns how many of `bytes` to actually
  // write (uniform in [0, bytes)); nullopt means write everything.
  std::optional<std::size_t> short_write(std::size_t bytes);

  // --- observability ----------------------------------------------------------
  std::uint64_t fired(FaultSite site) const {
    return fired_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_fired() const;
  // True once kThreadDeath has fired for `tid` (diagnostics / tests).
  bool thread_dead(ThreadId tid) const;
  // True while `tid` is inside an injected kCoordStall window or dead.
  bool thread_suppressed(ThreadId tid) const;
  // True when `tid` is dead under the stuck_death model: its PSROs and
  // blocking safe points are suppressed too (runtime consults this).
  bool thread_fully_stuck(ThreadId tid) const {
    return cfg_.stuck_death && thread_dead(tid);
  }
  std::string summary() const;

 private:
  struct alignas(kCacheLine) Slot {
    Xoshiro256 rng{0};
    std::uint32_t stall_remaining = 0;
    std::atomic<bool> dead{false};
    std::atomic<bool> stalled{false};  // mirrors stall_remaining for readers
  };

  Slot& slot(ThreadId tid) { return slots_[tid % slots_.size()]; }
  const Slot& slot(ThreadId tid) const { return slots_[tid % slots_.size()]; }
  bool probe(FaultSite site, Xoshiro256& rng);
  bool io_burst_exhausted(FaultSite site) const;
  void count(FaultSite site) {
    fired_[static_cast<std::size_t>(site)].fetch_add(
        1, std::memory_order_relaxed);
  }

  FaultConfig cfg_;
  std::vector<Slot> slots_;
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> fired_{};
  std::mutex io_mu_;
  Xoshiro256 io_rng_;  // guarded by io_mu_
};

}  // namespace ht
