// Cooperative deterministic virtual scheduler.
//
// Exactly one worker thread holds the "virtual CPU" at any time; every other
// thread is parked on a condition variable inside a scheduling point (the
// shim in schedule_point.hpp). When the running thread reaches its next
// point it parks, the scheduler asks the active Strategy to pick the next
// slot from the eligible set, and grants it. Because every context switch
// happens at a sequence-numbered decision and the strategy is deterministic
// (enumerated, seeded, or replayed), the whole execution is deterministic:
// the same program + strategy reproduces the same interleaving bit for bit,
// regardless of OS scheduling. This is the stateless-model-checking scheme
// of Abdulla et al. adapted to the tracker runtime's safe-point structure.
//
// Lifecycle per run (driven by the explorer, see explorer.hpp):
//   worker: attach(slot)      parks; setup grants arrive in slot order so
//                             object initialization is deterministic (each
//                             worker registers as ThreadId == slot itself)
//   worker: setup_done(slot)  parks until every slot finished setup; then
//                             the run phase starts and Strategy decides
//   worker: point()/wait_point() via the shim, or annotated_point() from
//                             the program executor (carries the step's
//                             object footprint for sleep-set pruning)
//   worker: detach(slot)      thread's program is complete
//
// Wait points (spin re-checks) never count as progress: a thread that just
// failed its re-check is ineligible until some other thread reaches a normal
// point. When *everything* is wait-parked the scheduler forces deterministic
// round-robin re-checks (waiters may still respond to coordination requests,
// which is how chained waits resolve); if a bounded number of forced sweeps
// makes no progress the run is declared deadlocked and aborted by throwing
// ScheduleAborted out of every park.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/xorshift.hpp"
#include "schedule/schedule_point.hpp"

namespace ht::schedule {

using Slot = int;

// What one scheduler step (grant-to-park execution fragment) touched.
// Confined steps touched exactly one tracked object's metadata/value plus
// the acting thread's own state; everything else is conservatively global.
struct Footprint {
  bool global = true;
  int obj = -1;
};

// Two steps commute iff both are confined to distinct objects. Global steps
// (coordination, responses, PSROs, multi-grant ops) commute with nothing.
inline bool independent_steps(const Footprint& a, const Footprint& b) {
  return !a.global && !b.global && a.obj != b.obj;
}

// Set by the program executor on its per-op park when the op provably stayed
// confined (no coordination, no response, no global-counter draw, no
// intermediate wait parks).
struct StepAnnotation {
  bool confined = false;
  int obj = -1;
};

// One strategy decision: the eligible set it saw, what it chose, and what
// the chosen step turned out to touch (filled when that step next parks).
struct Decision {
  std::vector<Slot> eligible;
  Slot chosen = -1;
  Footprint footprint{};
};

// Thrown out of scheduling points when the current run is cancelled
// (deadlock, step limit, sleep-set prune, replay divergence). Deliberately
// not a std::exception: nothing in the runtime should catch it by accident.
struct ScheduleAborted {};

class Strategy {
 public:
  virtual ~Strategy() = default;
  // `eligible` is sorted and non-empty; `history` holds all completed
  // decisions (history.size() is the current decision's index). Return a
  // member of `eligible`, or nullopt to abort the run as pruned.
  virtual std::optional<Slot> pick(const std::vector<Slot>& eligible,
                                   const std::vector<Decision>& history) = 0;
};

class VirtualScheduler {
 public:
  enum class RunStatus {
    kRunning,    // workers still executing
    kComplete,   // every slot detached normally
    kDeadlock,   // forced re-check sweeps exhausted with no progress
    kStepLimit,  // cfg.max_steps decisions exceeded
    kPruned,     // strategy declined to pick (sleep-set blocked / diverged)
  };

  struct Config {
    int nthreads = 2;
    std::uint64_t max_steps = 1 << 20;
    // Forced re-check sweeps (times live waiter count) tolerated while every
    // thread is wait-parked before declaring deadlock.
    int deadlock_rounds = 8;
    // Called with no thread holding the virtual CPU, once per completed step
    // (after footprint bookkeeping, before the next grant). Run phase only.
    std::function<void(Slot)> on_step;
    // Called once, when setup finishes and before the first run-phase
    // decision; the explorer snapshots its oracle baseline here.
    std::function<void()> on_run_start;
  };

  VirtualScheduler(Config cfg, Strategy& strategy);
  VirtualScheduler(const VirtualScheduler&) = delete;
  VirtualScheduler& operator=(const VirtualScheduler&) = delete;

  // --- worker-thread side ----------------------------------------------------
  void attach(Slot s);
  void setup_done(Slot s);
  void detach(Slot s);
  // After catching ScheduleAborted: mark the slot finished without parking.
  void detach_aborted(Slot s);
  // Program-executor park carrying the completed op's footprint.
  void annotated_point(Slot s, const StepAnnotation& ann);
  // Parks this slot has performed; the executor uses the delta across an op
  // to detect intermediate wait parks (which void confinement).
  std::uint64_t parks(Slot s) const { return slots_[s].parks; }

  // Shim entry points (via schedule_point.hpp detail::park_*).
  void park_point(Slot s);
  void park_wait(Slot s);

  // --- results (valid once every worker returned) ----------------------------
  RunStatus status() const { return status_; }
  std::uint64_t steps() const { return steps_; }
  const std::vector<Decision>& decisions() const { return decisions_; }
  std::vector<Slot> trace() const;

 private:
  enum class SlotState {
    kNotArrived,
    kSetupParked,   // attached, awaiting its setup grant
    kPhaseParked,   // setup done, awaiting the run phase
    kRunnable,
    kWaiting,
    kRunning,
    kDone,
  };
  enum class ParkKind { kPoint, kWait };
  struct SlotData {
    SlotState state = SlotState::kNotArrived;
    std::uint64_t wait_epoch = 0;
    std::uint64_t parks = 0;
    // Index into decisions_ of the grant this slot is currently running
    // under, or -1 for setup/initial grants.
    std::int64_t decision = -1;
  };

  void park(Slot s, ParkKind kind, const StepAnnotation* ann);
  void finish_step_locked(Slot s, const StepAnnotation* ann);
  void try_setup_grant_locked();
  void pick_next_locked();
  void grant_locked(Slot s);
  void stop_locked(RunStatus why);
  void wait_for_grant(std::unique_lock<std::mutex>& g, Slot s);

  Config cfg_;
  Strategy& strategy_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<SlotData> slots_;
  bool setup_phase_ = true;
  int setup_next_ = 0;  // next slot to receive its setup grant
  int done_ = 0;
  bool stop_ = false;
  RunStatus status_ = RunStatus::kRunning;
  std::uint64_t steps_ = 0;
  std::uint64_t progress_epoch_ = 1;  // > 0 so fresh waiters are ineligible
  std::uint64_t forced_grants_ = 0;
  int forced_rr_ = 0;  // round-robin cursor for forced re-checks
  std::vector<Decision> decisions_;
};

// --- reusable strategies -------------------------------------------------------

// Seeded random scheduling with preemption bounding: keeps running the
// current thread and spends at most `preemption_bound` switches away from a
// still-eligible thread (Musuvathi & Qadeer's observation that most ordering
// bugs need very few preemptions). Forced switches (current thread parked
// waiting or done) are free.
class FuzzStrategy final : public Strategy {
 public:
  FuzzStrategy(std::uint64_t seed, int preemption_bound)
      : rng_(seed), bound_(preemption_bound) {}

  std::optional<Slot> pick(const std::vector<Slot>& eligible,
                           const std::vector<Decision>& history) override;

  int preemptions_used() const { return used_; }

 private:
  Xoshiro256 rng_;
  int bound_;
  int used_ = 0;
};

// Replays a recorded choice sequence; past the end it follows the lowest
// eligible slot (the deterministic suffix rule, also used when recording).
// A recorded choice that is no longer eligible means the execution diverged
// from the recording — the run aborts and diverged() reports it.
class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(std::vector<Slot> choices)
      : choices_(std::move(choices)) {}

  std::optional<Slot> pick(const std::vector<Slot>& eligible,
                           const std::vector<Decision>& history) override;

  bool diverged() const { return diverged_; }

 private:
  std::vector<Slot> choices_;
  bool diverged_ = false;
};

}  // namespace ht::schedule
