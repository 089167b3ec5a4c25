// Interleaving explorer: executes op-list Programs (program.hpp) under the
// virtual scheduler and drives them through
//   * exhaustive DFS over all schedules with sleep-set pruning (Godefroid),
//   * seeded, preemption-bounded schedule fuzzing, and
//   * bit-identical replay of a recorded choice sequence,
// re-executing the program from scratch for every schedule (stateless model
// checking: no state capture, only deterministic re-execution).
//
// Every run carries oracles:
//   * a per-step state-change observer feeding the StatePairOracle, whose
//     legal successor-kind relation is derived from the PR-2 transition
//     model (and can be mutated by tests to prove the harness detects
//     ordering bugs);
//   * the HT_CHECK_TRANSITIONS shadow checker's violation counter delta
//     (nonzero only in checking builds — a free extra oracle there);
//   * final-state quiescence (every object optimistic or pess-unlocked once
//     all threads exited, the chaos invariant);
//   * optionally the src/raceck/ vector-clock detector (lock-synchronized
//     programs must be race-free in EVERY interleaving).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faultinject/fault_injector.hpp"
#include "metadata/state_word.hpp"
#include "raceck/race_detector.hpp"
#include "schedule/program.hpp"
#include "schedule/virtual_scheduler.hpp"

namespace ht::schedule {

// The three real trackers, plus the ideal/unsound study variant (§7.5).
// Ideal elides coordination, so it is not a soundness target — it exists
// here so differential tests can compare the sound trackers' final memory
// and race verdicts against the upper-bound configuration.
enum class Family : std::uint8_t { kPessimistic, kOptimistic, kHybrid, kIdeal };

const char* family_name(Family f);
std::optional<Family> family_from_name(const std::string& name);

// One observed net state change: object `obj` went from `from` to `to`
// during the step that slot `slot` executed. Changes are per-step snapshots,
// so a step that passes through an invisible intermediate (the pessimistic
// LOCKED sentinel; Int resolved implicitly within the same step) reports
// only the net edge.
struct StateChange {
  int obj = 0;
  Slot slot = -1;
  StateWord from{};
  StateWord to{};
};

// One completed program operation, observed in the global order the virtual
// scheduler serialized it (seq is a run-global, gap-free index: the observer
// runs while the executing thread still holds the virtual CPU, so calls are
// mutually exclusive and scheduler-ordered). The offline hb_engine's
// TraceBuilder consumes these to build access-annotated traces.
struct OpStep {
  std::uint64_t seq = 0;
  Slot slot = -1;
  Op op{};
};

struct RunConfig {
  Family family = Family::kHybrid;
  std::uint64_t max_steps = 4096;
  int deadlock_rounds = 8;
  const FaultConfig* faults = nullptr;  // optional injected faults
  bool race_detect = false;
  std::function<void(const StateChange&)> on_state_change;
  std::function<void(const OpStep&)> on_op;
};

struct RunResult {
  VirtualScheduler::RunStatus status = VirtualScheduler::RunStatus::kRunning;
  bool replay_diverged = false;
  std::vector<Slot> trace;
  std::uint64_t steps = 0;
  std::uint64_t digest = 0;  // FNV-1a over final states, values, loads, trace
  std::vector<StateWord> final_states;
  std::vector<std::uint64_t> final_values;
  RaceReport races;
  std::uint64_t checker_violations = 0;
  std::uint64_t faults_fired = 0;
  // Resilience (DESIGN.md §11): threads quarantined during the run (via
  // OpKind::kQuarantine) and object states the eager sweep reclaimed from
  // them. Deliberately outside the digest: schedules differing only in
  // whether a seizure was eager or lazy can still hash equal.
  std::uint32_t quarantined = 0;
  std::uint64_t objects_seized = 0;
  // Object identity for the race counts (race_detect runs only): bit o set
  // iff object o had at least one race counted against it. The offline
  // predictive detector's per-object reports are validated against the
  // union of these masks over exhaustive exploration.
  std::uint64_t racy_object_mask = 0;
  // Full decision record (eligible sets + observed footprints); the DFS
  // explorer consumes these to fill its frames after each execution.
  std::vector<Decision> decisions;

  bool complete() const {
    return status == VirtualScheduler::RunStatus::kComplete;
  }
};

const char* run_status_name(VirtualScheduler::RunStatus s);
std::string trace_to_string(const std::vector<Slot>& trace);

// Legal successor-kind oracle derived from analysis::transition_rules().
// Observes net per-step edges, so the allowed relation is the rule relation
// plus identity (fast paths / no-ops) plus the Int round trip split into
// (from -> Int) and (Int -> landing) for rules flagged begins_coordination.
// Tid/epoch arithmetic is the shadow checker's job; this oracle is about
// *kind* successions and is cheap enough for every build flavor.
class StatePairOracle {
 public:
  explicit StatePairOracle(Family f);

  // Mutation testing: declare one legal kind pair illegal.
  void forbid(StateKind from, StateKind to);

  // Admits the kind successions ownership seizure introduces (DESIGN.md
  // §11.3) — victim-owned locked/Int states jumping to their seizure
  // landings (and onward to the seizer's own re-acquisition within the same
  // step), plus Int falling back to the conflict's *from* kind when the
  // victim abandons a coordination (IntGuard restore). Call before
  // exploring programs containing OpKind::kQuarantine; rows whose source a
  // quarantined thread cannot own are untouched.
  void widen_for_quarantine();

  void observe(const StateChange& c);
  std::uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_; }
  void reset();

 private:
  static constexpr std::size_t kKinds = 16;
  Family family_;
  std::array<std::array<bool, kKinds>, kKinds> allowed_{};
  std::uint64_t violations_ = 0;
  std::string first_;
};

struct ExploreStats {
  std::uint64_t schedules = 0;  // executions performed (pruned ones included)
  std::uint64_t pruned = 0;     // sleep-set-blocked re-executions
  std::uint64_t deadlocks = 0;
  std::uint64_t truncated = 0;  // step-limit hits
  bool complete = false;        // exhaustive only: DFS tree fully explored
};

struct ScheduleViolation {
  std::string what;
  std::uint64_t schedule_index = 0;
  std::uint64_t seed = 0;  // fuzz only: the per-schedule derived seed
  std::vector<Slot> trace;
  std::string to_string() const;
};

struct ExploreOutcome {
  ExploreStats stats;
  std::optional<ScheduleViolation> violation;
};

// What every explored schedule must satisfy; `extra` returns "" when happy.
struct CheckPolicy {
  bool require_complete = true;
  bool require_quiescent = true;
  bool require_zero_checker_violations = true;
  bool require_zero_races = false;
  std::function<std::string(const RunResult&)> extra;
};

namespace detail {
class WorkerPool;
}

// Owns the persistent worker pool (OS threads are reused across the
// thousands of re-executions a DFS performs) and the per-run oracle wiring.
class Explorer {
 public:
  Explorer(Family family, int nthreads);
  ~Explorer();
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  RunConfig& run_config() { return run_config_; }
  CheckPolicy& check_policy() { return check_policy_; }
  StatePairOracle& oracle() { return oracle_; }

  // One execution under an arbitrary strategy (oracle wired, policy checked
  // by the explore drivers, not here).
  RunResult run_once(const Program& program, Strategy& strategy);

  // Exhaustive DFS with sleep sets; stops at the first violating schedule or
  // when the tree (or `max_schedules`) is exhausted. `sleep_sets = false`
  // disables pruning (full tree) — tests cross-check that both modes reach
  // the same set of execution digests, i.e. pruning only skips equivalent
  // reorderings.
  ExploreOutcome explore_exhaustive(const Program& program,
                                    std::uint64_t max_schedules,
                                    bool sleep_sets = true);

  // Seeded fuzzing: `schedules` runs, each under FuzzStrategy with a seed
  // derived from (seed, index) and the given preemption bound.
  ExploreOutcome explore_fuzz(const Program& program, std::uint64_t seed,
                              std::uint64_t schedules, int preemption_bound);

  // Replay a recorded choice sequence once.
  RunResult replay(const Program& program, const std::vector<Slot>& choices);

 private:
  std::string check_run(const RunResult& r) const;

  Family family_;
  int nthreads_;
  RunConfig run_config_;
  CheckPolicy check_policy_;
  StatePairOracle oracle_;
  bool widened_for_quarantine_ = false;
  std::unique_ptr<detail::WorkerPool> pool_;
};

}  // namespace ht::schedule
