// Exhaustive interleaving exploration of the tracker state machines: every
// builtin Program (program.hpp) is driven through ALL schedules for all three
// real tracker families, with the full oracle stack armed — the transition
// StatePairOracle, the HT_CHECK_TRANSITIONS delta, final-state quiescence,
// and (for the lock-synchronized programs) the vector-clock race detector.
// Covers the Table 3 corners the structured tests reach only probabilistically:
// deferred unlocking racing a taker, read-share formation/collapse under both
// lock modes, and fall-back coordination against a blocked owner.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "metadata/state_word.hpp"
#include "schedule/explorer.hpp"
#include "schedule/program.hpp"

namespace ht::schedule {
namespace {

constexpr std::uint64_t kBudget = 4096;  // > largest tree (rdsh-fan, 761)

struct ExhaustiveCase {
  Family family;
  std::string program;
};

std::string case_name(const ::testing::TestParamInfo<ExhaustiveCase>& info) {
  std::string n = std::string(family_name(info.param.family)) + "_" +
                  info.param.program;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class ExhaustiveP : public ::testing::TestWithParam<ExhaustiveCase> {};

// Every interleaving of every builtin program terminates, ends quiescent,
// and never produces an illegal state-kind succession or a shadow-checker
// violation. The tree must be fully explored within budget (no truncation,
// no deadlock).
TEST_P(ExhaustiveP, AllInterleavingsSatisfyOracles) {
  const ExhaustiveCase& c = GetParam();
  const Program* prog = find_builtin(c.program);
  ASSERT_NE(prog, nullptr) << c.program;

  Explorer ex(c.family, prog->nthreads());
  ExploreOutcome out = ex.explore_exhaustive(*prog, kBudget);
  EXPECT_FALSE(out.violation.has_value())
      << out.violation->to_string();
  EXPECT_TRUE(out.stats.complete) << "tree not exhausted within budget";
  EXPECT_GT(out.stats.schedules, 1u);
  EXPECT_EQ(out.stats.deadlocks, 0u);
  EXPECT_EQ(out.stats.truncated, 0u);
}

std::vector<ExhaustiveCase> all_cases() {
  std::vector<ExhaustiveCase> cases;
  for (Family f :
       {Family::kPessimistic, Family::kOptimistic, Family::kHybrid}) {
    for (const NamedProgram& np : builtin_programs()) {
      cases.push_back({f, np.name});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ExhaustiveP,
                         ::testing::ValuesIn(all_cases()), case_name);

class ElisionEquivalenceP : public ::testing::TestWithParam<ExhaustiveCase> {};

// The set of reachable final-memory outcomes over ALL interleavings must be
// identical with the race detector on and off: the detector observes every
// access but must never change what the program computes. The suite once
// compared barrier elision on vs off (removed, DESIGN.md §15); attaching the
// detector is the remaining per-run switch that sits on every access, and it
// covers the same two families.
TEST_P(ElisionEquivalenceP, OutcomeSetsMatchOnVsOff) {
  const ExhaustiveCase& c = GetParam();
  const Program* prog = find_builtin(c.program);
  ASSERT_NE(prog, nullptr) << c.program;

  auto outcome_set = [&](bool race_detect) {
    Explorer ex(c.family, prog->nthreads());
    ex.run_config().race_detect = race_detect;
    std::set<std::vector<std::uint64_t>> outcomes;
    ex.check_policy().extra = [&](const RunResult& r) -> std::string {
      outcomes.insert(r.final_values);
      return "";
    };
    const ExploreOutcome out = ex.explore_exhaustive(*prog, kBudget);
    EXPECT_FALSE(out.violation.has_value())
        << c.program << " race_detect=" << race_detect << ": "
        << out.violation->to_string();
    EXPECT_TRUE(out.stats.complete)
        << c.program << " race_detect=" << race_detect;
    return outcomes;
  };

  const auto detected = outcome_set(true);
  const auto undetected = outcome_set(false);
  EXPECT_FALSE(undetected.empty()) << c.program;
  EXPECT_EQ(detected, undetected)
      << c.program << ": the race detector changed the reachable final memory";
}

std::vector<ExhaustiveCase> equivalence_cases() {
  std::vector<ExhaustiveCase> cases;
  for (Family f : {Family::kOptimistic, Family::kHybrid}) {
    for (const NamedProgram& np : builtin_programs()) {
      cases.push_back({f, np.name});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Builtins, ElisionEquivalenceP,
                         ::testing::ValuesIn(equivalence_cases()), case_name);

class SchedExhaustive : public ::testing::TestWithParam<Family> {};

// Lock-synchronized increments are data-race-free by construction, so in
// EVERY interleaving the vector-clock oracle must stay silent and the final
// value must be exactly one increment per thread (lost updates would mean
// the virtual scheduler let two threads into the critical section).
TEST_P(SchedExhaustive, LockedIncIsRaceFreeAndLosesNoUpdate) {
  const Program* prog = find_builtin("locked-inc");
  ASSERT_NE(prog, nullptr);

  Explorer ex(GetParam(), prog->nthreads());
  ex.run_config().race_detect = true;
  ex.check_policy().require_zero_races = true;
  ex.check_policy().extra = [](const RunResult& r) -> std::string {
    if (r.final_values.at(0) != 2) {
      return "lost update: final value " +
             std::to_string(r.final_values.at(0)) + ", want 2";
    }
    return "";
  };
  ExploreOutcome out = ex.explore_exhaustive(*prog, kBudget);
  EXPECT_FALSE(out.violation.has_value()) << out.violation->to_string();
  EXPECT_TRUE(out.stats.complete);
}

// The unlocked twin must trip the race detector in at least one interleaving
// (negative control: proves the race oracle is live, not vacuously green).
TEST_P(SchedExhaustive, RacyIncTripsTheRaceDetectorSomewhere) {
  const Program* prog = find_builtin("racy-inc");
  ASSERT_NE(prog, nullptr);

  Explorer ex(GetParam(), prog->nthreads());
  ex.run_config().race_detect = true;
  std::uint64_t racy_schedules = 0;
  ex.check_policy().extra = [&](const RunResult& r) -> std::string {
    if (r.races.total() > 0) ++racy_schedules;
    return "";
  };
  ExploreOutcome out = ex.explore_exhaustive(*prog, kBudget);
  EXPECT_FALSE(out.violation.has_value()) << out.violation->to_string();
  EXPECT_TRUE(out.stats.complete);
  EXPECT_GT(racy_schedules, 0u)
      << "no interleaving raced — the detector oracle is dead";
}

// Sleep-set soundness: pruning may only skip Mazurkiewicz-EQUIVALENT
// reorderings, so the set of reachable OUTCOMES (final object states plus
// final values — not execution digests, which hash the trace and therefore
// distinguish equivalent schedules) must match the unpruned full tree, in
// no more executions.
TEST_P(SchedExhaustive, SleepSetPruningPreservesReachableOutcomes) {
  for (const char* name : {"ww-conflict", "deferred-unlock", "locked-inc"}) {
    const Program* prog = find_builtin(name);
    ASSERT_NE(prog, nullptr) << name;

    auto outcome_key = [](const RunResult& r) {
      std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
      auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
          h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
        }
      };
      for (const StateWord& s : r.final_states) mix(s.raw());
      for (std::uint64_t v : r.final_values) mix(v);
      return h;
    };

    auto outcome_set = [&](bool sleep_sets, std::uint64_t* schedules) {
      Explorer ex(GetParam(), prog->nthreads());
      std::set<std::uint64_t> outcomes;
      ex.check_policy().extra = [&](const RunResult& r) -> std::string {
        outcomes.insert(outcome_key(r));
        return "";
      };
      ExploreOutcome out = ex.explore_exhaustive(*prog, kBudget, sleep_sets);
      EXPECT_FALSE(out.violation.has_value())
          << name << ": " << out.violation->to_string();
      EXPECT_TRUE(out.stats.complete) << name;
      *schedules = out.stats.schedules;
      return outcomes;
    };

    std::uint64_t pruned_scheds = 0;
    std::uint64_t full_scheds = 0;
    const std::set<std::uint64_t> pruned = outcome_set(true, &pruned_scheds);
    const std::set<std::uint64_t> full = outcome_set(false, &full_scheds);
    EXPECT_EQ(pruned, full) << name << ": pruning changed reachable outcomes";
    EXPECT_LE(pruned_scheds, full_scheds) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SchedExhaustive,
    ::testing::Values(Family::kPessimistic, Family::kOptimistic,
                      Family::kHybrid),
    [](const ::testing::TestParamInfo<Family>& param) {
      return std::string(family_name(param.param));
    });

using KindEdge = std::pair<StateKind, StateKind>;

std::set<KindEdge> observed_edges(Family f, const char* name) {
  const Program* prog = find_builtin(name);
  EXPECT_NE(prog, nullptr) << name;
  Explorer ex(f, prog->nthreads());
  std::set<KindEdge> edges;
  ex.run_config().on_state_change = [&](const StateChange& c) {
    edges.insert({c.from.kind(), c.to.kind()});
  };
  ExploreOutcome out = ex.explore_exhaustive(*prog, kBudget);
  EXPECT_FALSE(out.violation.has_value()) << out.violation->to_string();
  return edges;
}

// Table 3 deferred-unlock corner (§3.1): under the hybrid tracker the
// write-lock acquisition and its later PSRO-flush release must both be
// visible across the exploration, in both directions.
TEST(ScheduleTable3, HybridDeferredUnlockExercisesLockFlushEdges) {
  const std::set<KindEdge> edges =
      observed_edges(Family::kHybrid, "deferred-unlock");
  EXPECT_TRUE(edges.count({StateKind::kWrExPess, StateKind::kWrExWLock}))
      << "no schedule acquired the deferred write lock";
  EXPECT_TRUE(edges.count({StateKind::kWrExWLock, StateKind::kWrExPess}))
      << "no schedule flushed the deferred write lock";
}

// Table 3 read-lock corner: pessimistic reads of a shared object form
// RdShRLock (two holders) and the subsequent write waits the holders out —
// the share must both form and collapse somewhere in the tree.
TEST(ScheduleTable3, PessimisticRdShRLockFormsAndCollapses) {
  const std::set<KindEdge> edges =
      observed_edges(Family::kPessimistic, "rdsh-rlock");
  bool forms = false;
  bool collapses = false;
  for (const KindEdge& e : edges) {
    if (e.second == StateKind::kRdShRLock || e.second == StateKind::kRdShPess) {
      forms = true;
    }
    if ((e.first == StateKind::kRdShRLock ||
         e.first == StateKind::kRdShPess) &&
        e.second != StateKind::kRdShRLock &&
        e.second != StateKind::kRdShPess) {
      collapses = true;
    }
  }
  EXPECT_TRUE(forms) << "read share never formed";
  EXPECT_TRUE(collapses) << "read share never collapsed back";
}

// Fall-back coordination corner: with the owner parked in a blocking window,
// conflicting accesses still retarget ownership — the exploration must see
// optimistic coordination (through Int) under the hybrid tracker.
TEST(ScheduleTable3, HybridBlockedOwnerStillCoordinates) {
  const std::set<KindEdge> edges =
      observed_edges(Family::kHybrid, "blocked-owner");
  bool through_int = false;
  for (const KindEdge& e : edges) {
    if (e.first == StateKind::kInt || e.second == StateKind::kInt) {
      through_int = true;
    }
  }
  EXPECT_TRUE(through_int)
      << "no coordination (explicit or fall-back) observed";
}

}  // namespace
}  // namespace ht::schedule
