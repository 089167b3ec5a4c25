// Differential tracker fuzzer: seeded random programs executed under the
// virtual scheduler against all four tracker families — pessimistic,
// optimistic, hybrid, and the coordination-eliding ideal study variant —
// asserting that every family lands the IDENTICAL final memory state and the
// IDENTICAL per-object race verdicts.
//
// The oracle is made schedule-independent by construction so "identical"
// is decidable without enumerating interleavings:
//   * every store to object o writes the same per-object constant C(o), so
//     the final value of a stored object is C(o) under ANY interleaving and
//     any tracker — a mismatch means a tracker corrupted program memory
//     (lost update, misdirected undo, bad seizure landing);
//   * each program is either fully SYNCHRONIZED (objects private to one
//     thread or guarded by their own program lock — zero races expected in
//     every schedule) or lock-free RACY (private objects plus objects two
//     threads store with no synchronization — exactly those objects race).
//     The modes never mix: a lock edge between two threads would
//     happens-before-order an unrelated "racy" pair in some schedules and
//     make the verdict interleaving-dependent;
//   * PSROs and blocking windows are sprinkled in to move release counters
//     and exercise implicit coordination without touching the oracle.
//
// On mismatch the failing PROGRAM SEED is printed (plus the schedule trace
// via the explorer violation), so a failure reproduces with a one-line
// filter: --gtest_filter=TrackerDifferentialP.* plus the seed in the log.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/xorshift.hpp"
#include "schedule/explorer.hpp"
#include "schedule/program.hpp"

namespace ht::schedule {
namespace {

constexpr Family kFamilies[] = {Family::kPessimistic, Family::kOptimistic,
                                Family::kHybrid, Family::kIdeal};

// What every family must agree on for one generated program.
struct DifferentialOracle {
  std::vector<std::uint64_t> final_values;  // per object: C(o) or 0
  std::uint64_t racy_mask = 0;              // bit o set iff o must race
};

// Per-object constant store value: nonzero and distinct enough that a
// misdirected store is visible as the wrong constant, not just a flag.
std::uint64_t obj_constant(std::uint64_t seed, int obj) {
  return (seed * 2654435761u + static_cast<std::uint64_t>(obj) * 97u) %
             60000u +
         1u;
}

struct GeneratedProgram {
  Program prog;
  DifferentialOracle oracle;
};

// Seeded random differential program. Three object roles:
//   private  — accessed by exactly one thread (fast-path traffic),
//   locked   — shared, every access bracketed by the object's own lock
//              (synchronized programs only),
//   racy     — two distinct threads store it unlocked, with no locks
//              anywhere in the program (racy programs only).
GeneratedProgram make_differential_program(std::uint64_t seed, int nthreads,
                                           int objects, int ops_per_thread) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const bool racy_mode = rng.chance(1, 2);
  GeneratedProgram g;
  g.prog.objects = objects;
  g.prog.threads.assign(static_cast<std::size_t>(nthreads), {});
  g.oracle.final_values.assign(static_cast<std::size_t>(objects), 0);

  enum class Role : std::uint8_t { kPrivate, kLocked, kRacy };
  std::vector<Role> role(static_cast<std::size_t>(objects));
  std::vector<int> owner_a(static_cast<std::size_t>(objects), 0);
  std::vector<int> owner_b(static_cast<std::size_t>(objects), 0);
  std::vector<int> lock_of(static_cast<std::size_t>(objects), -1);

  for (int o = 0; o < objects; ++o) {
    const auto oi = static_cast<std::size_t>(o);
    if (rng.chance(1, 3)) {
      role[oi] = Role::kPrivate;
    } else {
      role[oi] = racy_mode ? Role::kRacy : Role::kLocked;
    }
    owner_a[oi] = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(nthreads)));
    owner_b[oi] = (owner_a[oi] + 1 +
                   static_cast<int>(rng.next_below(
                       static_cast<std::uint64_t>(nthreads - 1)))) %
                  nthreads;
    g.prog.init.push_back(ObjInit{owner_a[oi], false});
    if (role[oi] == Role::kLocked) {
      lock_of[oi] = g.prog.locks++;
    }
    if (role[oi] == Role::kRacy) {
      // Both sides are guaranteed one unlocked store below, so the race
      // verdict is independent of the explored interleaving.
      g.oracle.racy_mask |= 1ULL << o;
    }
  }

  const std::uint64_t C = seed;
  auto emit_access = [&](int t, int o, bool store) {
    const auto oi = static_cast<std::size_t>(o);
    std::vector<Op>& ops = g.prog.threads[static_cast<std::size_t>(t)];
    if (role[oi] == Role::kLocked) {
      ops.push_back(Op{OpKind::kLockAcquire, 0, lock_of[oi], 0});
    }
    if (store) {
      ops.push_back(Op{OpKind::kStore, o, 0, obj_constant(C, o)});
      g.oracle.final_values[oi] = obj_constant(C, o);
    } else {
      ops.push_back(Op{OpKind::kLoad, o, 0, 0});
    }
    if (role[oi] == Role::kLocked) {
      ops.push_back(Op{OpKind::kLockRelease, 0, lock_of[oi], 0});
    }
  };

  // Guaranteed accesses first: every racy object is stored by both of its
  // threads; every locked object is touched by both (one writer, one
  // reader) so the lock actually synchronizes cross-thread traffic.
  for (int o = 0; o < objects; ++o) {
    const auto oi = static_cast<std::size_t>(o);
    if (role[oi] == Role::kRacy) {
      emit_access(owner_a[oi], o, /*store=*/true);
      emit_access(owner_b[oi], o, /*store=*/true);
    } else if (role[oi] == Role::kLocked) {
      emit_access(owner_a[oi], o, /*store=*/true);
      emit_access(owner_b[oi], o, /*store=*/false);
    }
  }

  // Random filler: per-thread op mix over the roles that thread may touch.
  for (int t = 0; t < nthreads; ++t) {
    std::vector<Op>& ops = g.prog.threads[static_cast<std::size_t>(t)];
    int budget = ops_per_thread;
    while (budget-- > 0) {
      const std::uint64_t pick = rng.next_below(8);
      if (pick == 6) {
        ops.push_back(Op{OpKind::kPsro, 0, 0, 0});
        continue;
      }
      if (pick == 7) {
        ops.push_back(Op{OpKind::kBlockWindow, 0, 0, 0});
        continue;
      }
      const int o = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(objects)));
      const auto oi = static_cast<std::size_t>(o);
      const bool store = rng.chance(3, 8);
      switch (role[oi]) {
        case Role::kPrivate:
          if (t != owner_a[oi]) continue;  // budget spent, access skipped
          emit_access(t, o, store);
          break;
        case Role::kLocked:
          emit_access(t, o, store);
          break;
        case Role::kRacy:
          // Only the two designated threads touch it, and only with the
          // constant store (loads would not change the verdict, but keeping
          // the access set minimal keeps the oracle obviously right).
          if (t != owner_a[oi] && t != owner_b[oi]) continue;
          emit_access(t, o, /*store=*/true);
          break;
      }
    }
  }
  return g;
}

std::string values_to_string(const std::vector<std::uint64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

// One family's agreed-on result for a program: filled by the first complete
// run, then every later run (and every other family) must match it.
struct FamilyVerdict {
  bool filled = false;
  std::vector<std::uint64_t> final_values;
  std::uint64_t racy_mask = 0;
};

struct DifferentialShard {
  std::uint64_t first_seed;
  std::uint64_t n_seeds;
};

class TrackerDifferentialP
    : public ::testing::TestWithParam<DifferentialShard> {};

TEST_P(TrackerDifferentialP, AllFamiliesAgreeOnMemoryAndRaces) {
  const DifferentialShard shard = GetParam();
  for (std::uint64_t seed = shard.first_seed;
       seed < shard.first_seed + shard.n_seeds; ++seed) {
    const int nthreads = 2 + static_cast<int>(seed % 2);
    const int objects = 4 + static_cast<int>((seed / 2) % 3);
    const GeneratedProgram g =
        make_differential_program(seed, nthreads, objects,
                                  /*ops_per_thread=*/8);

    FamilyVerdict verdicts[4];
    for (std::size_t fi = 0; fi < 4; ++fi) {
      const Family family = kFamilies[fi];
      Explorer ex(family, nthreads);
      ex.run_config().race_detect = true;
      FamilyVerdict& v = verdicts[fi];
      ex.check_policy().extra = [&](const RunResult& r) -> std::string {
        if (r.final_values != g.oracle.final_values) {
          return "differential seed " + std::to_string(seed) + " (" +
                 family_name(family) + "): final memory " +
                 values_to_string(r.final_values) + " != expected " +
                 values_to_string(g.oracle.final_values);
        }
        if (r.racy_object_mask != g.oracle.racy_mask) {
          return "differential seed " + std::to_string(seed) + " (" +
                 family_name(family) + "): racy mask " +
                 std::to_string(r.racy_object_mask) + " != expected " +
                 std::to_string(g.oracle.racy_mask);
        }
        if (!v.filled) {
          v.filled = true;
          v.final_values = r.final_values;
          v.racy_mask = r.racy_object_mask;
        }
        return "";
      };
      const ExploreOutcome out =
          ex.explore_fuzz(g.prog, /*seed=*/seed * 1315423911ULL + fi,
                          /*schedules=*/6, /*preemption_bound=*/3);
      if (out.violation) {
        ADD_FAILURE() << "differential fuzzer seed " << seed << " family "
                      << family_name(family) << " (" << nthreads << "t/"
                      << objects << "o)\n"
                      << out.violation->to_string();
        return;  // one reproducer at a time beats a wall of follow-on noise
      }
      ASSERT_TRUE(v.filled) << "seed " << seed << ": no complete run for "
                            << family_name(family);
    }

    // Cross-family identity (each already matched the oracle; this states
    // the differential property directly and catches an oracle bug too).
    for (std::size_t fi = 1; fi < 4; ++fi) {
      EXPECT_EQ(verdicts[fi].final_values, verdicts[0].final_values)
          << "seed " << seed << ": " << family_name(kFamilies[fi]) << " vs "
          << family_name(kFamilies[0]);
      EXPECT_EQ(verdicts[fi].racy_mask, verdicts[0].racy_mask)
          << "seed " << seed << ": " << family_name(kFamilies[fi]) << " vs "
          << family_name(kFamilies[0]);
    }
  }
}

// Detector-free variant: the runs above attach the race detector to every
// thread. This one runs the two optimistic-path families without it and
// requires the final memory to match the schedule-independent oracle — a lost
// update or stale-ownership write shows up as the wrong per-object constant.
// The name dates from barrier elision (removed, DESIGN.md §15), whose cached
// paths these runs used to cover.
class ElisionDifferentialP
    : public ::testing::TestWithParam<DifferentialShard> {};

TEST_P(ElisionDifferentialP, ElidedRunsMatchTheMemoryOracle) {
  const DifferentialShard shard = GetParam();
  for (std::uint64_t seed = shard.first_seed;
       seed < shard.first_seed + shard.n_seeds; ++seed) {
    const int nthreads = 2 + static_cast<int>(seed % 2);
    const int objects = 4 + static_cast<int>((seed / 2) % 3);
    const GeneratedProgram g =
        make_differential_program(seed, nthreads, objects,
                                  /*ops_per_thread=*/8);

    for (const Family family : {Family::kOptimistic, Family::kHybrid}) {
      Explorer ex(family, nthreads);
      ex.check_policy().extra = [&](const RunResult& r) -> std::string {
        if (r.final_values != g.oracle.final_values) {
          return "detector-free differential seed " + std::to_string(seed) +
                 " (" + family_name(family) + "): final memory " +
                 values_to_string(r.final_values) + " != expected " +
                 values_to_string(g.oracle.final_values);
        }
        return "";
      };
      const ExploreOutcome out =
          ex.explore_fuzz(g.prog, /*seed=*/seed * 2654435761ULL,
                          /*schedules=*/8, /*preemption_bound=*/3);
      if (out.violation) {
        ADD_FAILURE() << "detector-free differential seed " << seed
                      << " family " << family_name(family) << "\n"
                      << out.violation->to_string();
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ElisionDifferentialP,
    ::testing::Values(DifferentialShard{0, 24}, DifferentialShard{24, 24},
                      DifferentialShard{48, 24}, DifferentialShard{72, 24}),
    [](const ::testing::TestParamInfo<DifferentialShard>& shard_info) {
      return "s" + std::to_string(shard_info.param.first_seed) + "_" +
             std::to_string(shard_info.param.first_seed +
                            shard_info.param.n_seeds - 1);
    });

// 8 shards x 32 seeds = 256 program seeds, each cross-checked over 4
// families x 6 fuzzed schedules (6144 executions) — sharded so `ctest -j`
// spreads the work.
INSTANTIATE_TEST_SUITE_P(
    Seeds, TrackerDifferentialP,
    ::testing::Values(DifferentialShard{0, 32}, DifferentialShard{32, 32},
                      DifferentialShard{64, 32}, DifferentialShard{96, 32},
                      DifferentialShard{128, 32}, DifferentialShard{160, 32},
                      DifferentialShard{192, 32}, DifferentialShard{224, 32}),
    [](const ::testing::TestParamInfo<DifferentialShard>& shard_info) {
      return "s" + std::to_string(shard_info.param.first_seed) + "_" +
             std::to_string(shard_info.param.first_seed +
                            shard_info.param.n_seeds - 1);
    });

}  // namespace
}  // namespace ht::schedule
