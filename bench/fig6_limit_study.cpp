// Fig 6: adaptive-policy limit study — cumulative distribution of optimistic
// conflicting transitions (explicit coordination only) per object.
//
// For each x, y(x) = conflicting transitions that were among the first x
// conflicts of their object, as a percentage of ALL accesses. The paper's
// reading: each object's first few conflicts are an insignificant fraction
// of accesses, so per-object profiling with a small Cutoff_confl catches
// nearly all conflicting transitions — except avrora9, whose conflicts are
// spread across many objects.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "tracking/optimistic_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/harness.hpp"
#include "workload/profiles.hpp"

using namespace ht;

int main(int argc, char** argv) {
  const double scale = scale_from_env();
  const std::string json_path = json_path_from_args(argc, argv);
  const std::vector<std::uint64_t> xs = {1, 2, 4, 8, 16, 32, 64, 128, 256,
                                         512, 1024};

  BenchJsonReport report("fig6_limit_study");
  report.set_meta("scale", json::Value(scale));
  {
    json::Array cutoffs;
    for (auto x : xs) cutoffs.emplace_back(x);
    report.set_meta("cutoffs", json::Value(std::move(cutoffs)));
  }

  std::printf("== Fig 6: cumulative conflicting transitions per object "
              "(optimistic tracking, explicit only) ==\n");
  std::printf("y = %% of all accesses that are conflicts among the first x "
              "conflicts of their object\n\n");
  std::printf("%-12s", "workload");
  for (auto x : xs) std::printf(" x<=%-7llu", static_cast<unsigned long long>(x));
  std::printf(" max-y\n");
  print_table_rule(12 + 11 * static_cast<int>(xs.size()) + 8);

  for (const WorkloadConfig& cfg : paper_profiles(scale)) {
    WorkloadData data(cfg);
    Runtime rt;
    OptimisticTracker<true> trk(rt);
    const auto r = run_workload(cfg, data, [&](ThreadId) {
      return DirectApi<OptimisticTracker<true>>(rt, trk);
    });

    const std::vector<std::uint32_t> counts = data.per_object_conflict_counts();
    const double total_accesses = static_cast<double>(r.stats.accesses());

    // Paper convention: exclude programs with conflict rate < 0.0001%.
    const std::uint64_t total_conflicts = r.stats.opt_confl_explicit;
    if (total_conflicts / total_accesses < 1e-6) {
      std::printf("%-12s (conflict rate < 0.0001%%, excluded as in Fig 6)\n",
                  cfg.name);
      report.add_value(cfg.name, "optimistic", "excluded", json::Value(true));
      continue;
    }

    json::Array coverage;
    std::printf("%-12s", cfg.name);
    for (const std::uint64_t x : xs) {
      std::uint64_t covered = 0;
      for (const std::uint32_t c : counts) {
        covered += std::min<std::uint64_t>(c, x);
      }
      const double pct =
          100.0 * static_cast<double>(covered) / total_accesses;
      coverage.emplace_back(pct);
      std::printf(" %9.5f%%", pct);
    }
    const double max_y =
        100.0 * static_cast<double>(total_conflicts) / total_accesses;
    std::printf(" %9.5f%%\n", max_y);
    report.add_value(cfg.name, "optimistic", "coverage_pct",
                     json::Value(std::move(coverage)));
    report.add_value(cfg.name, "optimistic", "max_y_pct", json::Value(max_y));
    report.add_value(cfg.name, "optimistic", "excluded", json::Value(false));
  }
  if (!json_path.empty() && !report.write(json_path)) return 5;
  std::printf("\nreading: if y at x=4 is well below max-y for high-conflict "
              "programs, Cutoff_confl=4 catches\nmost conflicts — the basis "
              "for §7.3's parameter choice.\n");
  return 0;
}
