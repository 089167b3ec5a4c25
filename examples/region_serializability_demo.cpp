// Region-serializability demo: a racy bank with an invariant that plain
// execution breaks and the hybrid RS enforcer preserves.
//
//   build/examples/region_serializability_demo
//
// Accounts are organized in pairs; transfers move money within a pair, with
// NO program locks. Each transfer and each pair-audit runs as one
// statically-bounded region (SBRS regions are small by construction — they
// end at loop back edges and calls, §5.1, so a region touches one pair, not
// the whole bank). Under the enforcer every region is serializable: each
// pair's sum is invariant and audits can never observe a torn transfer.
#include <cstdio>
#include <vector>

#include "enforcer/rs_enforcer.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/workload.hpp"

using namespace ht;

namespace {

constexpr int kPairs = 8;
constexpr std::uint64_t kInitialBalance = 1'000;
constexpr int kThreads = 4;
constexpr int kOpsPerThread = 6'000;

struct Bank {
  std::vector<TrackedVar<std::uint64_t>> accounts{2 * kPairs};

  template <typename Tracker>
  void init_for_thread(Tracker& trk, ThreadContext& ctx) {
    if (ctx.id != 0) return;
    for (auto& a : accounts) a.init(trk, ctx, kInitialBalance);
  }
  void raw_reset_values() {}

  std::uint64_t raw_total() const {
    std::uint64_t sum = 0;
    for (const auto& a : accounts) sum += a.raw_load();
    return sum;
  }
};

// Returns the number of audits that observed a violated pair invariant.
template <typename Api>
std::uint64_t run_teller(Api& api, Bank& bank, ThreadId tid) {
  Xoshiro256 rng(1000 + tid);
  std::uint64_t inconsistent_audits = 0;
  for (int i = 0; i < kOpsPerThread; ++i) {
    const std::size_t pair = rng.next_below(kPairs);
    auto& left = bank.accounts[2 * pair];
    auto& right = bank.accounts[2 * pair + 1];
    const std::uint64_t amount = 1 + rng.next_below(5);

    if (i % 8 == 0) {
      // Audit region: the pair's sum must always be 2 * kInitialBalance.
      std::uint64_t a = 0, b = 0;
      api.region([&] {
        a = api.load(left);
        b = api.load(right);
      });
      if (a + b != 2 * kInitialBalance) ++inconsistent_audits;
    } else {
      // Transfer region: debit + credit within the pair must be atomic.
      api.region([&] {
        const std::uint64_t f = api.load(left);
        if (f >= amount) {
          api.store(left, f - amount);
          api.store(right, api.load(right) + amount);
        } else {
          api.store(right, api.load(right) - amount);
          api.store(left, api.load(left) + amount);
        }
      });
    }
    api.poll();
    if (i % 16 == 0) std::this_thread::yield();
  }
  return inconsistent_audits;
}

template <typename MakeApi>
void run_bank(const char* label, MakeApi&& make_api, Runtime& rt, Bank& bank,
              bool expect_sound) {
  const auto r = run_threads(
      kThreads, std::forward<MakeApi>(make_api),
      [&](auto& api, ThreadId tid) { api.init_data(bank, tid); },
      [&](auto& api, ThreadId tid) { return run_teller(api, bank, tid); });
  (void)rt;
  std::uint64_t bad_audits = 0;
  for (auto c : r.checksums) bad_audits += c;
  const std::uint64_t expect_total = 2 * kPairs * kInitialBalance;
  std::printf("%-22s total=%llu (%s), inconsistent audits=%llu, "
              "region restarts=%llu, %.1f ms\n",
              label, static_cast<unsigned long long>(bank.raw_total()),
              bank.raw_total() == expect_total ? "conserved" : "VIOLATED",
              static_cast<unsigned long long>(bad_audits),
              static_cast<unsigned long long>(r.stats.region_restarts),
              r.seconds * 1e3);
  if (expect_sound && (bad_audits != 0 || bank.raw_total() != expect_total)) {
    std::printf("ERROR: the enforcer failed to serialize regions\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  {
    Bank bank;
    Runtime rt;
    HybridTracker<> tracker(rt, HybridConfig{});
    run_bank("without enforcement:",
             [&](ThreadId) { return DirectApi<HybridTracker<>>(rt, tracker); },
             rt, bank, /*expect_sound=*/false);
  }
  {
    Bank bank;
    Runtime rt;
    HybridTracker<> tracker(rt, HybridConfig{});
    RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
    run_bank("hybrid RS enforcer:",
             [&](ThreadId) {
               return EnforcerApi<HybridTracker<>>(rt, enforcer);
             },
             rt, bank, /*expect_sound=*/true);
  }
  std::printf("\nregions are racy on purpose — serializability comes from "
              "the enforcer's two-phase\nlocking of object states plus "
              "rollback-and-restart on mid-region responses (§5).\n");
  return 0;
}
