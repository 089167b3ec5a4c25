// contended_transfer: the batched-coordination contention suite
// (DESIGN.md §13). T threads each own a group of K hot objects and
// repeatedly take over a peer's group, ring-style: at round r every thread
// claims the group (tid + 1 + r mod (T-1)) places over — a rotation, so each
// group has exactly one taker per round and one coherent previous owner.
// Every takeover conflicts with that owner, so an unbatched transfer pays K
// explicit coordination round trips while a batched transfer posts ONE
// batched mailbox round for the whole group.
//
// Sweeps thread count x objects-per-owner x handoff rate and emits
// machine-independent gate metrics next to the wall-time series:
//
//   speedup_median       unbatched_median_s / batched_median_s
//                        (the 8x16 dense profile gates at >= 1.10)
//   batch_objects_mean   coord_batch_objects / coord_batch_rounds
//                        (gates at > 1.5: batches actually amortize)
//   rounds_per_transfer  coordination_rounds / total transfers, per config
//
// The optimistic tracker is the measured configuration: its objects never
// settle pessimistic, so every transfer exercises the coordination protocol
// the batching layer amortizes. The hybrid tracker rides along on the gate
// profile as a sanity row (its adaptive policy may park the group
// pessimistic, which is also a fine outcome — just not the one under test).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "tracking/hybrid_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/tracked_var.hpp"
#include "workload/apis.hpp"
#include "workload/harness.hpp"

using namespace ht;

namespace {

constexpr std::size_t kMaxGroup = 16;

struct TransferData {
  TrackedArray<std::uint64_t> hot;  // T groups of K: thread t homes [t*K, t*K+K)
  std::vector<std::unique_ptr<TrackedArray<std::uint64_t>>> priv;
  std::size_t k;

  TransferData(int threads, std::size_t group)
      : hot(static_cast<std::size_t>(threads) * group), k(group) {
    for (int t = 0; t < threads; ++t) {
      priv.push_back(std::make_unique<TrackedArray<std::uint64_t>>(64));
    }
  }

  template <typename Tracker>
  void init_for_thread(Tracker& tracker, ThreadContext& ctx) {
    // Each thread initializes its home group, so the very first ring
    // takeover already crosses an ownership boundary.
    for (std::size_t i = 0; i < k; ++i) {
      hot[ctx.id * k + i].init(tracker, ctx, 0);
    }
    if (ctx.id < priv.size()) priv[ctx.id]->init_all(tracker, ctx, 0);
  }
};

// One thread's run: `transfers` ring takeovers of a peer's K-object group,
// with handoff_every-1 private filler stores between takeovers (handoff
// rate). Yields every transfer so takeovers interleave across threads on a
// single-core host.
template <typename Api>
std::uint64_t transfer_body(Api& api, TransferData& d, ThreadId tid,
                            int threads, std::uint64_t transfers,
                            std::size_t k, std::uint32_t handoff_every,
                            bool batched) {
  TrackedVar<std::uint64_t>* ptrs[kMaxGroup];
  std::uint64_t vals[kMaxGroup];
  TrackedArray<std::uint64_t>& mine = *d.priv[tid];
  std::uint64_t step = 0;
  for (std::uint64_t t = 0; t < transfers; ++t) {
    for (std::uint32_t f = 1; f < handoff_every; ++f) {
      api.store(mine[step % mine.size()], step);
      ++step;
      api.poll();
    }
    // Rotation: every thread adds the same offset this round, so no two
    // threads claim the same group and every group changes hands.
    const std::size_t target =
        (tid + 1 + (t % static_cast<std::uint64_t>(threads - 1))) %
        static_cast<std::size_t>(threads);
    for (std::size_t i = 0; i < k; ++i) {
      ptrs[i] = &d.hot[target * k + i];
      vals[i] = t * k + i;
    }
    if (batched) {
      api.store_batch(ptrs, vals, k);
    } else {
      for (std::size_t i = 0; i < k; ++i) api.store(*ptrs[i], vals[i]);
    }
    api.poll();
    schedule::cadence_point(t, 1);
  }
  return step;
}

struct Profile {
  const char* name;
  int threads;
  std::size_t group;       // objects per owner (K)
  std::uint32_t handoff;   // takeover every Nth region (1 = dense)
  bool gate;               // the profile the CI perf gate reads
};

template <typename Tracker, typename MakeTracker>
TrialSeries measure(const Profile& p, std::uint64_t transfers, int trials,
                    bool batched, MakeTracker&& make_tracker,
                    TransitionStats& agg) {
  return run_trial_series(trials, [&] {
    TransferData data(p.threads, p.group);
    Runtime rt;
    Tracker trk = make_tracker(rt);
    WorkloadRunResult r = run_threads(
        p.threads, [&](ThreadId) { return DirectApi<Tracker>(rt, trk); },
        [&data](auto& api, ThreadId tid) { api.init_data(data, tid); },
        [&](auto& api, ThreadId tid) {
          return transfer_body(api, data, tid, p.threads, transfers, p.group,
                               p.handoff, batched);
        });
    agg += r.stats;
    return r;
  });
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = trials_from_env(3);
  const double scale = scale_from_env();
  const auto transfers =
      static_cast<std::uint64_t>(32 * scale) > 0
          ? static_cast<std::uint64_t>(32 * scale)
          : 1;
  const std::string json_path = json_path_from_args(argc, argv);

  const Profile profiles[] = {
      {"t2_k4_h1", 2, 4, 1, false},
      {"t4_k8_h1", 4, 8, 1, false},
      {"t8_k16_h1", 8, 16, 1, true},  // the CI gate profile
      {"t8_k16_h4", 8, 16, 4, false},
  };

  BenchJsonReport report("contended_transfer");
  report.set_meta("trials", json::Value(trials));
  report.set_meta("scale", json::Value(scale));
  report.set_meta("transfers_per_thread", json::Value(transfers));

  std::printf("== contended_transfer: batched vs unbatched ownership "
              "handoffs (median of %d trials, %llu transfers/thread) ==\n\n",
              trials, static_cast<unsigned long long>(transfers));
  std::printf("%-12s %12s %12s %9s %11s %11s\n", "profile", "unbatched_s",
              "batched_s", "speedup", "batch_mean", "rpt_batched");

  using Opt = OptimisticTracker<true>;
  const auto make_opt = [](Runtime& rt) { return Opt(rt); };

  bool gate_seen = false;
  for (const Profile& p : profiles) {
    const std::uint64_t total_transfers =
        static_cast<std::uint64_t>(p.threads) * transfers *
        static_cast<std::uint64_t>(trials + 1);  // +1: the discarded warm-up

    TransitionStats un_stats;
    const TrialSeries unbatched =
        measure<Opt>(p, transfers, trials, false, make_opt, un_stats);
    report.add_series(p.name, "unbatched", unbatched);
    report.add_stats(p.name, "unbatched", un_stats);
    report.add_value(p.name, "unbatched", "rounds_per_transfer",
                     json::Value(ratio(un_stats.coordination_rounds,
                                       total_transfers)));

    TransitionStats ba_stats;
    const TrialSeries batched =
        measure<Opt>(p, transfers, trials, true, make_opt, ba_stats);
    report.add_series(p.name, "batched", batched);
    report.add_stats(p.name, "batched", ba_stats);

    const double speedup = batched.seconds.median() > 0
                               ? unbatched.seconds.median() /
                                     batched.seconds.median()
                               : 0.0;
    const double batch_mean =
        ratio(ba_stats.coord_batch_objects, ba_stats.coord_batch_rounds);
    const double rpt =
        ratio(ba_stats.coordination_rounds, total_transfers);
    report.add_value(p.name, "batched", "speedup_median",
                     json::Value(speedup));
    report.add_value(p.name, "batched", "batch_objects_mean",
                     json::Value(batch_mean));
    report.add_value(p.name, "batched", "rounds_per_transfer",
                     json::Value(rpt));

    std::printf("%-12s %12.4f %12.4f %8.2fx %11.2f %11.2f\n", p.name,
                unbatched.seconds.median(), batched.seconds.median(), speedup,
                batch_mean, rpt);
    gate_seen |= p.gate;

    if (p.gate) {
      // Hybrid sanity rows on the gate profile only (adaptive policy may
      // take the group pessimistic; the row documents what it did).
      using Hyb = HybridTracker<true>;
      const auto make_hyb = [](Runtime& rt) {
        return Hyb(rt, HybridConfig{});
      };
      TransitionStats hu_stats;
      const TrialSeries hyb_un =
          measure<Hyb>(p, transfers, trials, false, make_hyb, hu_stats);
      report.add_series(p.name, "hybrid_unbatched", hyb_un);
      report.add_stats(p.name, "hybrid_unbatched", hu_stats);
      TransitionStats hb_stats;
      const TrialSeries hyb_ba =
          measure<Hyb>(p, transfers, trials, true, make_hyb, hb_stats);
      report.add_series(p.name, "hybrid_batched", hyb_ba);
      report.add_stats(p.name, "hybrid_batched", hb_stats);
      const double hyb_speedup =
          hyb_ba.seconds.median() > 0
              ? hyb_un.seconds.median() / hyb_ba.seconds.median()
              : 0.0;
      report.add_value(p.name, "hybrid_batched", "speedup_median",
                       json::Value(hyb_speedup));
      std::printf("%-12s %12.4f %12.4f %8.2fx %11.2f %11s  (hybrid)\n",
                  p.name, hyb_un.seconds.median(), hyb_ba.seconds.median(),
                  hyb_speedup,
                  ratio(hb_stats.coord_batch_objects,
                        hb_stats.coord_batch_rounds),
                  "-");
    }
  }

  std::printf("\nshape to check: speedup grows with group size (a batch "
              "collapses K round trips into 1); batch_objects_mean well "
              "above 1 on every dense profile\n");
  if (!gate_seen) return 2;
  if (!json_path.empty() && !report.write(json_path)) return 5;
  return 0;
}
