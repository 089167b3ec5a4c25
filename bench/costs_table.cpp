// §2.2 cost table: CPU cycles per state-transition kind.
//
// Paper (32-core Xeon, Jikes RVM):
//     Pessimistic   Opt same-state   Opt conflicting (explicit)   (implicit)
//     150 cycles    47 cycles        9,200 cycles                 360 cycles
//
// Shapes to reproduce: optimistic same-state is the cheapest (no atomics);
// pessimistic costs an atomic-op multiple of that; explicit coordination is
// 2-3 orders of magnitude above same-state (it pays a cross-thread round
// trip — on this container, a scheduler round trip); implicit coordination
// is within an order of magnitude of a pessimistic transition.
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/cycle_timer.hpp"
#include "enforcer/rs_enforcer.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/pessimistic_tracker.hpp"
#include "tracking/tracked_var.hpp"
#include "workload/harness.hpp"

using namespace ht;

namespace {

constexpr int kIters = 200'000;

double pessimistic_same_state_cycles() {
  Runtime rt;
  PessimisticTracker<> tracker(rt);
  ThreadContext& ctx = rt.register_thread();
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kIters; ++i) {
    var.store(tracker, ctx, static_cast<std::uint64_t>(i));
  }
  return static_cast<double>(read_cycles() - t0) / kIters;
}

double optimistic_same_state_cycles() {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  ThreadContext& ctx = rt.register_thread();
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kIters; ++i) {
    var.store(tracker, ctx, static_cast<std::uint64_t>(i));
  }
  return static_cast<double>(read_cycles() - t0) / kIters;
}

// Explicit coordination: the requester conflicts with a *running* owner that
// reaches safe points in its poll loop. Each iteration alternates ownership,
// so every tracked store is a conflicting transition.
double explicit_conflict_cycles() {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  TrackedVar<std::uint64_t> var;

  constexpr int kConflicts = 2'000;
  std::atomic<bool> stop{false};
  std::atomic<ThreadContext*> owner_ctx{nullptr};

  std::thread owner([&] {
    ThreadContext& ctx = rt.register_thread();
    var.init(tracker, ctx, 0);
    owner_ctx.store(&ctx);
    while (!stop.load(std::memory_order_relaxed)) {
      rt.poll(ctx);
      std::this_thread::yield();
    }
    rt.unregister_thread(ctx);
  });
  while (owner_ctx.load() == nullptr) std::this_thread::yield();

  ThreadContext& me = rt.register_thread();
  double cycles;
  {
    const std::uint64_t t0 = read_cycles();
    for (int i = 0; i < kConflicts; ++i) {
      // Every store conflicts: reset ownership to the remote owner between
      // measured operations (bench-only direct metadata write).
      var.meta().store_state(StateWord::wr_ex_opt(owner_ctx.load()->id));
      var.store(tracker, me, static_cast<std::uint64_t>(i));
    }
    cycles = static_cast<double>(read_cycles() - t0) / kConflicts;
  }
  stop.store(true);
  owner.join();
  return cycles;
}

// Chained explicit coordination: the owner is itself in an Int wait on an
// object a third thread holds, so the request is answered by the owner's
// wait loop (Fig 1 line 18), not by a poll. The holder keeps the Int for
// kHold at a time, as a holder whose own round trip waits on a descheduled
// thread does, then hands the object to the owner and takes it back once
// the owner's store has returned.
double chained_explicit_conflict_cycles() {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  TrackedVar<std::uint64_t> var;   // requester -> owner
  TrackedVar<std::uint64_t> held;  // owner -> holder's Int

  constexpr int kConflicts = 2'000;
  constexpr auto kHold = std::chrono::microseconds(200);
  std::atomic<bool> stop{false};
  std::atomic<ThreadContext*> owner_ctx{nullptr};
  std::atomic<std::uint64_t> owner_stores{0};

  std::thread owner([&] {
    ThreadContext& ctx = rt.register_thread();
    var.init(tracker, ctx, 0);
    held.init(tracker, ctx, 0);
    owner_ctx.store(&ctx);
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      held.store(tracker, ctx, i);  // waits while the holder has the Int
      owner_stores.fetch_add(1);
      rt.poll(ctx);
    }
    rt.unregister_thread(ctx);
  });
  while (owner_ctx.load() == nullptr) std::this_thread::yield();
  const ThreadId owner_id = owner_ctx.load()->id;

  std::thread holder([&] {
    ThreadContext& ctx = rt.register_thread();
    // Bench-only direct metadata writes: take the Int, hold it, hand the
    // object to the owner, wait until the owner's store returned.
    while (!stop.load(std::memory_order_relaxed)) {
      held.meta().store_state(StateWord::intermediate(ctx.id));
      const auto until = std::chrono::steady_clock::now() + kHold;
      while (std::chrono::steady_clock::now() < until &&
             !stop.load(std::memory_order_relaxed)) {
        rt.poll(ctx);
      }
      const std::uint64_t seen = owner_stores.load();
      held.meta().store_state(StateWord::wr_ex_opt(owner_id));
      while (owner_stores.load() == seen &&
             !stop.load(std::memory_order_relaxed)) {
        rt.poll(ctx);
      }
    }
    held.meta().store_state(StateWord::wr_ex_opt(owner_id));
    rt.unregister_thread(ctx);
  });

  ThreadContext& me = rt.register_thread();
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kConflicts; ++i) {
    var.meta().store_state(StateWord::wr_ex_opt(owner_id));
    var.store(tracker, me, static_cast<std::uint64_t>(i));
  }
  const double cycles =
      static_cast<double>(read_cycles() - t0) / kConflicts;
  stop.store(true);
  holder.join();
  owner.join();
  return cycles;
}

// RdSh fan-out (paper footnote 4): a store to a RdShOpt object coordinates
// with every other thread, here three running owners in poll loops. The
// state is reset to RdShOpt between stores, as the explicit row resets it.
double rdsh_fanout_cycles() {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  TrackedVar<std::uint64_t> var;

  constexpr int kOwners = 3;
  constexpr int kConflicts = 2'000;
  std::atomic<bool> stop{false};
  std::atomic<int> registered{0};
  std::vector<std::thread> owners;
  for (int i = 0; i < kOwners; ++i) {
    owners.emplace_back([&] {
      ThreadContext& ctx = rt.register_thread();
      registered.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        rt.poll(ctx);
        std::this_thread::yield();
      }
      rt.unregister_thread(ctx);
    });
  }
  while (registered.load() < kOwners) std::this_thread::yield();

  ThreadContext& me = rt.register_thread();
  var.init(tracker, me, 0);
  const StateWord rd_sh = StateWord::rd_sh_opt(rt.next_rd_sh_counter());
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kConflicts; ++i) {
    var.meta().store_state(rd_sh);  // bench-only direct metadata write
    var.store(tracker, me, static_cast<std::uint64_t>(i));
  }
  const double cycles = static_cast<double>(read_cycles() - t0) / kConflicts;
  stop.store(true);
  for (auto& t : owners) t.join();
  return cycles;
}

// The burst the workloads' shared warm-up makes: three threads read fresh
// objects owned by a fourth and poll after every read, so each read either
// upgrades RdEx to RdSh, bumping the global read-share counter, or takes the
// fence transition. Rounds start the readers together on freshly reset
// objects. Cycles per read, averaged over the readers.
double rdsh_upgrade_burst_cycles() {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  constexpr int kReaders = 3;
  constexpr int kObjects = 2048;
  constexpr int kRounds = 8;
  std::vector<TrackedVar<std::uint64_t>> vars(kObjects);
  std::barrier sync(kReaders + 1);
  std::atomic<int> finished{0};
  std::atomic<std::uint64_t> reader_cycles{0};

  std::thread owner([&] {
    ThreadContext& ctx = rt.register_thread();
    tracker.attach_thread(ctx);
    for (auto& v : vars) v.init(tracker, ctx, 0);
    for (int r = 1; r <= kRounds; ++r) {
      for (auto& v : vars) {  // bench-only direct metadata write
        v.meta().store_state(StateWord::rd_ex_opt(ctx.id));
      }
      sync.arrive_and_wait();
      while (finished.load() < r * kReaders) {
        rt.poll(ctx);
        std::this_thread::yield();
      }
      sync.arrive_and_wait();
    }
    rt.unregister_thread(ctx);
  });
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      ThreadContext& ctx = rt.register_thread();
      tracker.attach_thread(ctx);
      for (int r = 0; r < kRounds; ++r) {
        sync.arrive_and_wait();
        const std::uint64_t t0 = read_cycles();
        for (auto& v : vars) {
          (void)v.load(tracker, ctx);
          rt.poll(ctx);
        }
        reader_cycles.fetch_add(read_cycles() - t0);
        finished.fetch_add(1);
        sync.arrive_and_wait();
      }
      rt.unregister_thread(ctx);
    });
  }
  for (auto& t : readers) t.join();
  owner.join();
  return static_cast<double>(reader_cycles.load()) /
         (kReaders * kObjects * kRounds);
}

// Implicit coordination: the owner is parked at a blocking safe point.
double implicit_conflict_cycles() {
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  ThreadContext& owner = rt.register_thread();
  TrackedVar<std::uint64_t> var;
  var.init(tracker, owner, 0);
  rt.begin_blocking(owner);

  ThreadContext& me = rt.register_thread();
  constexpr int kConflicts = 100'000;
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kConflicts; ++i) {
    var.meta().store_state(StateWord::wr_ex_opt(owner.id));
    var.store(tracker, me, static_cast<std::uint64_t>(i));
  }
  const double cycles =
      static_cast<double>(read_cycles() - t0) / kConflicts;
  rt.end_blocking(owner);
  return cycles;
}

// Hybrid pessimistic uncontended transition (lock + buffer append), the unit
// the cost-benefit model prices as Tpess.
double hybrid_pess_uncontended_cycles() {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  var.meta().reset(StateWord::wr_ex_pess(ctx.id));
  constexpr int kOps = 100'000;
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kOps; ++i) {
    var.store(tracker, ctx, static_cast<std::uint64_t>(i));  // lock (1st) /
    rt.psro(ctx);                                            // unlock
  }
  const double cycles = static_cast<double>(read_cycles() - t0) / kOps;
  return cycles;
}

// RS enforcer layer (DESIGN.md §4.5): a committed empty region under the
// hybrid enforcer, i.e. the region bookkeeping alone. The region ends at the
// caller's next safe point, which this loop does not reach.
double enforcer_empty_region_cycles() {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  enforcer.attach_thread(ctx);
  const std::uint64_t t0 = read_cycles();
  for (int i = 0; i < kIters; ++i) enforcer.run_region(ctx, [] {});
  return static_cast<double>(read_cycles() - t0) / kIters;
}

// A same-state store inside a region, its undo entry included: regions of
// kStores stores to an owned variable, less the empty-region cost, per store.
double enforcer_region_store_cycles(double empty_region) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enforcer(rt, tracker);
  ThreadContext& ctx = rt.register_thread();
  enforcer.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  constexpr int kStores = 16;
  constexpr int kRegions = kIters / kStores;
  const std::uint64_t t0 = read_cycles();
  for (int r = 0; r < kRegions; ++r) {
    enforcer.run_region(ctx, [&] {
      for (int s = 0; s < kStores; ++s) {
        var.store(tracker, ctx, static_cast<std::uint64_t>(s));
      }
    });
  }
  const double per_region =
      static_cast<double>(read_cycles() - t0) / kRegions;
  return (per_region - empty_region) / kStores;
}

}  // namespace

int main() {
  std::printf("== §2.2 cost table: CPU cycles per transition kind ==\n");
  std::printf("(paper: pessimistic 150, opt same-state 47, explicit 9,200, "
              "implicit 360)\n\n");
  const double pess = pessimistic_same_state_cycles();
  const double same = optimistic_same_state_cycles();
  const double impl = implicit_conflict_cycles();
  const double expl = explicit_conflict_cycles();
  const double chained = chained_explicit_conflict_cycles();
  const double fanout = rdsh_fanout_cycles();
  const double burst = rdsh_upgrade_burst_cycles();
  const double hyb_pess = hybrid_pess_uncontended_cycles();
  const double region = enforcer_empty_region_cycles();
  const double region_store = enforcer_region_store_cycles(region);

  std::printf("%-48s %12.0f\n", "Pessimistic (per access, CAS + unlock):", pess);
  std::printf("%-48s %12.0f\n", "Optimistic same state (fast path):", same);
  std::printf("%-48s %12.0f\n", "Optimistic conflicting, explicit:", expl);
  std::printf("%-48s %12.0f\n",
              "Opt conflicting, explicit, owner in Int wait:", chained);
  std::printf("%-48s %12.0f\n",
              "Optimistic conflicting, RdSh, 3 running owners:", fanout);
  std::printf("%-48s %12.0f\n",
              "RdSh upgrade or fence, 3 polling readers:", burst);
  std::printf("%-48s %12.0f\n", "Optimistic conflicting, implicit:", impl);
  std::printf("%-48s %12.0f\n", "Hybrid pess uncontended (+PSRO unlock):",
              hyb_pess);
  std::printf("%-48s %12.0f\n", "Enforcer committed empty region:", region);
  std::printf("%-48s %12.0f\n", "Enforcer in-region store (+undo entry):",
              region_store);

  std::printf("\nratios (paper in parentheses):\n");
  std::printf("  pessimistic / opt-same : %8.1fx  (3.2x)\n", pess / same);
  std::printf("  explicit    / opt-same : %8.1fx  (196x)\n", expl / same);
  std::printf("  explicit    / pess     : %8.1fx  (61x)\n", expl / pess);
  std::printf("  implicit    / pess     : %8.1fx  (2.4x)\n", impl / pess);

  const double k_confl = (expl - pess) / (pess - same);
  std::printf("\nimplied K_confl = (Tconfl - Tpess)/(Tpess - TnonConfl) = %.0f"
              "  (paper uses 200)\n", k_confl);
  return 0;
}
