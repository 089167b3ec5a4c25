// Coordination-protocol edge cases and failure injection: request floods,
// blocked-owner races, RdSh fan-out with mixed running/blocked/exited
// owners, watermark semantics, and the Int-state guard.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "test_util.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/tracked_var.hpp"

namespace ht {
namespace {

using testing::BlockedThread;
using testing::state_is;

TEST(Coordination, OneResponseAnswersAllPendingRequesters) {
  // The watermark scheme means a single responding safe point satisfies any
  // number of outstanding tickets — the paper's "whenever a safe point
  // responds ... to coordination request(s)".
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  constexpr int kRequesters = 6;
  std::atomic<int> done{0};
  std::vector<std::thread> reqs;
  for (int i = 0; i < kRequesters; ++i) {
    reqs.emplace_back([&] {
      ThreadContext& me = rt.register_thread();
      (void)rt.coordinate(me, owner.id);
      done.fetch_add(1);
    });
  }
  // Wait until every requester has (at least potentially) ticketed, then
  // respond; keep polling until all are through.
  while (done.load() < kRequesters) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  for (auto& t : reqs) t.join();
  // Far fewer responding safe points than requesters is the common case.
  EXPECT_LE(owner.stats.responding_safepoints,
            static_cast<std::uint64_t>(kRequesters));
}

TEST(Coordination, RequestFloodDoesNotWedgeOwner) {
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  std::atomic<bool> stop{false};
  std::atomic<bool> flooder_done{false};
  std::atomic<std::uint64_t> rounds{0};
  std::thread flooder([&] {
    ThreadContext& me = rt.register_thread();
    while (!stop.load()) {
      (void)rt.coordinate(me, owner.id);
      rounds.fetch_add(1);
    }
    flooder_done.store(true);
  });
  // Keep polling past the budget until the flooder (which may start late)
  // has been answered at least once.
  for (int i = 0; i < 20000 || rounds.load() == 0; ++i) {
    rt.poll(owner);
    if (i % 64 == 0) std::this_thread::yield();
  }
  stop.store(true);
  // The flooder may be mid-wait, or may post one more request after reading
  // stop just before it was set; answer it until it exits.
  while (!flooder_done.load()) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  flooder.join();
  EXPECT_GT(rounds.load(), 0u);
}

TEST(Coordination, BlockedOwnerWakesThroughEpochStorm) {
  // Requesters hammer implicit coordination while the owner blocks/unblocks
  // repeatedly; the epoch CAS discipline must never lose a wake-up.
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  std::atomic<bool> stop{false};
  std::vector<std::thread> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.emplace_back([&] {
      ThreadContext& me = rt.register_thread();
      while (!stop.load()) {
        (void)rt.coordinate(me, owner.id);
        std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    rt.begin_blocking(owner);
    std::this_thread::yield();
    rt.end_blocking(owner);
    rt.poll(owner);
  }
  stop.store(true);
  // Keep the owner responsive while requesters drain out of their waits.
  for (int i = 0; i < 100000; ++i) {
    rt.poll(owner);
    std::this_thread::yield();
    bool all_done = true;
    for (auto& t : reqs) all_done &= t.joinable();
    (void)all_done;
    if (i > 1000) break;
  }
  rt.begin_blocking(owner);  // park so stragglers finish implicitly
  for (auto& t : reqs) t.join();
  rt.end_blocking(owner);
  SUCCEED();
}

TEST(Coordination, RdShConflictWithMixedOwnerStates) {
  // Write to a RdSh object whose readers are: one blocked, one exited, one
  // running (driven by this thread). Coordination must handle all three.
  Runtime rt;
  OptimisticTracker<true> tracker(rt);
  ThreadContext& alloc = rt.register_thread();
  TrackedVar<std::uint64_t> var;
  var.init(tracker, alloc, 5);

  ThreadContext& exiter = rt.register_thread();
  BlockedThread blocked(rt);
  // Both contexts run on this OS thread, so the conflicting first read must
  // find the owner at a blocking safe point (implicit coordination).
  rt.begin_blocking(alloc);
  (void)var.load(tracker, exiter);       // conflicting -> RdExOpt(exiter)
  ThreadContext& reader2 = rt.register_thread();
  (void)var.load(tracker, reader2);      // upgrade -> RdShOpt
  rt.end_blocking(alloc);
  ASSERT_TRUE(state_is(var.meta(), StateKind::kRdShOpt));

  rt.unregister_thread(exiter);          // one reader exits

  // Writer thread conflicts with everyone; this thread polls for the
  // running contexts it owns (alloc, reader2).
  std::atomic<bool> done{false};
  std::thread writer([&] {
    ThreadContext& w = rt.register_thread();
    var.store(tracker, w, 9);
    EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, w.id));
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(alloc);
    rt.poll(reader2);
    std::this_thread::yield();
  }
  writer.join();
  EXPECT_EQ(var.raw_load(), 9u);
}

TEST(Coordination, IntStateBlocksThirdPartiesUntilResolved) {
  // While a conflicting transition holds Int, other accessors spin at safe
  // points; once resolved they proceed against the new state.
  Runtime rt;
  OptimisticTracker<> tracker(rt);
  ThreadContext& owner = rt.register_thread();
  TrackedVar<std::uint64_t> var;
  var.init(tracker, owner, 1);

  // Fabricate a stuck Int held by a registered-but-parked requester.
  BlockedThread parked(rt);
  var.meta().reset(StateWord::intermediate(parked.ctx().id));

  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    ThreadContext& r = rt.register_thread();
    EXPECT_EQ(var.load(tracker, r), 1u);
    read_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read_done.load());  // still spinning on Int
  // Resolve the Int as its holder would.
  var.meta().store_state(StateWord::wr_ex_opt(parked.ctx().id));
  reader.join();
  EXPECT_TRUE(read_done.load());
}

TEST(Coordination, ExitedThreadsNeverBlockRdShFanOut) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  for (int i = 0; i < 5; ++i) {
    ThreadContext& t = rt.register_thread();
    rt.unregister_thread(t);
  }
  EXPECT_FALSE(rt.coordinate_all_others(self));  // all implicit, immediate
  EXPECT_EQ(self.stats.coordination_rounds, 5u);
}

TEST(Coordination, AllOthersPostsEveryRequestBeforeWaiting) {
  // Each running owner answers only once all three owners hold a pending
  // ticket, so the fan-out completes only if it posts every request before
  // it waits. Round trips run one after another would leave the first owner
  // silent, and the fail-fast watchdog would throw instead of hanging.
  constexpr int kOwners = 3;
  RuntimeConfig cfg;
  cfg.watchdog.stall_epochs = 1024;
  cfg.watchdog.on_stall = WatchdogConfig::OnStall::kFailFast;
  cfg.watchdog.sink = [](const CoordStallDiagnostic&) {};
  Runtime rt(cfg);
  ThreadContext& self = rt.register_thread();
  std::atomic<int> registered{0};
  std::atomic<bool> all_ticketed{false};
  std::atomic<bool> finished{false};
  std::vector<std::thread> owners;
  for (int i = 0; i < kOwners; ++i) {
    owners.emplace_back([&] {
      ThreadContext& me = rt.register_thread();
      registered.fetch_add(1);
      while (!finished.load() && !all_ticketed.load()) {
        bool all = registered.load() == kOwners;
        for (ThreadId t = 1; all && t <= kOwners; ++t) {
          all = rt.registry().context(t).requests_pending();
        }
        if (all) all_ticketed.store(true);
        std::this_thread::yield();
      }
      while (!finished.load()) {
        rt.poll(me);
        std::this_thread::yield();
      }
      rt.unregister_thread(me);
    });
  }
  while (registered.load() < kOwners) std::this_thread::yield();
  try {
    EXPECT_TRUE(rt.coordinate_all_others(self));
  } catch (const CoordinationStalled& stall) {
    ADD_FAILURE() << "T" << stall.diagnostic.owner
                  << " never answered: a request was posted after a wait";
  }
  EXPECT_TRUE(all_ticketed.load());
  EXPECT_EQ(self.stats.coordination_rounds, static_cast<std::uint64_t>(kOwners));
  finished.store(true);
  for (auto& t : owners) t.join();
}

}  // namespace
}  // namespace ht
