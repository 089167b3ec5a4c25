// Runtime substrate tests: registration, safe points, PSRO release-counter
// discipline, the coordination protocol (explicit / implicit / mutual), and
// blocking semantics.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "recorder/recorder.hpp"
#include "test_util.hpp"

namespace ht {
namespace {

using testing::BlockedThread;

TEST(ThreadRegistry, AssignsDenseIds) {
  Runtime rt;
  ThreadContext& a = rt.register_thread();
  ThreadContext& b = rt.register_thread();
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(rt.registry().high_water(), 2u);
  EXPECT_EQ(&rt.registry().context(1), &b);
}

// A harness registers each thread as its own tid, in whatever order the
// threads start; the no-argument form fills the lowest free slot.
TEST(ThreadRegistry, ClaimsRequestedSlotsInAnyOrder) {
  Runtime rt;
  ThreadContext& c = rt.register_thread(2);
  EXPECT_EQ(c.id, 2u);
  EXPECT_EQ(rt.registry().high_water(), 3u);
  EXPECT_FALSE(rt.registry().claimed(0));
  ThreadContext& a = rt.register_thread(0);
  ThreadContext& b = rt.register_thread(1);
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(rt.registry().high_water(), 3u);
  EXPECT_EQ(&rt.registry().context(2), &c);
  EXPECT_EQ(rt.register_thread().id, 3u);

  Runtime gap;
  EXPECT_EQ(gap.register_thread(1).id, 1u);
  EXPECT_EQ(gap.register_thread().id, 0u);
  EXPECT_EQ(gap.register_thread().id, 2u);
}

TEST(ThreadRegistry, ClaimingATakenSlotDies) {
  Runtime rt;
  (void)rt.register_thread(0);
  EXPECT_DEATH((void)rt.register_thread(0), "thread slot already claimed");
}

// Slot 1 is not claimed yet (its thread has not started): the scans over
// 0..high_water() skip it, as they would a thread registering after them.
TEST(ThreadRegistry, ScansSkipUnclaimedSlots) {
  Runtime rt;
  ThreadContext& self = rt.register_thread(2);
  BlockedThread b0(rt);
  ASSERT_EQ(b0.ctx().id, 0u);
  ASSERT_FALSE(rt.registry().claimed(1));

  EXPECT_FALSE(rt.coordinate_all_others(self));  // slot 0: implicit
  EXPECT_EQ(self.stats.coordination_rounds, 1u);

  const std::vector<ThreadLivenessSample> samples = rt.sample_all_threads();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].id, 0u);
  EXPECT_EQ(samples[1].id, 2u);

  DependenceRecorder recorder(rt);
  recorder.edge_all_others(self, rt);
  const Recording r = recorder.take_recording(3);
  ASSERT_EQ(r.threads[2].events.size(), 1u);
  EXPECT_EQ(r.threads[2].events[0].src, 0u);
  EXPECT_EQ(r.total_edges(), 1u);
}

TEST(ThreadRegistry, FastPathWordsMatchIds) {
  Runtime rt;
  ThreadContext& a = rt.register_thread();
  EXPECT_EQ(a.fast_wr_ex_opt, StateWord::wr_ex_opt(a.id).raw());
  EXPECT_EQ(a.fast_rd_ex_opt, StateWord::rd_ex_opt(a.id).raw());
}

TEST(Runtime, RdShCounterIsMonotonic) {
  Runtime rt;
  const std::uint32_t a = rt.next_rd_sh_counter();
  const std::uint32_t b = rt.next_rd_sh_counter();
  EXPECT_LT(a, b);
  EXPECT_GE(a, 1u);  // fresh threads (rd_sh_count == 0) must see every c as new
}

TEST(Runtime, PsroBumpsReleaseCounterAndPointIndex) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  const std::uint64_t p0 = ctx.point_index;
  rt.psro(ctx);
  rt.psro(ctx);
  EXPECT_EQ(ctx.release_counter_relaxed(), 2u);
  EXPECT_EQ(ctx.point_index, p0 + 2);
  EXPECT_EQ(ctx.stats.psros, 2u);
}

TEST(Runtime, PollRespondsToPendingRequests) {
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  ThreadContext& requester = rt.register_thread();

  // The requester's round trip completes once the owner polls.
  std::atomic<bool> done{false};
  std::thread req([&] {
    const auto r = rt.coordinate(requester, owner.id);
    EXPECT_FALSE(r.implicit);
    EXPECT_GE(r.src_release, 1u);  // responding bumped the counter
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  req.join();
  EXPECT_GE(owner.stats.responding_safepoints, 1u);
  EXPECT_GE(owner.release_counter_relaxed(), 1u);
}

TEST(Runtime, ImplicitCoordinationWithBlockedThread) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  BlockedThread blocked(rt);

  const auto r = rt.coordinate(requester, blocked.ctx().id);
  EXPECT_TRUE(r.implicit);
  // Blocking flushed and bumped before parking.
  EXPECT_GE(r.src_release, 1u);
}

TEST(Runtime, ImplicitCoordinationBumpsEpochNotState) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  BlockedThread blocked(rt);

  const std::uint64_t s0 =
      blocked.ctx().owner_side.status.load(std::memory_order_relaxed);
  (void)rt.coordinate(requester, blocked.ctx().id);
  const std::uint64_t s1 =
      blocked.ctx().owner_side.status.load(std::memory_order_relaxed);
  EXPECT_TRUE(ThreadStatus::is_blocked(s1));
  EXPECT_EQ(ThreadStatus::epoch(s1), ThreadStatus::epoch(s0) + 1);
}

TEST(Runtime, EndBlockingSurvivesConcurrentEpochBumps) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  BlockedThread blocked(rt);
  for (int i = 0; i < 5; ++i) (void)rt.coordinate(requester, blocked.ctx().id);
  blocked.wake();  // must not assert or lose the RUNNING transition
  const std::uint64_t s =
      blocked.ctx().owner_side.status.load(std::memory_order_relaxed);
  EXPECT_FALSE(ThreadStatus::is_blocked(s));
}

TEST(Runtime, UnregisteredThreadAnswersImplicitly) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  ThreadContext& leaver = rt.register_thread();
  rt.unregister_thread(leaver);
  const auto r = rt.coordinate(requester, leaver.id);
  EXPECT_TRUE(r.implicit);
  EXPECT_GE(r.src_release, 1u);  // exit bump
}

TEST(Runtime, MutualExplicitCoordinationDoesNotDeadlock) {
  // Two running threads coordinate with each other simultaneously; each must
  // answer the other from within its own wait loop (Fig 1 line 18).
  Runtime rt;
  std::atomic<ThreadContext*> ctxs[2] = {nullptr, nullptr};
  std::atomic<int> ready{0};
  std::thread a([&] {
    ThreadContext& me = rt.register_thread();
    ctxs[0].store(&me);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    (void)rt.coordinate(me, ctxs[1].load()->id);
    rt.unregister_thread(me);
  });
  std::thread b([&] {
    ThreadContext& me = rt.register_thread();
    ctxs[1].store(&me);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    (void)rt.coordinate(me, ctxs[0].load()->id);
    rt.unregister_thread(me);
  });
  a.join();
  b.join();
  SUCCEED();
}

TEST(Runtime, CoordinateAllOthersCoversEveryRegisteredThread) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  BlockedThread b1(rt), b2(rt), b3(rt);
  EXPECT_FALSE(rt.coordinate_all_others(self));  // all implicit
  EXPECT_EQ(self.stats.coordination_rounds, 3u);
}

// Waits spin about a round trip only while every live thread can have a CPU
// of its own; once registered threads outnumber the CPUs they keep the
// short spin, and an exit brings the long spin back.
TEST(Runtime, SpinRoundsShortenOnceThreadsOutnumberCpus) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  RuntimeConfig cfg;
  cfg.max_threads = cpus + 2;
  Runtime rt(cfg);
  std::vector<ThreadContext*> ctxs;
  for (unsigned i = 0; i < cpus; ++i) ctxs.push_back(&rt.register_thread());
  EXPECT_EQ(rt.spin_rounds(), Backoff::kDefaultSpinRounds);
  ctxs.push_back(&rt.register_thread());
  EXPECT_EQ(rt.spin_rounds(), Backoff::kOversubscribedSpinRounds);
  rt.unregister_thread(*ctxs.back());
  EXPECT_EQ(rt.spin_rounds(), Backoff::kDefaultSpinRounds);
}

TEST(Runtime, RespondRunsHooksInOrder) {
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  ThreadContext& requester = rt.register_thread();

  // Order contract: the release-counter bump before the flush (DESIGN.md
  // §4.3); the response-log hook after both.
  static thread_local std::vector<std::string> trace;
  trace.clear();
  owner.flush_self = &owner;
  owner.flush_fn = [](void*, ThreadContext& c) {
    trace.push_back("flush@" + std::to_string(c.release_counter_relaxed()));
  };
  owner.resp_log_self = &owner;
  owner.resp_log_fn = [](void*, ThreadContext& c) {
    trace.push_back("log@" + std::to_string(c.release_counter_relaxed()));
  };

  std::atomic<bool> done{false};
  std::thread req([&] {
    (void)rt.coordinate(requester, owner.id);
    done.store(true);
  });
  // Drive the owner from this thread; hooks run on the owner's thread (this
  // one), so the thread_local trace is visible here.
  while (!done.load()) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  req.join();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[0], "flush@1");  // bump before flush
  EXPECT_EQ(trace[1], "log@1");    // log after bump
}

TEST(Runtime, BlockingIsARespondingSafePoint) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  int flushes = 0;
  ctx.flush_self = &flushes;
  ctx.flush_fn = [](void* self, ThreadContext&) {
    ++*static_cast<int*>(self);
  };
  rt.begin_blocking(ctx);
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(ctx.release_counter_relaxed(), 1u);
  rt.end_blocking(ctx);
}

TEST(Runtime, PsroRejectedInsideRegion) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  ctx.in_region = true;
  EXPECT_DEATH(rt.psro(ctx), "PSRO inside an SBRS region");
  ctx.in_region = false;
}

}  // namespace
}  // namespace ht
