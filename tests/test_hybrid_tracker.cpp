// Hybrid tracking tests: every Table 3 transition family, deferred unlocking
// (lock buffer + flush at PSROs and responding safe points), reentrancy,
// contended fallbacks, the adaptive policy's state transfers, and the §7.1
// WrExRLock configuration modes.
//
// Objects are pushed into pessimistic states either through the policy
// (repeat conflicts past Cutoff_confl) or, for targeted transition tests, by
// a policy with cutoff 1 so the first explicit conflict transfers.
#include "tracking/hybrid_tracker.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/xorshift.hpp"
#include "recorder/recorder.hpp"
#include "runtime/sync.hpp"
#include "test_util.hpp"
#include "tracking/tracked_var.hpp"

namespace ht {
namespace {

using testing::BlockedThread;
using testing::state_is;

using Tracker = HybridTracker</*kStats=*/true>;

HybridConfig cutoff1_config() {
  HybridConfig c;
  c.policy.cutoff_confl = 1;
  return c;
}

struct HybridFixture : ::testing::Test {
  Runtime rt;
  Tracker tracker{rt, cutoff1_config()};
  ThreadContext& t0 = rt.register_thread();
  TrackedVar<std::uint64_t> var;

  void SetUp() override {
    tracker.attach_thread(t0);
    var.init(tracker, t0, 7);
  }

  // Registers and attaches a fresh context.
  ThreadContext& fresh_thread() {
    ThreadContext& c = rt.register_thread();
    tracker.attach_thread(c);
    return c;
  }

  // Forces the object into WrExWLock(owner) via an explicit-conflict pattern:
  // owner writes while the previous owner is blocked... with cutoff 1 a
  // single conflicting write by `owner` transfers the object to pessimistic.
  void make_wr_ex_wlock(ThreadContext& owner, BlockedThread& victim) {
    // victim owns first
    (void)victim;  // victim is blocked; var currently owned by t0.
    var.store(tracker, owner, 100);  // conflicting -> policy -> WrExWLock
  }
};

TEST_F(HybridFixture, StartsOptimistic) {
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, t0.id));
  var.store(tracker, t0, 1);
  EXPECT_EQ(t0.stats.opt_same, 1u);
}

TEST_F(HybridFixture, ImplicitConflictDoesNotTransferToPess) {
  // Footnote 7: the policy counts only explicit-coordination conflicts, so
  // an implicit conflict (owner blocked) leaves the object optimistic even
  // with cutoff 1.
  rt.begin_blocking(t0);
  ThreadContext& t1 = fresh_thread();
  var.store(tracker, t1, 9);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, t1.id));
  EXPECT_EQ(t1.stats.opt_confl_implicit, 1u);
  EXPECT_EQ(t1.stats.opt_to_pess, 0u);
  rt.end_blocking(t0);
}

TEST_F(HybridFixture, ExplicitConflictTransfersToPessimistic) {
  ThreadContext& t1 = fresh_thread();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    var.store(tracker, t1, 9);  // explicit conflict with running t0
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(t0);
    std::this_thread::yield();
  }
  writer.join();
  // cutoff 1: the object landed write-locked by t1 and is in t1's buffer.
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t1.id));
  EXPECT_EQ(t1.stats.opt_to_pess, 1u);
  ASSERT_EQ(t1.lock_buffer.size(), 1u);
  EXPECT_EQ(t1.lock_buffer[0], &var.meta());
  // Flush unlocks to WrExPess (fresh pessimistic counters keep it pess).
  tracker.flush(t1);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExPess, t1.id));
  EXPECT_TRUE(t1.lock_buffer.empty());
}

// ---- pessimistic uncontended transitions (Table 3) --------------------------

struct PessStateFixture : HybridFixture {
  ThreadContext* owner = nullptr;  // pessimistic owner of var (unlocked)

  void SetUp() override {
    HybridFixture::SetUp();
    // Drive var to WrExPess(t1) deterministically: explicit conflict by t1
    // (t0 polls), then flush t1.
    ThreadContext& t1 = fresh_thread();
    std::atomic<bool> done{false};
    std::thread writer([&] {
      var.store(tracker, t1, 50);
      done.store(true);
    });
    while (!done.load()) {
      rt.poll(t0);
      std::this_thread::yield();
    }
    writer.join();
    tracker.flush(t1);
    ASSERT_TRUE(state_is(var.meta(), StateKind::kWrExPess, t1.id));
    owner = &t1;
  }
};

TEST_F(PessStateFixture, WriteByOwnerLocksWrExWLock) {
  var.store(tracker, *owner, 51);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, owner->id));
  EXPECT_EQ(owner->stats.pess_uncontended, 1u);
  EXPECT_EQ(owner->stats.pess_reentrant, 0u);
  // Reentrant same-state write and read while write-locked.
  var.store(tracker, *owner, 52);
  (void)var.load(tracker, *owner);
  EXPECT_EQ(owner->stats.pess_uncontended, 3u);
  EXPECT_EQ(owner->stats.pess_reentrant, 2u);
  tracker.flush(*owner);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExPess, owner->id));
}

TEST_F(PessStateFixture, ReadByOwnerTakesWrExRLockInFullModel) {
  (void)var.load(tracker, *owner);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExRLock, owner->id));
  EXPECT_TRUE(owner->rd_set.contains(&var.meta()));
  // Reentrant re-read.
  (void)var.load(tracker, *owner);
  EXPECT_EQ(owner->stats.pess_reentrant, 1u);
  // Own write upgrades the read lock in place (no new buffer entry).
  var.store(tracker, *owner, 60);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, owner->id));
  EXPECT_EQ(owner->lock_buffer.size(), 1u);
  tracker.flush(*owner);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExPess, owner->id));
}

TEST_F(PessStateFixture, CrossReadOfWrExPessTakesRdExRLock) {
  EXPECT_EQ(var.load(tracker, t0), 50u);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kRdExRLock, t0.id));
  EXPECT_EQ(t0.stats.pess_uncontended, 1u);
  tracker.flush(t0);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kRdExPess, t0.id));
}

TEST_F(PessStateFixture, CrossWriteOfWrExPessTakesWrExWLock) {
  var.store(tracker, t0, 61);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t0.id));
  tracker.flush(t0);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExPess, t0.id));
}

// ---- deferred-unlock flush window (DESIGN.md §4.3) -------------------------

// A thread that seizes a pessimistic state the moment its owner's flush
// unlocks it records the owner's release counter, and that counter must
// already cover the owner's last region: a flush point bumps BEFORE it
// unlocks. Had the flush come first, the edge would carry the pre-bump
// counter and replay could read a stale value. The seizing load runs inside
// the owner's flush hook, right after the real flush, so the window is hit
// every run.
TEST(HybridRecorder, SeizeRightAfterFlushRecordsPostBumpCounter) {
  using RecTracker = HybridTracker</*kStats=*/true, DependenceRecorder>;
  Runtime rt;
  DependenceRecorder rec(rt);
  RecTracker tracker{rt, cutoff1_config(), &rec};
  ThreadContext& t2 = rt.register_thread();
  ThreadContext& t1 = rt.register_thread();
  for (ThreadContext* c : {&t2, &t1}) {
    tracker.attach_thread(*c);
    rec.attach_thread(*c);
  }
  TrackedVar<std::uint64_t> var;
  var.init(tracker, t2, 7);

  // Drive var to WrExPess(t1) as PessStateFixture does.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    var.store(tracker, t1, 50);
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(t2);
    std::this_thread::yield();
  }
  writer.join();
  tracker.flush(t1);
  ASSERT_TRUE(state_is(var.meta(), StateKind::kWrExPess, t1.id));

  // T1 write-locks var and reaches a PSRO.
  var.store(tracker, t1, 51);
  ASSERT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t1.id));
  struct FlushThenSeize {
    ThreadHook flush_fn;
    void* flush_self;
    RecTracker* tracker;
    TrackedVar<std::uint64_t>* var;
    ThreadContext* seizer;
    bool seized = false;
  } hook{t1.flush_fn, t1.flush_self, &tracker, &var, &t2};
  t1.flush_self = &hook;
  t1.flush_fn = [](void* self, ThreadContext& c) {
    auto* h = static_cast<FlushThenSeize*>(self);
    h->flush_fn(h->flush_self, c);
    // Only an unlocked pessimistic state is seized without coordinating
    // with T1, which cannot respond from inside its own flush.
    if (!state_is(h->var->meta(), StateKind::kWrExPess, c.id)) return;
    EXPECT_EQ(h->var->load(*h->tracker, *h->seizer), 51u);
    h->seized = true;
  };
  const std::size_t edges_before = rec.log(t2.id).events.size();
  rt.psro(t1);
  ASSERT_TRUE(hook.seized);

  const auto& events = rec.log(t2.id).events;
  ASSERT_EQ(events.size(), edges_before + 1);
  const LogEvent& e = events.back();
  EXPECT_EQ(e.type, LogEventType::kEdge);
  EXPECT_EQ(e.src, t1.id);
  EXPECT_EQ(e.value, t1.release_counter_relaxed());
}

TEST_F(PessStateFixture, ReadShareFormationAndJoin) {
  // owner read-locks its WrExPess -> WrExRLock; t0 joins -> RdShRLock(2).
  (void)var.load(tracker, *owner);
  (void)var.load(tracker, t0);
  StateWord s = var.meta().load_state();
  EXPECT_EQ(s.kind(), StateKind::kRdShRLock);
  EXPECT_EQ(s.rdlock_count(), 2u);
  EXPECT_TRUE(t0.rd_set.contains(&var.meta()));
  EXPECT_GE(t0.rd_sh_count, s.counter());

  // Third reader joins: n=3.
  ThreadContext& t2 = fresh_thread();
  (void)var.load(tracker, t2);
  s = var.meta().load_state();
  EXPECT_EQ(s.rdlock_count(), 3u);

  // Reentrant reads do not change n.
  (void)var.load(tracker, t0);
  EXPECT_EQ(var.meta().load_state().rdlock_count(), 3u);

  // Flushes decrement; the last unlock yields RdShPess with the counter kept.
  tracker.flush(*owner);
  EXPECT_EQ(var.meta().load_state().rdlock_count(), 2u);
  tracker.flush(t2);
  EXPECT_EQ(var.meta().load_state().rdlock_count(), 1u);
  tracker.flush(t0);
  const StateWord fin = var.meta().load_state();
  EXPECT_EQ(fin.kind(), StateKind::kRdShPess);
  EXPECT_EQ(fin.counter(), s.counter());
}

TEST_F(PessStateFixture, RdShPessReadLocksAndWriteReclaims) {
  // Form RdShPess as in ReadShareFormationAndJoin.
  (void)var.load(tracker, *owner);
  (void)var.load(tracker, t0);
  tracker.flush(*owner);
  tracker.flush(t0);
  ASSERT_TRUE(state_is(var.meta(), StateKind::kRdShPess));

  // A read of unlocked RdShPess takes a single read lock, same counter.
  const std::uint32_t c = var.meta().load_state().counter();
  (void)var.load(tracker, t0);
  StateWord s = var.meta().load_state();
  EXPECT_EQ(s.kind(), StateKind::kRdShRLock);
  EXPECT_EQ(s.counter(), c);
  EXPECT_EQ(s.rdlock_count(), 1u);
  tracker.flush(t0);

  // A write of unlocked RdShPess write-locks directly.
  var.store(tracker, t0, 70);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t0.id));
  tracker.flush(t0);
}

TEST_F(PessStateFixture, SoleReadLockHolderUpgradesToWriteWithoutDeadlock) {
  (void)var.load(tracker, t0);  // RdExRLock(t0)
  var.store(tracker, t0, 80);   // must not deadlock against our own lock
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t0.id));
  tracker.flush(t0);
}

TEST_F(PessStateFixture, SoleRdShRLockHolderUpgradesToWrite) {
  // Form RdShPess, then read-lock it solo, then write.
  (void)var.load(tracker, *owner);
  (void)var.load(tracker, t0);
  tracker.flush(*owner);
  tracker.flush(t0);
  (void)var.load(tracker, t0);  // RdShRLock(1), sole holder t0
  var.store(tracker, t0, 90);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t0.id));
  tracker.flush(t0);
}

TEST_F(PessStateFixture, ContendedTransitionFallsBackToCoordination) {
  // owner write-locks; t0's write is contended and coordinates; owner's
  // responding safe point flushes, letting t0 proceed.
  var.store(tracker, *owner, 51);
  ASSERT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, owner->id));

  std::atomic<bool> done{false};
  std::thread contender([&] {
    var.store(tracker, t0, 61);
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(*owner);  // responding safe point: flush + answer
    std::this_thread::yield();
  }
  contender.join();
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, t0.id));
  EXPECT_GE(t0.stats.pess_contended, 1u);
  EXPECT_TRUE(owner->lock_buffer.empty());  // flushed when responding
  tracker.flush(t0);
}

TEST_F(PessStateFixture, PsroFlushesLockBuffer) {
  var.store(tracker, *owner, 51);
  ASSERT_FALSE(owner->lock_buffer.empty());
  rt.psro(*owner);
  EXPECT_TRUE(owner->lock_buffer.empty());
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExPess, owner->id));
}

TEST_F(PessStateFixture, BlockingFlushesLockBuffer) {
  var.store(tracker, *owner, 51);
  rt.begin_blocking(*owner);
  EXPECT_TRUE(owner->lock_buffer.empty());
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExPess, owner->id));
  rt.end_blocking(*owner);
}

TEST_F(PessStateFixture, PolicyReturnsLowConflictObjectToOptimistic) {
  // Rack up non-conflicting pessimistic transitions past K*0 + Inertia, then
  // flush: the object must go back to optimistic and stay there.
  HybridConfig cfg;
  cfg.policy.cutoff_confl = 1;
  cfg.policy.k_confl = 10;
  cfg.policy.inertia = 5;
  Tracker t2(rt, cfg);
  t2.attach_thread(*owner);
  // var is WrExPess(owner); 6 owner writes = 6 non-conflicting transitions.
  for (int i = 0; i < 6; ++i) var.store(t2, *owner, 1);
  t2.flush(*owner);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, owner->id));
  EXPECT_EQ(owner->stats.pess_to_opt, 1u);
  EXPECT_TRUE(var.meta().profile().load().must_stay_opt());
}

// Every reentrant access reaches the tracker and feeds Eq. 5: N writes to a
// held write lock, with no safe point between them, are N non-conflicting
// pessimistic transitions in the object's profile.
TEST_F(PessStateFixture, ReentrantWritesEachRaisePessNonConfl) {
  var.store(tracker, *owner, 1);  // take the write lock
  ASSERT_TRUE(state_is(var.meta(), StateKind::kWrExWLock, owner->id));
  const std::uint32_t before = var.meta().profile().load().pess_non_confl();
  constexpr std::uint32_t kN = 40;
  for (std::uint32_t i = 0; i < kN; ++i) var.store(tracker, *owner, i);
  EXPECT_EQ(var.meta().profile().load().pess_non_confl(), before + kN);
  EXPECT_EQ(owner->stats.pess_reentrant, kN);
  tracker.flush(*owner);
}

// ElisionTracking: a reentrant held-lock loop, the access shape barrier
// elision (removed, DESIGN.md §15) targeted. Every access reaches the tracker.
TEST(ElisionTracking, HybridReentrantHeldLockLoopStaysLockedUntilFlush) {
  Runtime rt;
  Tracker tracker(rt, HybridConfig{});
  ThreadContext& ctx = rt.register_thread();
  tracker.attach_thread(ctx);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, ctx, 0);
  var.meta().reset(StateWord::wr_ex_pess(ctx.id));

  constexpr std::uint64_t kN = 500;
  for (std::uint64_t i = 1; i <= kN; ++i) var.store(tracker, ctx, i);
  // The write lock is held for the whole loop and the value is current.
  EXPECT_EQ(var.meta().load_state().kind(), StateKind::kWrExWLock);
  EXPECT_EQ(var.raw_load(), kN);
  EXPECT_EQ(ctx.stats.accesses(), kN);
  EXPECT_EQ(ctx.stats.pess_reentrant, kN - 1);

  // flush() releases the lock. All kN non-conflicting transitions were
  // profiled, past Inertia with no conflicts, so Eq. 5 returns the object
  // to optimistic.
  tracker.flush(ctx);
  EXPECT_TRUE(state_is(var.meta(), StateKind::kWrExOpt, ctx.id));
  EXPECT_EQ(ctx.stats.pess_to_opt, 1u);
}

// ---- WrExRLock configuration modes (§7.1) ------------------------------------

TEST(HybridModes, PrototypeModeWriteLocksOnOwnerRead) {
  Runtime rt;
  HybridConfig cfg = cutoff1_config();
  cfg.wr_ex_read_mode = WrExReadMode::kOmitWrExRLock;
  Tracker tracker(rt, cfg);
  ThreadContext& t0 = rt.register_thread();
  tracker.attach_thread(t0);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, t0, 0);
  // Push to WrExPess(t0) via a blocked victim is impossible (implicit not
  // counted); set the state directly instead — unit scope.
  var.meta().reset(StateWord::wr_ex_pess(t0.id));
  (void)var.load(tracker, t0);
  EXPECT_TRUE(testing::state_is(var.meta(), StateKind::kWrExWLock, t0.id));
  tracker.flush(t0);
}

TEST(HybridModes, UnsoundModeDowngradesOnOwnerRead) {
  Runtime rt;
  HybridConfig cfg = cutoff1_config();
  cfg.wr_ex_read_mode = WrExReadMode::kUnsoundDowngrade;
  Tracker tracker(rt, cfg);
  ThreadContext& t0 = rt.register_thread();
  tracker.attach_thread(t0);
  TrackedVar<std::uint64_t> var;
  var.init(tracker, t0, 0);
  var.meta().reset(StateWord::wr_ex_pess(t0.id));
  (void)var.load(tracker, t0);
  EXPECT_TRUE(testing::state_is(var.meta(), StateKind::kRdExRLock, t0.id));
  tracker.flush(t0);
}

// ---- multithreaded stress ------------------------------------------------------

TEST(HybridStress, MixedWorkloadKeepsMetadataConsistent) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  constexpr int kThreads = 4;
  constexpr int kObjects = 32;
  constexpr int kOps = 20000;
  std::vector<TrackedVar<std::uint64_t>> vars(kObjects);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadContext& ctx = rt.register_thread();
      tracker.attach_thread(ctx);
      if (ctx.id == 0) {
        for (auto& v : vars) v.init(tracker, ctx, 0);
      }
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        rt.poll(ctx);
        std::this_thread::yield();
      }
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 99);
      for (int i = 0; i < kOps; ++i) {
        auto& v = vars[rng.next_below(kObjects)];
        if (rng.chance(40, 100)) {
          v.store(tracker, ctx, rng.next());
        } else {
          (void)v.load(tracker, ctx);
        }
        if (rng.chance(1, 16)) rt.psro(ctx);
        rt.poll(ctx);
      }
      rt.unregister_thread(ctx);
    });
  }
  for (auto& th : threads) th.join();
  // After all threads flushed and exited, every state must be unlocked.
  for (auto& v : vars) {
    const StateWord s = v.meta().load_state();
    EXPECT_TRUE(s.is_optimistic() || s.is_pess_unlocked()) << s.to_string();
  }
}

}  // namespace
}  // namespace ht
