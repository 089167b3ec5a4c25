// FastTrack-style race detector: vector-clock algebra, the read/write rules
// (exclusive epoch vs inflated read vector), lock-induced happens-before,
// and end-to-end checks that the detector flags racy schedules and stays
// silent on synchronized ones.
#include "raceck/race_detector.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/vector_clock.hpp"
#include "runtime/runtime.hpp"

namespace ht {
namespace {

// --- VectorClock / Epoch -------------------------------------------------------

TEST(Epoch, PacksTidAndClock) {
  const Epoch e(5, 123456789);
  EXPECT_EQ(e.tid(), 5u);
  EXPECT_EQ(e.clock(), 123456789u);
  EXPECT_FALSE(e.is_zero());
  EXPECT_TRUE(Epoch{}.is_zero());
}

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock a, b;
  a.set(0, 3);
  a.set(1, 1);
  b.set(1, 5);
  b.set(2, 2);
  a.join(b);
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(1), 5u);
  EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, CoversEpochAndClock) {
  VectorClock c;
  c.set(1, 4);
  EXPECT_TRUE(c.covers(Epoch(1, 4)));
  EXPECT_TRUE(c.covers(Epoch(1, 3)));
  EXPECT_FALSE(c.covers(Epoch(1, 5)));
  EXPECT_FALSE(c.covers(Epoch(2, 1)));

  VectorClock d;
  d.set(1, 3);
  EXPECT_TRUE(c.covers_all(d));
  d.set(0, 1);
  EXPECT_FALSE(c.covers_all(d));
}

TEST(VectorClock, TickAdvancesOwnComponent) {
  VectorClock c;
  c.tick(3);
  c.tick(3);
  EXPECT_EQ(c.get(3), 2u);
  EXPECT_EQ(c.get(0), 0u);
}

// --- detector rules (deterministic, single OS thread, two contexts) -----------

struct DetectorFixture : ::testing::Test {
  Runtime rt;
  RaceDetector rd{8};
  ThreadContext& t0 = rt.register_thread();
  ThreadContext& t1 = rt.register_thread();
  RaceCheckedVar<std::uint64_t> x;

  void SetUp() override {
    rd.attach_thread(t0);
    rd.attach_thread(t1);
    x.init(rd, t0, 0);
  }

  RaceReport total() { return rd.total_report(2); }
};

TEST_F(DetectorFixture, SameThreadAccessesNeverRace) {
  x.store(rd, t0, 1);
  (void)x.load(rd, t0);
  x.store(rd, t0, 2);
  EXPECT_EQ(total().total(), 0u);
}

TEST_F(DetectorFixture, UnsynchronizedWriteWriteRaces) {
  x.store(rd, t0, 1);
  x.store(rd, t1, 2);
  const RaceReport r = total();
  EXPECT_EQ(r.write_write, 1u);
}

TEST_F(DetectorFixture, UnsynchronizedWriteReadRaces) {
  x.store(rd, t0, 1);
  (void)x.load(rd, t1);
  EXPECT_EQ(total().write_read, 1u);
}

TEST_F(DetectorFixture, UnsynchronizedReadWriteRaces) {
  (void)x.load(rd, t0);
  x.store(rd, t1, 1);
  EXPECT_EQ(total().read_write, 1u);
}

TEST_F(DetectorFixture, LockOrderingSuppressesRaces) {
  int lock_tag = 0;  // identity only
  rd.on_acquire(t0, &lock_tag);
  x.store(rd, t0, 1);
  rd.on_release(t0, &lock_tag);

  rd.on_acquire(t1, &lock_tag);
  (void)x.load(rd, t1);
  x.store(rd, t1, 2);
  rd.on_release(t1, &lock_tag);

  rd.on_acquire(t0, &lock_tag);
  x.store(rd, t0, 3);
  rd.on_release(t0, &lock_tag);
  EXPECT_EQ(total().total(), 0u);
}

TEST_F(DetectorFixture, DifferentLocksDoNotOrder) {
  int lock_a = 0, lock_b = 0;
  rd.on_acquire(t0, &lock_a);
  x.store(rd, t0, 1);
  rd.on_release(t0, &lock_a);

  rd.on_acquire(t1, &lock_b);
  x.store(rd, t1, 2);
  rd.on_release(t1, &lock_b);
  EXPECT_EQ(total().write_write, 1u);
}

TEST_F(DetectorFixture, SharedReadersThenOrderedWriteIsClean) {
  int lock_tag = 0;
  // Both read under the lock (still concurrent reads are fine in any case).
  rd.on_acquire(t0, &lock_tag);
  (void)x.load(rd, t0);
  rd.on_release(t0, &lock_tag);
  rd.on_acquire(t1, &lock_tag);
  (void)x.load(rd, t1);
  rd.on_release(t1, &lock_tag);
  // Writer synchronizes with both via the same lock.
  rd.on_acquire(t0, &lock_tag);
  x.store(rd, t0, 1);
  rd.on_release(t0, &lock_tag);
  EXPECT_EQ(total().total(), 0u);
}

TEST_F(DetectorFixture, SharedReadersThenRacyWrite) {
  // Concurrent reads (no sync) — reads don't race with each other...
  (void)x.load(rd, t0);
  (void)x.load(rd, t1);
  EXPECT_EQ(total().total(), 0u);
  // ...but an unordered write races with the read set (one report).
  x.store(rd, t0, 1);
  EXPECT_EQ(total().read_write, 1u);
}

TEST_F(DetectorFixture, ForkEdgeOrdersChildAfterParent) {
  x.store(rd, t0, 1);
  rd.on_fork(t0, t1);
  (void)x.load(rd, t1);  // ordered by the fork edge
  x.store(rd, t1, 2);
  EXPECT_EQ(total().total(), 0u);
}

// --- end-to-end: detector as an oracle over concurrent schedules ---------------

TEST(RaceDetectorConcurrent, SynchronizedCountersStayClean) {
  Runtime rt;
  RaceDetector rd(8);
  RaceCheckedVar<std::uint64_t> counter;
  std::mutex mu;  // identity doubles as program lock

  constexpr int kThreads = 4, kIters = 5'000;
  std::vector<std::thread> ts;
  std::atomic<int> ready{0};
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      ThreadContext& ctx = rt.register_thread();
      rd.attach_thread(ctx);
      if (ctx.id == 0) counter.init(rd, ctx, 0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int j = 0; j < kIters; ++j) {
        mu.lock();
        rd.on_acquire(ctx, &mu);
        counter.store(rd, ctx, counter.load(rd, ctx) + 1);
        rd.on_release(ctx, &mu);
        mu.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(rd.total_report(kThreads).total(), 0u);
  EXPECT_EQ(counter.raw_load(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(RaceDetectorConcurrent, RacyCountersAreFlagged) {
  Runtime rt;
  RaceDetector rd(8);
  RaceCheckedVar<std::uint64_t> counter;

  constexpr int kThreads = 4, kIters = 20'000;
  std::vector<std::thread> ts;
  std::atomic<int> ready{0};
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      ThreadContext& ctx = rt.register_thread();
      rd.attach_thread(ctx);
      if (ctx.id == 0) counter.init(rd, ctx, 0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int j = 0; j < kIters; ++j) {
        counter.store(rd, ctx, counter.load(rd, ctx) + 1);
        if (j % 64 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GT(rd.total_report(kThreads).total(), 0u);
}

}  // namespace
}  // namespace ht
