// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/cache_line.hpp"
#include "common/flat_set.hpp"
#include "common/json.hpp"
#include "common/mpsc_queue.hpp"
#include "common/spin.hpp"
#include "common/stats.hpp"
#include "common/xorshift.hpp"
#include "telemetry/metrics.hpp"

namespace ht {
namespace {

// --- RunStats ---------------------------------------------------------------

TEST(RunStats, MedianOddEven) {
  RunStats s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(RunStats, MeanAndStddev) {
  RunStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_GT(s.ci95_half_width(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunStats, SingleSampleHasZeroCi) {
  RunStats s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunStats, EmptyStatsNeverReturnNan) {
  const RunStats s;
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(RunStats, PercentileInterpolatesBetweenSortedSamples) {
  RunStats s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), s.median());
  // rank = 0.25 * 3 = 0.75 -> 1.0 + 0.75 * (2.0 - 1.0)
  EXPECT_DOUBLE_EQ(s.percentile(25), 1.75);
  // Out-of-range requests clamp to the extremes.
  EXPECT_DOUBLE_EQ(s.percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(200), 4.0);
}

TEST(RunStats, PercentileOfSingleSample) {
  RunStats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(10), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(90), 7.0);
}

TEST(GeomeanOverhead, MatchesHandComputation) {
  // (1.10 * 1.21)^(1/2) - 1 = 0.1537...
  EXPECT_NEAR(geomean_overhead({0.10, 0.21}), 0.15372, 1e-4);
  EXPECT_NEAR(geomean_overhead({0.0, 0.0}), 0.0, 1e-12);
  // Speedups (negative overhead) participate correctly.
  EXPECT_LT(geomean_overhead({-0.5, 0.0}), 0.0);
}

TEST(FormatSci, SmallIntegersPrintPlainly) {
  EXPECT_EQ(format_sci(0), "0");
  EXPECT_EQ(format_sci(7), "7");
  EXPECT_EQ(format_sci(99), "99");
}

TEST(FormatSci, LargeValuesUseMantissaExponent) {
  EXPECT_EQ(format_sci(1.2e10), "1.2e10");
  EXPECT_EQ(format_sci(6.1e8), "6.1e8");
  EXPECT_EQ(format_sci(130), "1.3e2");
}

// --- json ---------------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  json::Object o;
  o["n"] = json::Value(std::uint64_t{18446744073709551615ull} / 2);  // 2^63-ish
  o["s"] = json::Value(std::string("a\"b\\c\n"));
  o["b"] = json::Value(true);
  o["arr"] = json::Value(json::Array{json::Value(1.5), json::Value()});
  const std::string text = json::Value(std::move(o)).dump();

  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::parse(text, parsed, &error)) << error;
  EXPECT_EQ(parsed.at("s").as_string(), "a\"b\\c\n");
  EXPECT_TRUE(parsed.at("b").as_bool());
  EXPECT_DOUBLE_EQ(parsed.at("arr").at(0).as_double(), 1.5);
  EXPECT_TRUE(parsed.at("arr").at(1).is_null());
  EXPECT_TRUE(parsed.at("missing").is_null());
}

TEST(Json, RejectsMalformedInput) {
  json::Value v;
  std::string error;
  EXPECT_FALSE(json::parse("", v, &error));
  EXPECT_FALSE(json::parse("{\"a\":1", v, &error));
  EXPECT_FALSE(json::parse("{} trailing", v, &error));
  EXPECT_FALSE(json::parse("{\"a\":1}x", v, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Json, IntegersSurviveExactly) {
  EXPECT_EQ(json::Value(std::uint64_t{123456789012345ull}).dump(),
            "123456789012345");
  json::Value v;
  ASSERT_TRUE(json::parse("123456789012345", v));
  EXPECT_EQ(v.as_u64(), 123456789012345ull);
}

// --- Log2Histogram ------------------------------------------------------------

TEST(Log2Histogram, BucketsByPowerOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(1000);
  EXPECT_EQ(h.total_weight(), 6u);
  EXPECT_EQ(h.cumulative_le(0), 1u);
  EXPECT_EQ(h.cumulative_le(1), 2u);
  EXPECT_EQ(h.cumulative_le(3), 4u);  // 0,1,{2,3}
  EXPECT_EQ(h.cumulative_le(4), 5u);
  EXPECT_EQ(h.cumulative_le(1 << 20), 6u);
}

TEST(Log2Histogram, WeightsAccumulate) {
  Log2Histogram h;
  h.add(5, 10);
  h.add(6, 20);
  EXPECT_EQ(h.total_weight(), 30u);
  EXPECT_EQ(h.cumulative_le(7), 30u);
}

TEST(Log2Histogram, EmptyHistogramHasNoWeightAnywhere) {
  const Log2Histogram h;
  EXPECT_EQ(h.total_weight(), 0u);
  EXPECT_EQ(h.cumulative_le(0), 0u);
  EXPECT_EQ(h.cumulative_le(~std::uint64_t{0}), 0u);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    EXPECT_EQ(h.bucket(i), 0u);
  }
}

TEST(Log2Histogram, ZeroValueLandsInBucketZero) {
  Log2Histogram h;
  h.add(0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.cumulative_le(0), 1u);
  EXPECT_EQ(Log2Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_floor(1), 1u);
}

TEST(Log2Histogram, MaxValueClampsToOverflowBucket) {
  // 64 - clz(UINT64_MAX) = 64, far past the default 40 buckets: the value
  // must land in the last (overflow) bucket, not index out of range.
  Log2Histogram h;
  h.add(~std::uint64_t{0});
  h.add((std::uint64_t{1} << 40));  // first value past the covered range
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 2u);
  EXPECT_EQ(h.total_weight(), 2u);
  EXPECT_EQ(h.cumulative_le(~std::uint64_t{0}), 2u);
}

// --- LatencyHistogram edge cases ---------------------------------------------

TEST(LatencyHistogram, ZeroSamplesExportEmpty) {
  const telemetry::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, ValueZeroCountsWithoutAffectingSumOrMax) {
  telemetry::LatencyHistogram h;
  h.add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.buckets().bucket(0), 1u);
}

TEST(LatencyHistogram, MaxValueSaturatesOverflowBucketAndMax) {
  telemetry::LatencyHistogram h;
  h.add(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_EQ(h.buckets().bucket(h.buckets().bucket_count() - 1), 1u);
}

// --- Xoshiro ---------------------------------------------------------------------

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Xoshiro256 a2(42), c2(43);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= a2.next() != c2.next();
  EXPECT_TRUE(differs);
}

TEST(Xoshiro, NextBelowIsInRange) {
  Xoshiro256 r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 16ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Xoshiro, ChanceIsRoughlyCalibrated) {
  Xoshiro256 r(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(25, 100) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.02);
}

// --- FlatPtrSet ---------------------------------------------------------------------

TEST(FlatPtrSet, InsertContainsClear) {
  FlatPtrSet s;
  int dummy[100];
  EXPECT_TRUE(s.empty());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(s.insert(&dummy[i]));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(s.insert(&dummy[i]));
  EXPECT_EQ(s.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(s.contains(&dummy[i]));
  s.clear();
  EXPECT_TRUE(s.empty());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(&dummy[i]));
}

TEST(FlatPtrSet, GrowsPastInitialCapacity) {
  FlatPtrSet s(16);
  std::vector<std::unique_ptr<int>> ptrs;
  for (int i = 0; i < 1000; ++i) {
    ptrs.push_back(std::make_unique<int>(i));
    EXPECT_TRUE(s.insert(ptrs.back().get()));
  }
  EXPECT_EQ(s.size(), 1000u);
  for (const auto& p : ptrs) EXPECT_TRUE(s.contains(p.get()));
}

TEST(FlatPtrSet, SurvivesClearReuseCycles) {
  // The pessimistic read set is cleared wholesale at every lock-buffer
  // flush and immediately refilled; membership must stay exact across many
  // such cycles (no stale tombstones, no leaked load factor).
  FlatPtrSet s(16);
  int dummy[64];
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 64; ++i) EXPECT_TRUE(s.insert(&dummy[i]));
    EXPECT_EQ(s.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_TRUE(s.contains(&dummy[i]));
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(&dummy[cycle % 64]));
  }
}

TEST(FlatPtrSet, DuplicateInsertsNeverGrowSize) {
  FlatPtrSet s(16);
  int x = 0;
  EXPECT_TRUE(s.insert(&x));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(s.insert(&x));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatPtrSet, GrowPreservesMembershipAcrossLoadFactorBoundary) {
  // Cross the 3/4 load boundary of the smallest table exactly: capacity 16
  // grows when the 13th insertion would exceed 12/16.
  FlatPtrSet s(1);  // rounds up to the 16-slot minimum
  std::vector<std::unique_ptr<int>> ptrs;
  for (int i = 0; i < 13; ++i) {
    ptrs.push_back(std::make_unique<int>(i));
    EXPECT_TRUE(s.insert(ptrs.back().get()));
    // Every earlier pointer survives each incremental rehash.
    for (const auto& p : ptrs) EXPECT_TRUE(s.contains(p.get()));
  }
  EXPECT_EQ(s.size(), 13u);
}

TEST(FlatPtrSet, ClearOnEmptyIsIdempotent) {
  FlatPtrSet s;
  s.clear();
  s.clear();
  EXPECT_TRUE(s.empty());
  int x = 0;
  EXPECT_FALSE(s.contains(&x));
}

// --- CachePadded ---------------------------------------------------------------------

TEST(CachePadded, WrapsValueInAnAlignedLine) {
  static_assert(kCacheLine == 64, "padding fixed at 64 bytes by design");
  static_assert(alignof(CachePadded<std::uint32_t>) == kCacheLine);
  static_assert(sizeof(CachePadded<std::uint32_t>) == kCacheLine);
  // A value wider than one line pads up to whole lines, never truncates.
  struct Wide {
    char bytes[kCacheLine + 1];
  };
  static_assert(sizeof(CachePadded<Wide>) % kCacheLine == 0);
  static_assert(sizeof(CachePadded<Wide>) >= sizeof(Wide));

  CachePadded<std::uint64_t> p(7);
  EXPECT_EQ(*p, 7u);
  *p = 9;
  EXPECT_EQ(*p, 9u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&p) % kCacheLine, 0u);
}

TEST(CachePadded, AdjacentElementsLandOnDistinctLines) {
  // The whole point: two hot counters that are neighbors in memory must not
  // share a line (one spinner's invalidations would stall the other).
  CachePadded<std::atomic<std::uint64_t>> counters[2];
  const auto a = reinterpret_cast<std::uintptr_t>(&counters[0].value);
  const auto b = reinterpret_cast<std::uintptr_t>(&counters[1].value);
  EXPECT_GE(b > a ? b - a : a - b, kCacheLine);
  EXPECT_NE(a / kCacheLine, b / kCacheLine);
  counters[0].value.store(1);
  counters[1]->store(2);
  EXPECT_EQ(counters[0]->load(), 1u);
  EXPECT_EQ(counters[1]->load(), 2u);
}

// --- MpscQueue ------------------------------------------------------------------------

struct Node {
  Node* next = nullptr;
  int value = 0;
};

TEST(MpscQueue, FifoWithinOneProducer) {
  MpscQueue<Node> q;
  Node nodes[5];
  for (int i = 0; i < 5; ++i) {
    nodes[i].value = i;
    q.push(&nodes[i]);
  }
  Node* head = q.drain();
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->value, i);
    head = head->next;
  }
  EXPECT_EQ(head, nullptr);
  EXPECT_TRUE(q.empty_relaxed());
}

TEST(MpscQueue, DrainPreservesPerProducerFifoOrder) {
  // The coordination mailbox answers each requester's entries in the order
  // that requester pushed them (a batch round's response stamps must pair
  // with the round that asked). Global order across producers is
  // unspecified; per-producer order is the contract under test.
  MpscQueue<Node> q;
  constexpr int kProducers = 4, kPerProducer = 500;
  std::vector<std::vector<Node>> nodes(kProducers,
                                       std::vector<Node>(kPerProducer));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        nodes[p][i].value = p * kPerProducer + i;
        q.push(&nodes[p][i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  std::vector<int> last_seen(kProducers, -1);
  int total = 0;
  for (Node* n = q.drain(); n != nullptr; n = n->next) {
    const int p = n->value / kPerProducer;
    const int i = n->value % kPerProducer;
    EXPECT_GT(i, last_seen[p]) << "producer " << p << " reordered";
    last_seen[p] = i;
    ++total;
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(MpscQueue, NodesWrapAcrossDrainCycles) {
  // Requesters reuse a tiny fixed node pool (ThreadContext keeps 4), so the
  // same node objects flow through push/drain many times; each cycle must
  // see a self-consistent list with no carryover from the previous drain.
  MpscQueue<Node> q;
  Node pool[4];
  for (int cycle = 0; cycle < 100; ++cycle) {
    const int n = 1 + cycle % 4;
    for (int i = 0; i < n; ++i) {
      pool[i].value = cycle * 10 + i;
      q.push(&pool[i]);
    }
    EXPECT_FALSE(q.empty_relaxed());
    int i = 0;
    for (Node* head = q.drain(); head != nullptr; head = head->next, ++i) {
      EXPECT_EQ(head->value, cycle * 10 + i);
    }
    EXPECT_EQ(i, n);
    EXPECT_TRUE(q.empty_relaxed());
    EXPECT_EQ(q.drain(), nullptr);  // double drain is harmless
  }
}

TEST(MpscQueue, DrainWhileProducersAreStillPushing) {
  // The consumer drains at safe points while requesters keep arriving; every
  // node must surface in exactly one drain, and interleaved drains must
  // never corrupt the per-producer FIFO contract.
  MpscQueue<Node> q;
  constexpr int kProducers = 3, kPerProducer = 2000;
  std::vector<std::vector<Node>> nodes(kProducers,
                                       std::vector<Node>(kPerProducer));
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        nodes[p][i].value = p * kPerProducer + i;
        q.push(&nodes[p][i]);
      }
    });
  }
  std::vector<int> last_seen(kProducers, -1);
  int total = 0;
  const auto consume = [&] {
    for (Node* n = q.drain(); n != nullptr; n = n->next) {
      const int p = n->value / kPerProducer;
      const int i = n->value % kPerProducer;
      EXPECT_GT(i, last_seen[p]);
      last_seen[p] = i;
      ++total;
    }
  };
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) consume();
    consume();  // final sweep after the last push
  });
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(total, kProducers * kPerProducer);
  EXPECT_TRUE(q.empty_relaxed());
}

TEST(MpscQueue, ConcurrentProducersLoseNothing) {
  MpscQueue<Node> q;
  constexpr int kProducers = 4, kPerProducer = 1000;
  std::vector<std::vector<Node>> nodes(kProducers,
                                       std::vector<Node>(kPerProducer));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        nodes[p][i].value = p * kPerProducer + i;
        q.push(&nodes[p][i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  std::set<int> seen;
  for (Node* n = q.drain(); n != nullptr; n = n->next) seen.insert(n->value);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

// --- Backoff -------------------------------------------------------------------------

TEST(Backoff, EscalatesToYielding) {
  Backoff b(3);
  EXPECT_FALSE(b.yielding());
  for (int i = 0; i < 10; ++i) b.pause();
  EXPECT_TRUE(b.yielding());
  b.reset();
  EXPECT_FALSE(b.yielding());
}

// The yield phase ends on the clock, after Backoff::kSilenceWindowNs of
// silence, not after a number of yields.
std::uint64_t backoff_test_now_ns = 0;
std::uint64_t backoff_test_clock() { return backoff_test_now_ns; }

TEST(Backoff, EscalatesToSleepingAfterYieldBudget) {
  backoff_test_now_ns = 0;
  Backoff b(/*spin_rounds=*/1, Backoff::kDefaultMaxSleepUs, /*jitter_seed=*/0,
            backoff_test_clock);
  EXPECT_FALSE(b.sleeping());
  for (int i = 0; i < 4; ++i) b.pause();  // 1 spin + 3 yields
  EXPECT_FALSE(b.sleeping());
  backoff_test_now_ns = Backoff::kSilenceWindowNs;
  b.pause();  // the window is spent: waits are sleep ticks from here
  EXPECT_TRUE(b.sleeping());
  EXPECT_TRUE(b.yielding());  // sleeping implies the CPU was ceded
  b.reset();
  EXPECT_FALSE(b.sleeping());
  EXPECT_FALSE(b.yielding());
}

}  // namespace
}  // namespace ht
