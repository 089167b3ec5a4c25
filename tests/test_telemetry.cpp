// Telemetry-layer tests: ring overflow/torn-slot behavior, concurrent
// writers (free-running and under the deterministic virtual scheduler),
// trace file round trips with documented failure reasons, metric
// aggregation, golden-string exporter output (JSON / Prometheus / Chrome
// trace), and the zero-cost-off contract — a workload run with a session
// installed records events exactly when the build compiles the hooks in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "schedule/virtual_scheduler.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ring.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_io.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/workload.hpp"

namespace ht::telemetry {
namespace {

Event make_event(EventKind kind, std::uint64_t tsc, std::uint64_t arg0 = 0,
                 std::uint32_t arg1 = 0, std::uint32_t arg2 = 0,
                 std::uint16_t tid = 0) {
  Event e;
  e.tsc = tsc;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg2 = arg2;
  e.kind = static_cast<std::uint16_t>(kind);
  e.tid = tid;
  return e;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --- EventRing ---------------------------------------------------------------

TEST(EventRing, OverflowKeepsNewestAndCountsDropped) {
  EventRing ring(7, 8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record(EventKind::kPsro, i);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest events dropped: survivors are exactly 12..19, in order.
    EXPECT_EQ(events[i].arg0, 12u + i);
    EXPECT_EQ(events[i].seq, 12u + i);
    EXPECT_EQ(events[i].tid, 7u);
  }
}

TEST(EventRing, EmptySnapshot) {
  EventRing ring(0, 8);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(0, 10).capacity(), 16u);
  EXPECT_EQ(EventRing(0, 1).capacity(), 1u);
  EXPECT_EQ(EventRing(0, 64).capacity(), 64u);
}

TEST(EventRing, ClearForgetsEverything) {
  EventRing ring(0, 8);
  for (int i = 0; i < 5; ++i) ring.record(EventKind::kPsro);
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  ring.record(EventKind::kDepEdge, 42);
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg0, 42u);
}

TEST(EventRing, TimestampsAreMonotonePerRing) {
  EventRing ring(0, 64);
  for (int i = 0; i < 50; ++i) ring.record(EventKind::kPsro);
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 50u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].tsc, events[i - 1].tsc);
  }
}

// --- concurrent writers ------------------------------------------------------

// Free-running writers with a concurrent reader: every snapshot taken while
// the rings are being written must be internally consistent (in-order
// sequence numbers, no torn slot surfacing a kind that was never recorded),
// and the post-join drain must be exact.
TEST(ConcurrentWriters, SnapshotsStayConsistentUnderWrites) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEvents = 20'000;
  constexpr std::size_t kCapacity = 1024;
  TelemetrySession session(kCapacity);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&session, t] {
      EventRing* ring = session.attach(static_cast<ThreadId>(t));
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        ring->record(EventKind::kOptConflict, i,
                     static_cast<std::uint32_t>(t), kFlagStore);
      }
    });
  }

  for (int round = 0; round < 25; ++round) {
    for (int t = 0; t < kThreads; ++t) {
      EventRing* ring = session.attach(static_cast<ThreadId>(t));
      const std::vector<Event> events = ring->snapshot();
      EXPECT_LE(events.size(), kCapacity);
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(static_cast<EventKind>(events[i].kind),
                  EventKind::kOptConflict);
        EXPECT_EQ(events[i].arg1, static_cast<std::uint32_t>(t));
        if (i > 0) {
          EXPECT_GT(events[i].arg0, events[i - 1].arg0);
        }
      }
    }
  }
  for (auto& th : writers) th.join();

  const TraceSnapshot snap = session.snapshot();
  ASSERT_EQ(snap.threads.size(), static_cast<std::size_t>(kThreads));
  for (const ThreadTrace& t : snap.threads) {
    EXPECT_EQ(t.recorded, kEvents);
    EXPECT_EQ(t.dropped, kEvents - kCapacity);
    ASSERT_EQ(t.events.size(), kCapacity);
    EXPECT_EQ(t.events.back().arg0, kEvents - 1);
  }
}

class RoundRobinStrategy final : public schedule::Strategy {
 public:
  std::optional<schedule::Slot> pick(
      const std::vector<schedule::Slot>& eligible,
      const std::vector<schedule::Decision>& history) override {
    return eligible[history.size() % eligible.size()];
  }
};

struct ScheduledRun {
  std::vector<schedule::Slot> trace;
  std::vector<std::vector<Event>> rings;
};

ScheduledRun run_writers_under_scheduler(int nthreads, int events_per_thread) {
  TelemetrySession session(/*ring_capacity=*/256);
  RoundRobinStrategy strategy;
  schedule::VirtualScheduler::Config cfg;
  cfg.nthreads = nthreads;
  schedule::VirtualScheduler sched(cfg, strategy);

  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      sched.attach(t);
      EventRing* ring = session.attach(static_cast<ThreadId>(t));
      sched.setup_done(t);
      for (int i = 0; i < events_per_thread; ++i) {
        ring->record(EventKind::kDepEdge, static_cast<std::uint64_t>(i),
                     static_cast<std::uint32_t>(t));
        schedule::point();
      }
      sched.detach(t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sched.status(), schedule::VirtualScheduler::RunStatus::kComplete);

  ScheduledRun out;
  out.trace = sched.trace();
  for (int t = 0; t < nthreads; ++t) {
    out.rings.push_back(session.attach(static_cast<ThreadId>(t))->snapshot());
  }
  return out;
}

// The same seedless strategy must produce bit-identical interleavings and
// ring contents (modulo timestamps) across runs — writers interleaved by the
// virtual scheduler never corrupt each other's rings.
TEST(ConcurrentWriters, DeterministicUnderVirtualScheduler) {
  constexpr int kThreads = 3;
  constexpr int kEvents = 40;
  const ScheduledRun a = run_writers_under_scheduler(kThreads, kEvents);
  const ScheduledRun b = run_writers_under_scheduler(kThreads, kEvents);

  EXPECT_EQ(a.trace, b.trace);
  ASSERT_EQ(a.rings.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const auto& ra = a.rings[static_cast<std::size_t>(t)];
    const auto& rb = b.rings[static_cast<std::size_t>(t)];
    ASSERT_EQ(ra.size(), static_cast<std::size_t>(kEvents));
    ASSERT_EQ(rb.size(), ra.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].arg0, static_cast<std::uint64_t>(i));
      EXPECT_EQ(ra[i].arg0, rb[i].arg0);
      EXPECT_EQ(ra[i].arg1, rb[i].arg1);
      EXPECT_EQ(ra[i].kind, rb[i].kind);
      EXPECT_EQ(ra[i].seq, rb[i].seq);
    }
  }
}

// --- session / snapshot ------------------------------------------------------

TEST(TelemetrySession, AttachIsIdempotentPerThreadId) {
  TelemetrySession session(16);
  EventRing* a = session.attach(3);
  EventRing* b = session.attach(3);
  EXPECT_EQ(a, b);
  a->record(EventKind::kPsro, 1);

  const TraceSnapshot snap = session.snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  EXPECT_EQ(snap.threads[0].tid, 3u);
  EXPECT_EQ(snap.threads[0].events.size(), 1u);
  EXPECT_GT(snap.cycles_per_second, 0.0);
}

TEST(TraceSnapshot, MergedSortsByTimestampAndRebaseFindsMinimum) {
  TraceSnapshot snap;
  ThreadTrace t0;
  t0.tid = 0;
  t0.events = {make_event(EventKind::kPsro, 500),
               make_event(EventKind::kPsro, 900)};
  ThreadTrace t1;
  t1.tid = 1;
  t1.events = {make_event(EventKind::kDepEdge, 300),
               make_event(EventKind::kDepEdge, 700)};
  snap.threads = {t0, t1};
  snap.rebase();
  EXPECT_EQ(snap.base_tsc, 300u);
  EXPECT_EQ(snap.total_events(), 4u);

  const std::vector<Event> merged = snap.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].tsc, 300u);
  EXPECT_EQ(merged[1].tsc, 500u);
  EXPECT_EQ(merged[2].tsc, 700u);
  EXPECT_EQ(merged[3].tsc, 900u);
}

// --- trace file I/O ----------------------------------------------------------

TraceSnapshot sample_snapshot() {
  TraceSnapshot snap;
  snap.cycles_per_second = 2.5e9;
  snap.base_tsc = 1000;
  ThreadTrace t;
  t.tid = 4;
  t.recorded = 7;
  t.dropped = 4;
  t.events = {make_event(EventKind::kCoordRoundTrip, 2000, 500, 1, 1, 4),
              make_event(EventKind::kOptConflict, 3000, 0, 0xabc, kFlagStore,
                         4),
              make_event(EventKind::kRegionRestart, 4000, 12345, 2, 0, 4)};
  snap.threads.push_back(std::move(t));
  return snap;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const std::string path = temp_path("ht_trace_roundtrip.bin");
  const TraceSnapshot snap = sample_snapshot();
  ASSERT_TRUE(save_trace(snap, path));

  TraceSnapshot loaded;
  ASSERT_EQ(load_trace(path, loaded), TraceLoadResult::kOk);
  EXPECT_EQ(loaded.cycles_per_second, snap.cycles_per_second);
  EXPECT_EQ(loaded.base_tsc, snap.base_tsc);
  ASSERT_EQ(loaded.threads.size(), 1u);
  const ThreadTrace& t = loaded.threads[0];
  EXPECT_EQ(t.tid, 4u);
  EXPECT_EQ(t.recorded, 7u);
  EXPECT_EQ(t.dropped, 4u);
  ASSERT_EQ(t.events.size(), 3u);
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const Event& a = snap.threads[0].events[i];
    const Event& b = t.events[i];
    EXPECT_EQ(a.tsc, b.tsc);
    EXPECT_EQ(a.arg0, b.arg0);
    EXPECT_EQ(a.arg1, b.arg1);
    EXPECT_EQ(a.arg2, b.arg2);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tid, b.tid);
  }
  std::remove(path.c_str());
}

// Version 3 renumbered the event kinds, so a file of an earlier version
// would be misread under the new numbers: it fails on its version (and
// trace_export exits 3 on it) instead.
TEST(TraceIo, EarlierVersionsFailAsBadVersion) {
  const std::string path = temp_path("ht_trace_old_version.bin");
  ASSERT_TRUE(save_trace(sample_snapshot(), path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  ASSERT_EQ(bytes[4], '\x03');  // the version word, little-endian
  for (const char old_version : {'\x01', '\x02'}) {
    bytes[4] = old_version;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    TraceSnapshot out;
    EXPECT_EQ(load_trace(path, out), TraceLoadResult::kBadVersion)
        << "version " << int{old_version};
  }
  std::remove(path.c_str());
}

// A kind this build does not know (here, one past the last) still loads from
// a current-version file and renders as "unknown" in a valid Chrome trace.
TEST(TraceIo, UnknownKindLoadsAndRendersAsUnknown) {
  const std::string path = temp_path("ht_trace_unknown_kind.bin");
  const auto unknown = static_cast<EventKind>(
      static_cast<std::uint16_t>(EventKind::kStateTransition) + 1);
  TraceSnapshot snap = sample_snapshot();
  snap.threads[0].events.push_back(make_event(unknown, 5000, 896, 128, 7, 4));
  ASSERT_TRUE(save_trace(snap, path));

  TraceSnapshot loaded;
  ASSERT_EQ(load_trace(path, loaded), TraceLoadResult::kOk);
  ASSERT_EQ(loaded.threads[0].events.size(), 4u);
  EXPECT_STREQ(event_kind_name(unknown), "unknown");
  std::size_t events = 0;
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(to_chrome_trace_json(loaded), &events,
                                    &error))
      << error;
  std::remove(path.c_str());
}

TEST(TraceIo, ReportsWhyAFileWasRejected) {
  const std::string good = temp_path("ht_trace_good.bin");
  ASSERT_TRUE(save_trace(sample_snapshot(), good));
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);

  TraceSnapshot out;
  EXPECT_EQ(load_trace(temp_path("ht_no_such_trace.bin"), out),
            TraceLoadResult::kOpenFailed);

  const std::string bad = temp_path("ht_trace_bad.bin");
  auto write_file = [&](const std::string& content) {
    std::ofstream f(bad, std::ios::binary | std::ios::trunc);
    f.write(content.data(), static_cast<std::streamsize>(content.size()));
  };

  write_file("XXXX" + bytes.substr(4));
  EXPECT_EQ(load_trace(bad, out), TraceLoadResult::kBadMagic);

  std::string bad_version = bytes;
  bad_version[4] = '\x7f';
  write_file(bad_version);
  EXPECT_EQ(load_trace(bad, out), TraceLoadResult::kBadVersion);

  write_file(bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(load_trace(bad, out), TraceLoadResult::kTruncated);

  write_file(bytes + "Z");
  EXPECT_EQ(load_trace(bad, out), TraceLoadResult::kCorrupt);

  EXPECT_STREQ(trace_load_result_name(TraceLoadResult::kTruncated),
               "truncated");
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// --- metric aggregation ------------------------------------------------------

TEST(Metrics, AggregateFoldsEventsIntoCountersAndHistograms) {
  TraceSnapshot snap;
  ThreadTrace t;
  t.tid = 0;
  t.dropped = 5;
  t.events = {
      make_event(EventKind::kCoordRoundTrip, 1, 100, 1, 1),  // implicit
      make_event(EventKind::kCoordRoundTrip, 2, 50, 2, 0),
      make_event(EventKind::kOptConflict, 3, 0, 10,
                 kFlagExplicit | kFlagWentPess),
      make_event(EventKind::kOptConflict, 4, 0, 11, 0),
      make_event(EventKind::kPessAcquire, 5, 0, 10, kFlagContended),
      make_event(EventKind::kPessAcquire, 6, 0, 10, kFlagReentrant),
      make_event(EventKind::kPessWait, 7, 10, 10, 0),
      make_event(EventKind::kPolicyPessToOpt, 8, 0, 10, 0),
      make_event(EventKind::kRegionRestart, 9, 1000, 0, 0),
      make_event(EventKind::kDepEdge, 10, 3, 1, 0),
      make_event(EventKind::kPsro, 11, 1, 0, 0),
      make_event(EventKind::kSafePointResponse, 12, 2, 0, 0),
      make_event(EventKind::kDeferredFlush, 13, 6, 0, 0),
      make_event(EventKind::kLeaseExpired, 14, 3, 42, 4096),
      make_event(EventKind::kQuarantine, 15, 3, 9, 2),
      make_event(EventKind::kSeizure, 16, 500, 10, 3),
      make_event(EventKind::kSeizure, 17, 30, 11, 3),
  };
  snap.threads.push_back(std::move(t));

  MetricsRegistry reg = aggregate_metrics(snap);
  EXPECT_EQ(reg.counter("ht_events_total"), 17u);
  EXPECT_EQ(reg.counter("ht_events_dropped_total"), 5u);
  EXPECT_EQ(reg.counter("ht_coord_roundtrips_total"), 2u);
  EXPECT_EQ(reg.counter("ht_coord_implicit_total"), 1u);
  EXPECT_EQ(reg.counter("ht_opt_conflicts_total"), 2u);
  EXPECT_EQ(reg.counter("ht_opt_conflicts_explicit_total"), 1u);
  EXPECT_EQ(reg.counter("ht_pess_acquires_total"), 2u);
  EXPECT_EQ(reg.counter("ht_pess_contended_total"), 1u);
  EXPECT_EQ(reg.counter("ht_policy_opt_to_pess_total"), 1u);
  EXPECT_EQ(reg.counter("ht_policy_pess_to_opt_total"), 1u);
  EXPECT_EQ(reg.counter("ht_region_restarts_total"), 1u);
  EXPECT_EQ(reg.counter("ht_dep_edges_total"), 1u);
  EXPECT_EQ(reg.counter("ht_psros_total"), 1u);
  EXPECT_EQ(reg.counter("ht_safepoint_responses_total"), 1u);
  EXPECT_EQ(reg.counter("ht_deferred_flushes_total"), 1u);

  EXPECT_EQ(reg.histogram("ht_coord_roundtrip_cycles").count(), 2u);
  EXPECT_EQ(reg.histogram("ht_coord_roundtrip_cycles").sum(), 150u);
  EXPECT_EQ(reg.histogram("ht_coord_roundtrip_cycles").max(), 100u);
  EXPECT_EQ(reg.histogram("ht_pess_wait_cycles").count(), 1u);
  EXPECT_EQ(reg.histogram("ht_pess_wait_cycles").sum(), 10u);
  EXPECT_EQ(reg.histogram("ht_region_restart_cycles").sum(), 1000u);

  // Resilience events (DESIGN.md §11): counted per kind, seizure latency
  // folded into its own log2 histogram.
  EXPECT_EQ(reg.counter("ht_lease_expiries_total"), 1u);
  EXPECT_EQ(reg.counter("ht_quarantines_total"), 1u);
  EXPECT_EQ(reg.counter("ht_seizures_total"), 2u);
  EXPECT_EQ(reg.histogram("ht_seizure_cycles").count(), 2u);
  EXPECT_EQ(reg.histogram("ht_seizure_cycles").sum(), 530u);
  EXPECT_EQ(reg.histogram("ht_seizure_cycles").max(), 500u);
}

TEST(Metrics, AggregateCountsSpansAndDwellCycles) {
  TraceSnapshot snap;
  ThreadTrace t;
  t.tid = 0;
  const auto wrex = static_cast<std::uint8_t>(StateKind::kWrExOpt);
  const auto intk = static_cast<std::uint8_t>(StateKind::kInt);
  const auto rdsh = static_cast<std::uint8_t>(StateKind::kRdShOpt);
  t.events = {
      make_event(EventKind::kCoordRequest, 10, 1, 1, 0),
      make_event(EventKind::kCoordBatchDrain, 20, 7, 2, 4),
      // The dwell clock starts at an object's FIRST transition (when it
      // entered WrEx is unknowable from this trace), so WrEx accrues
      // nothing: object 42 dwells 200 cycles in Int, and the open RdSh
      // interval extends to the last trace timestamp (400).
      make_event(EventKind::kStateTransition, 100,
                 pack_transition(wrex, intk), 42),
      make_event(EventKind::kStateTransition, 300,
                 pack_transition(intk, rdsh), 42),
      make_event(EventKind::kThreadExit, 400, 0, 0, 0),
  };
  snap.threads.push_back(std::move(t));
  snap.rebase();

  MetricsRegistry reg = aggregate_metrics(snap);
  EXPECT_EQ(reg.counter("ht_coord_requests_total"), 1u);
  EXPECT_EQ(reg.counter("ht_coord_batch_drains_total"), 1u);
  EXPECT_EQ(reg.counter("ht_state_transitions_total"), 2u);
  EXPECT_EQ(reg.counter("ht_dwell_wrex_cycles_total"), 0u);
  EXPECT_EQ(reg.counter("ht_dwell_int_cycles_total"), 200u);
  EXPECT_EQ(reg.counter("ht_dwell_rdsh_cycles_total"), 100u);
  EXPECT_EQ(reg.counter("ht_dwell_rdex_cycles_total"), 0u);
  EXPECT_EQ(reg.counter("ht_dwell_pess_cycles_total"), 0u);
}

// --- exporter golden strings -------------------------------------------------

MetricsRegistry demo_registry() {
  MetricsRegistry reg;
  reg.counter("ht_demo_total", "demo counter") = 3;
  LatencyHistogram& h = reg.histogram("ht_demo_cycles", "demo latency");
  h.add(1);
  h.add(5);
  return reg;
}

TEST(MetricsExport, GoldenJson) {
  const std::string expected =
      "{\"counters\":{\"ht_demo_total\":3},"
      "\"histograms\":{\"ht_demo_cycles\":{"
      "\"count\":2,\"sum\":6,\"max\":5,"
      "\"buckets\":[{\"le\":0,\"count\":0},{\"le\":1,\"count\":1},"
      "{\"le\":3,\"count\":1},{\"le\":7,\"count\":2}]}}}";
  EXPECT_EQ(demo_registry().to_json(), expected);

  json::Value parsed;
  EXPECT_TRUE(json::parse(demo_registry().to_json(), parsed));
  EXPECT_EQ(parsed.at("counters").at("ht_demo_total").as_u64(), 3u);
}

TEST(MetricsExport, GoldenPrometheus) {
  const std::string expected =
      "# HELP ht_demo_total demo counter\n"
      "# TYPE ht_demo_total counter\n"
      "ht_demo_total 3\n"
      "# HELP ht_demo_cycles demo latency\n"
      "# TYPE ht_demo_cycles histogram\n"
      "ht_demo_cycles_bucket{le=\"0\"} 0\n"
      "ht_demo_cycles_bucket{le=\"1\"} 1\n"
      "ht_demo_cycles_bucket{le=\"3\"} 1\n"
      "ht_demo_cycles_bucket{le=\"7\"} 2\n"
      "ht_demo_cycles_bucket{le=\"+Inf\"} 2\n"
      "ht_demo_cycles_sum 6\n"
      "ht_demo_cycles_count 2\n";
  EXPECT_EQ(demo_registry().to_prometheus(), expected);
}

TEST(ChromeTrace, GoldenOutput) {
  TraceSnapshot snap;
  snap.cycles_per_second = 1e6;  // 1 cycle == 1 us: durations read literally
  snap.base_tsc = 100;
  ThreadTrace t;
  t.tid = 1;
  t.recorded = 2;
  t.events = {make_event(EventKind::kPsro, 100, 7, 0, 0, 1),
              make_event(EventKind::kCoordRoundTrip, 150, 30, 2, 1, 1)};
  snap.threads.push_back(std::move(t));

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"hybrid-tracking\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"T1\"}},"
      "{\"name\":\"psro\",\"cat\":\"runtime\",\"pid\":1,\"tid\":1,"
      "\"ph\":\"i\",\"s\":\"t\",\"ts\":0.000,\"args\":{\"arg0\":7}},"
      "{\"name\":\"coord_round_trip\",\"cat\":\"runtime\",\"pid\":1,"
      "\"tid\":1,\"ph\":\"X\",\"ts\":20.000,\"dur\":30.000,"
      "\"args\":{\"cycles\":30,\"owner_tid\":2,\"implicit\":true}}]}";
  EXPECT_EQ(to_chrome_trace_json(snap), expected);

  std::size_t events = 0;
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(expected, &events, &error)) << error;
  EXPECT_EQ(events, 4u);
}

TEST(ChromeTrace, ResilienceEventsGolden) {
  TraceSnapshot snap;
  snap.cycles_per_second = 1e6;  // 1 cycle == 1 us
  snap.base_tsc = 100;
  ThreadTrace t;
  t.tid = 1;
  t.recorded = 3;
  t.events = {make_event(EventKind::kLeaseExpired, 110, 2, 7, 4096, 1),
              make_event(EventKind::kQuarantine, 120, 2, 9, 3, 1),
              make_event(EventKind::kSeizure, 180, 40, 5, 2, 1)};
  snap.threads.push_back(std::move(t));

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"hybrid-tracking\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"T1\"}},"
      "{\"name\":\"lease_expired\",\"cat\":\"resilience\",\"pid\":1,"
      "\"tid\":1,\"ph\":\"i\",\"s\":\"t\",\"ts\":10.000,"
      "\"args\":{\"owner_tid\":2,\"ticket\":7,\"stalled_epochs\":4096}},"
      "{\"name\":\"quarantine\",\"cat\":\"resilience\",\"pid\":1,"
      "\"tid\":1,\"ph\":\"i\",\"s\":\"t\",\"ts\":20.000,"
      "\"args\":{\"victim_tid\":2,\"status_epoch\":9,"
      "\"tickets_released\":3}},"
      "{\"name\":\"seizure\",\"cat\":\"resilience\",\"pid\":1,\"tid\":1,"
      "\"ph\":\"X\",\"ts\":40.000,\"dur\":40.000,"
      "\"args\":{\"cycles\":40,\"object\":5,\"victim_tid\":2}}]}";
  EXPECT_EQ(to_chrome_trace_json(snap), expected);

  std::size_t events = 0;
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(expected, &events, &error)) << error;
  EXPECT_EQ(events, 5u);
}

TEST(ChromeTrace, ValidatorRejectsGarbage) {
  std::size_t events = 0;
  std::string error;
  EXPECT_FALSE(validate_chrome_trace("not json", &events, &error));
  EXPECT_FALSE(validate_chrome_trace("[]", &events, &error));
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\":5}", &events, &error));
  EXPECT_FALSE(validate_chrome_trace(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":0,\"dur\":-1}]}",
      &events, &error));
  EXPECT_FALSE(error.empty());
}

// --- hot-object report -------------------------------------------------------

TEST(HotObjects, RanksByTotalConflicts) {
  TraceSnapshot snap;
  ThreadTrace t;
  t.tid = 0;
  t.events = {
      make_event(EventKind::kOptConflict, 1, 0, 0xA, 0),
      make_event(EventKind::kOptConflict, 2, 0, 0xA, kFlagExplicit),
      make_event(EventKind::kPessAcquire, 3, 0, 0xA, kFlagContended),
      make_event(EventKind::kPessWait, 4, 10, 0xB, 0),
      make_event(EventKind::kPessWait, 5, 20, 0xB, 0),
      make_event(EventKind::kPessAcquire, 6, 0, 0xC, 0),  // uncontended
  };
  snap.threads.push_back(std::move(t));

  const std::vector<HotObject> ranked = hot_objects(snap, 10);
  ASSERT_EQ(ranked.size(), 2u);  // 0xC never conflicted
  EXPECT_EQ(ranked[0].object, 0xAu);
  EXPECT_EQ(ranked[0].opt_conflicts, 2u);
  EXPECT_EQ(ranked[0].pess_contended, 1u);
  EXPECT_EQ(ranked[1].object, 0xBu);
  EXPECT_EQ(ranked[1].pess_contended, 2u);

  EXPECT_EQ(hot_objects(snap, 1).size(), 1u);
  const std::string report = hot_object_report(snap, 10);
  EXPECT_NE(report.find("0000000a"), std::string::npos);
}

// --- zero-cost-off contract --------------------------------------------------

// A real workload run with a session installed on the runtime. With
// HT_TELEMETRY=ON the trackers/runtime emit events and the exported Chrome
// trace validates; in a default build the same run records exactly zero
// events — the macros compiled to ((void)0) and only the empty rings remain.
TEST(TelemetryWorkload, RecordsEventsExactlyWhenCompiledIn) {
  WorkloadConfig cfg;
  cfg.name = "telemetry-test";
  cfg.threads = 4;
  cfg.ops_per_thread = 4'000;
  cfg.hotsync_p100k = 10'000;
  cfg.hotracy_p100k = 2'000;
  WorkloadData data(cfg);

  TelemetrySession session;
  RuntimeConfig rc;
  rc.telemetry = &session;
  Runtime rt(rc);
  HybridTracker<> trk(rt, HybridConfig{});
  const WorkloadRunResult r = run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<HybridTracker<>>(rt, trk);
  });
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GE(r.join_skew_seconds, 0.0);

  const TraceSnapshot snap = session.snapshot();
#if HT_TELEM_AVAILABLE
  // At minimum every thread recorded its start and exit.
  EXPECT_GE(snap.total_events(), 2u * cfg.threads);
  bool saw_thread_start = false;
  for (const ThreadTrace& t : snap.threads) {
    for (const Event& e : t.events) {
      if (static_cast<EventKind>(e.kind) == EventKind::kThreadStart) {
        saw_thread_start = true;
      }
    }
  }
  EXPECT_TRUE(saw_thread_start);

  const std::string chrome = to_chrome_trace_json(snap);
  std::size_t events = 0;
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(chrome, &events, &error)) << error;
  EXPECT_GT(events, 0u);

  const MetricsRegistry reg = aggregate_metrics(snap);
  json::Value parsed;
  EXPECT_TRUE(json::parse(reg.to_json(), parsed));
#else
  // Zero-cost-off witness: the instrumented hot paths produced no events.
  EXPECT_EQ(snap.total_events(), 0u);
  EXPECT_EQ(snap.total_dropped(), 0u);
#endif
}

}  // namespace
}  // namespace ht::telemetry
