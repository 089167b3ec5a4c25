// The offline happens-before engine on hand-built traces: dependence
// anchoring, vector clocks, critical path, predictive races, region
// serializability, analytics JSON, and the whole-file driver's exit codes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "analysis/hb_engine/hb_engine.hpp"
#include "analysis/hb_engine/hb_order.hpp"
#include "analysis/hb_engine/hb_trace.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"

namespace ht::analysis {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TraceEvent bump(ThreadId t, std::uint64_t stamp) {
  TraceEvent e;
  e.kind = TraceEventKind::kBump;
  e.thread = t;
  e.value = stamp;
  return e;
}

TraceEvent edge(ThreadId t, ThreadId src, std::uint64_t value) {
  TraceEvent e;
  e.kind = TraceEventKind::kEdge;
  e.thread = t;
  e.src = src;
  e.value = value;
  return e;
}

TraceEvent access(ThreadId t, bool write, int obj, std::uint64_t seq) {
  TraceEvent e;
  e.kind = write ? TraceEventKind::kWrite : TraceEventKind::kRead;
  e.thread = t;
  e.obj = obj;
  e.seq = seq;
  e.point = seq;
  return e;
}

TraceEvent lock_op(ThreadId t, bool release, int lock, std::uint64_t seq) {
  TraceEvent e;
  e.kind = release ? TraceEventKind::kRelease : TraceEventKind::kAcquire;
  e.thread = t;
  e.lock = lock;
  e.seq = seq;
  e.point = seq;
  return e;
}

// --- HbOrder -----------------------------------------------------------------

TEST(HbOrder, ProgramOrderChainsEachThread) {
  Trace tr;
  tr.threads = {{bump(0, 1), bump(0, 2), bump(0, 3)}};
  const HbOrder hb = HbOrder::build(tr);
  EXPECT_TRUE(hb.acyclic());
  EXPECT_EQ(hb.node_count(), 3u);
  EXPECT_EQ(hb.cross_arc_count(), 0u);
  EXPECT_TRUE(hb.happens_before({0, 0}, {0, 2}));
  EXPECT_FALSE(hb.happens_before({0, 2}, {0, 0}));
  EXPECT_EQ(hb.critical_path_length(), 3u);
}

TEST(HbOrder, EdgeAnchorsToLastBumpStampedAtOrBelow) {
  Trace tr;
  tr.threads.resize(2);
  tr.threads[0] = {bump(0, 1), bump(0, 2), bump(0, 3)};
  tr.threads[1] = {edge(1, 0, 2)};
  const HbOrder hb = HbOrder::build(tr);
  EXPECT_TRUE(hb.acyclic());
  EXPECT_EQ(hb.cross_arc_count(), 1u);
  // Anchored to the stamp-2 bump: it and its predecessors are ordered
  // before the edge, the stamp-3 bump is not.
  EXPECT_TRUE(hb.happens_before({0, 1}, {1, 0}));
  EXPECT_TRUE(hb.happens_before({0, 0}, {1, 0}));
  EXPECT_FALSE(hb.happens_before({0, 2}, {1, 0}));
  EXPECT_TRUE(hb.concurrent({0, 2}, {1, 0}));
}

TEST(HbOrder, MutualWaitIsCyclic) {
  // Each thread's edge needs the other's bump, and each bump comes after
  // the edge in program order: no real-time execution produces this.
  Trace tr;
  tr.threads.resize(2);
  tr.threads[0] = {edge(0, 1, 1), bump(0, 1)};
  tr.threads[1] = {edge(1, 0, 1), bump(1, 1)};
  const HbOrder hb = HbOrder::build(tr);
  EXPECT_FALSE(hb.acyclic());
  EXPECT_EQ(hb.unsorted_count(), 4u);
  EXPECT_TRUE(hb.first_cyclic().has_value());
  EXPECT_EQ(hb.critical_path_length(), 0u);
}

TEST(HbOrder, LockArcsOrderReleaseToNextAcquire) {
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {lock_op(0, false, 0, 0), access(0, true, 0, 1),
                   lock_op(0, true, 0, 2)};
  tr.threads[1] = {lock_op(1, false, 0, 3), access(1, true, 0, 4),
                   lock_op(1, true, 0, 5)};
  const HbOrder hb = HbOrder::build(tr);
  EXPECT_TRUE(hb.acyclic());
  EXPECT_EQ(hb.cross_arc_count(), 1u);  // T0's release -> T1's acquire
  EXPECT_TRUE(hb.happens_before({0, 2}, {1, 0}));
  EXPECT_TRUE(hb.happens_before({0, 1}, {1, 1}));  // transitively
}

// --- predictive races --------------------------------------------------------

TEST(PredictiveRaces, UnorderedConflictingWritesReported) {
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {access(0, true, 0, 0)};
  tr.threads[1] = {access(1, true, 0, 1)};
  const HbOrder hb = HbOrder::build(tr);
  const PredictiveRaceReport rep = predictive_races(tr, hb);
  EXPECT_TRUE(rep.applicable);
  ASSERT_EQ(rep.races.size(), 1u);
  EXPECT_EQ(rep.races[0].obj, 0);
  EXPECT_TRUE(rep.races[0].write_write);
  EXPECT_EQ(rep.racy_object_mask, 1u);
}

TEST(PredictiveRaces, LockOrderedAccessesAreNotRaces) {
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {lock_op(0, false, 0, 0), access(0, true, 0, 1),
                   lock_op(0, true, 0, 2)};
  tr.threads[1] = {lock_op(1, false, 0, 3), access(1, true, 0, 4),
                   lock_op(1, true, 0, 5)};
  const HbOrder hb = HbOrder::build(tr);
  const PredictiveRaceReport rep = predictive_races(tr, hb);
  EXPECT_TRUE(rep.applicable);
  EXPECT_TRUE(rep.races.empty());
  EXPECT_EQ(rep.racy_object_mask, 0u);
  EXPECT_EQ(rep.pairs_checked, 1u);
}

TEST(PredictiveRaces, ReadReadIsNotAConflict) {
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {access(0, false, 0, 0)};
  tr.threads[1] = {access(1, false, 0, 1)};
  const HbOrder hb = HbOrder::build(tr);
  const PredictiveRaceReport rep = predictive_races(tr, hb);
  EXPECT_TRUE(rep.races.empty());
  EXPECT_EQ(rep.pairs_checked, 0u);
}

TEST(PredictiveRaces, SyncOnlyTracesAreNotApplicable) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({3, LogEventType::kResponse, kNoThread, 1});
  r.threads[1].events.push_back({5, LogEventType::kEdge, 0, 1});
  const Trace tr = trace_from_recording(r);
  const HbOrder hb = HbOrder::build(tr);
  const PredictiveRaceReport rep = predictive_races(tr, hb);
  EXPECT_FALSE(rep.applicable);
  EXPECT_TRUE(rep.races.empty());
}

// --- region serializability --------------------------------------------------

TEST(RegionSerializability, InterleavedUnsyncedIncrementsCycle) {
  // The racy-inc shape: both threads load obj0, then both store it. Each
  // thread's region reads the value the OTHER region overwrites, so no
  // serial order of the two regions explains the observed conflicts.
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {access(0, false, 0, 0), access(0, true, 0, 2)};
  tr.threads[1] = {access(1, false, 0, 1), access(1, true, 0, 3)};
  const HbOrder hb = HbOrder::build(tr);
  const RegionSerializabilityReport rep =
      check_region_serializability(tr, hb);
  EXPECT_EQ(rep.regions, 2u);
  EXPECT_FALSE(rep.serializable);
  EXPECT_FALSE(rep.violating.empty());
}

TEST(RegionSerializability, SerialExecutionIsSerializable) {
  // Same ops, but thread 0 finished before thread 1 started: all conflict
  // arcs point one way.
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {access(0, false, 0, 0), access(0, true, 0, 1)};
  tr.threads[1] = {access(1, false, 0, 2), access(1, true, 0, 3)};
  const HbOrder hb = HbOrder::build(tr);
  const RegionSerializabilityReport rep =
      check_region_serializability(tr, hb);
  EXPECT_TRUE(rep.serializable);
  EXPECT_TRUE(rep.violating.empty());
}

TEST(RegionSerializability, LockBoundariesSplitRegionsAndSerialize) {
  // Lock-synchronized increments interleave at region granularity but each
  // critical section is its own region, ordered by the lock arcs.
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  tr.threads[0] = {lock_op(0, false, 0, 0), access(0, false, 0, 1),
                   access(0, true, 0, 2), lock_op(0, true, 0, 3)};
  tr.threads[1] = {lock_op(1, false, 0, 4), access(1, false, 0, 5),
                   access(1, true, 0, 6), lock_op(1, true, 0, 7)};
  const HbOrder hb = HbOrder::build(tr);
  const RegionSerializabilityReport rep =
      check_region_serializability(tr, hb);
  EXPECT_GT(rep.regions, 2u);
  EXPECT_TRUE(rep.serializable) << "violating regions: " << rep.violating.size();
}

TEST(RegionSerializability, SyncOnlyCycleIsUnserializable) {
  Trace tr;
  tr.threads.resize(2);
  tr.threads[0] = {edge(0, 1, 1), bump(0, 1)};
  tr.threads[1] = {edge(1, 0, 1), bump(1, 1)};
  const HbOrder hb = HbOrder::build(tr);
  const RegionSerializabilityReport rep =
      check_region_serializability(tr, hb);
  EXPECT_FALSE(rep.serializable);
}

// --- analytics ---------------------------------------------------------------

TEST(TraceAnalytics, CountsAndJsonShape) {
  Trace tr;
  tr.threads.resize(2);
  tr.threads[0] = {bump(0, 1), bump(0, 2)};
  tr.threads[1] = {edge(1, 0, 1), edge(1, 0, 2)};
  const HbOrder hb = HbOrder::build(tr);
  const TraceAnalytics a = analyze_trace(tr, hb);
  EXPECT_EQ(a.threads, 2u);
  EXPECT_EQ(a.events, 4u);
  EXPECT_EQ(a.cross_arcs, 2u);
  EXPECT_GT(a.critical_path, 0u);
  EXPECT_DOUBLE_EQ(a.cross_arc_density, 0.5);
  ASSERT_EQ(a.edges_out.size(), 2u);
  EXPECT_EQ(a.edges_out[0], 2u);  // both arcs leave thread 0
  EXPECT_EQ(a.edges_in[1], 2u);   // and land in thread 1
  const std::string js = a.to_json().dump();
  EXPECT_NE(js.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(js.find("\"cross_arc_density\""), std::string::npos);
  EXPECT_NE(js.find("\"object_ranking\""), std::string::npos);
}

TEST(TraceAnalytics, ObjectRankingOrdersByConflicts) {
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(2);
  // obj 1: two conflicting pairs; obj 0: one.
  tr.threads[0] = {access(0, true, 1, 0), access(0, true, 1, 1),
                   access(0, true, 0, 2)};
  tr.threads[1] = {access(1, true, 1, 3), access(1, true, 0, 4)};
  const HbOrder hb = HbOrder::build(tr);
  const TraceAnalytics a = analyze_trace(tr, hb);
  ASSERT_GE(a.object_ranking.size(), 2u);
  EXPECT_EQ(a.object_ranking[0].obj, 1);
  EXPECT_GT(a.object_ranking[0].conflicting_pairs,
            a.object_ranking[1].conflicting_pairs);
}

// --- whole-file driver -------------------------------------------------------

TEST(AnalyzeRecordingFile, CleanRecordingExitsZero) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({3, LogEventType::kResponse, kNoThread, 1});
  r.threads[0].events.push_back({8, LogEventType::kRegionEnd, kNoThread, 2});
  r.threads[1].events.push_back({5, LogEventType::kEdge, 0, 1});
  const std::string path = temp_path("ht_hb_clean.bin");
  ASSERT_TRUE(save_recording(r, path));
  const RecordingAnalysisReport rep = analyze_recording_file(path);
  EXPECT_TRUE(rep.hb_acyclic);
  EXPECT_TRUE(rep.rs.serializable);
  EXPECT_EQ(rep.exit_code(), kExitOk) << rep.to_string();
  EXPECT_NE(rep.to_string().find("serializable"), std::string::npos);
  EXPECT_NE(rep.to_json().dump().find("\"exit_code\":0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(AnalyzeRecordingFile, InjectedCycleExitsUnserializable) {
  // The trace_analyze --make-violation fixture: per-thread stamps are
  // monotone but the cross-thread dependence graph is cyclic.
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({0, LogEventType::kEdge, 1, 1});
  r.threads[0].events.push_back({1, LogEventType::kResponse, kNoThread, 1});
  r.threads[1].events.push_back({0, LogEventType::kEdge, 0, 1});
  r.threads[1].events.push_back({1, LogEventType::kResponse, kNoThread, 1});
  const std::string path = temp_path("ht_hb_cyclic.bin");
  ASSERT_TRUE(save_recording(r, path));
  const RecordingAnalysisReport rep = analyze_recording_file(path);
  EXPECT_FALSE(rep.hb_acyclic);
  EXPECT_FALSE(rep.rs.serializable);
  EXPECT_EQ(rep.exit_code(), kExitUnserializable) << rep.to_string();
  EXPECT_NE(rep.to_string().find("NOT serializable"), std::string::npos);
  std::remove(path.c_str());
}

TEST(AnalyzeRecordingFile, MissingFileMapsToLoadError) {
  const RecordingAnalysisReport rep =
      analyze_recording_file(temp_path("ht_hb_does_not_exist.bin"));
  EXPECT_FALSE(rep.load.recording.has_value());
  EXPECT_NE(rep.exit_code(), kExitOk);
  EXPECT_NE(rep.exit_code(), kExitUnserializable);
  // The load reason is printed once: "load failed: open-failed", not
  // "load failed: load failed: open-failed".
  EXPECT_EQ(rep.to_string(), rep.load.to_string());
  EXPECT_EQ(rep.to_string().rfind("load failed: "), 0u);
}

}  // namespace
}  // namespace ht::analysis
