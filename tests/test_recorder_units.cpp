// Unit tests for the recorder/replayer data structures and mechanics,
// complementing the end-to-end value-determinism tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <thread>

#include "analysis/hb_engine/hb_engine.hpp"
#include "analysis/trace_lint.hpp"
#include "recorder/dependence_log.hpp"
#include "recorder/recorder.hpp"
#include "recorder/recording_analysis.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"
#include "recorder/replayer.hpp"
#include "test_util.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/tracked_var.hpp"
#include "workload/apis.hpp"
#include "workload/profiles.hpp"
#include "workload/workload.hpp"

namespace ht {
namespace {

TEST(ThreadLog, CountsEdgeResponseAndRegionEvents) {
  ThreadLog log;
  log.events.push_back({1, LogEventType::kEdge, 0, 5});
  log.events.push_back({2, LogEventType::kResponse, kNoThread, 0});
  log.events.push_back({2, LogEventType::kEdge, 1, 9});
  log.events.push_back({4, LogEventType::kRegionEnd, kNoThread, 2});
  EXPECT_EQ(log.edge_count(), 2u);
  EXPECT_EQ(log.response_count(), 1u);
  EXPECT_EQ(log.region_end_count(), 1u);
  EXPECT_FALSE(log.events[0].is_bump());
  EXPECT_TRUE(log.events[1].is_bump());
  EXPECT_TRUE(log.events[3].is_bump());
}

TEST(Recording, SummaryAggregates) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 5});
  r.threads[1].events.push_back({3, LogEventType::kResponse, kNoThread, 0});
  EXPECT_EQ(r.total_edges(), 1u);
  EXPECT_EQ(r.total_responses(), 1u);
  EXPECT_NE(r.summary().find("2 threads"), std::string::npos);
}

TEST(DependenceRecorder, EdgeRecordsPointIndexAndSource) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  ctx.point_index = 42;
  rec.edge(ctx, 3, 1234);
  const ThreadLog& log = rec.log(ctx.id);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].point, 42u);
  EXPECT_EQ(log.events[0].type, LogEventType::kEdge);
  EXPECT_EQ(log.events[0].src, 3u);
  EXPECT_EQ(log.events[0].value, 1234u);
}

TEST(DependenceRecorder, EdgeAllOthersFansOutToEveryRegisteredThread) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& a = rt.register_thread();
  ThreadContext& b = rt.register_thread();
  ThreadContext& c = rt.register_thread();
  b.owner_side.release_counter.store(7, std::memory_order_relaxed);
  c.owner_side.release_counter.store(9, std::memory_order_relaxed);
  rec.edge_all_others(a, rt);
  const ThreadLog& log = rec.log(a.id);
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.events[0].src, b.id);
  EXPECT_EQ(log.events[0].value, 7u);
  EXPECT_EQ(log.events[1].src, c.id);
  EXPECT_EQ(log.events[1].value, 9u);
}

TEST(DependenceRecorder, ResponseHookLogsNondeterministicBumps) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& owner = rt.register_thread();
  ThreadContext& requester = rt.register_thread();
  rec.attach_thread(owner);
  owner.point_index = 10;

  std::atomic<bool> done{false};
  std::thread req([&] {
    (void)rt.coordinate(requester, owner.id);
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  req.join();
  const ThreadLog& log = rec.log(owner.id);
  ASSERT_GE(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].type, LogEventType::kResponse);
  // The response lands at whichever poll first saw the request; polls bump
  // the point index first, so the point is strictly past the starting 10.
  EXPECT_GT(log.events[0].point, 10u);
}

TEST(DependenceRecorder, PsroBumpsLogRegionMarksNotResponses) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  rec.attach_thread(ctx);
  rt.psro(ctx);
  rt.psro(ctx);
  // Deterministic bumps never appear as kResponse (the replayer re-issues
  // them by construction) but each leaves a kRegionEnd mark stamped with the
  // post-bump counter, so offline analyses see every region boundary.
  const ThreadLog& log = rec.log(ctx.id);
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.response_count(), 0u);
  EXPECT_EQ(log.region_end_count(), 2u);
  EXPECT_EQ(log.events[0].type, LogEventType::kRegionEnd);
  EXPECT_EQ(log.events[0].value, 1u);
  EXPECT_EQ(log.events[1].value, 2u);
}

TEST(DependenceRecorder, TakeRecordingResetsLogs) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  rec.edge(ctx, 0, 1);
  const Recording r = rec.take_recording(1);
  EXPECT_EQ(r.total_edges(), 1u);
  EXPECT_TRUE(rec.log(0).events.empty());
}

// --- Implied-edge elision ------------------------------------------------------

LogEvent edge_at(std::uint64_t point, ThreadId src, std::uint64_t value) {
  return LogEvent{point, LogEventType::kEdge, src, value};
}

TEST(DependenceRecorder, DropsAnEdgeNoHigherThanOneAlreadyLogged) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  const auto edge = [&](std::uint64_t point, ThreadId src, std::uint64_t v) {
    ctx.point_index = point;
    rec.edge(ctx, src, v);
  };
  edge(1, 2, 0);  // kept: the first edge from 2, even at value 0
  edge(2, 2, 0);  // dropped: equal
  edge(3, 2, 5);  // kept: higher
  edge(4, 2, 5);  // dropped: equal
  edge(5, 2, 4);  // dropped: lower
  edge(6, 2, 6);  // kept: higher
  const std::vector<LogEvent> want = {edge_at(1, 2, 0), edge_at(3, 2, 5),
                                      edge_at(6, 2, 6)};
  EXPECT_EQ(rec.log(ctx.id).events, want);
}

TEST(DependenceRecorder, ElidesEachSourceIndependently) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  ctx.point_index = 1;
  rec.edge(ctx, 1, 7);
  rec.edge(ctx, 3, 2);
  ctx.point_index = 2;
  rec.edge(ctx, 2, 1);  // kept: source 2 has no edge yet, though 1 and 3 do
  rec.edge(ctx, 1, 7);  // dropped
  rec.edge(ctx, 3, 3);  // kept: 3 is above source 3's 2, below source 1's 7
  rec.edge(ctx, 3, 2);  // dropped
  const std::vector<LogEvent> want = {edge_at(1, 1, 7), edge_at(1, 3, 2),
                                      edge_at(2, 2, 1), edge_at(2, 3, 3)};
  EXPECT_EQ(rec.log(ctx.id).events, want);
}

TEST(DependenceRecorder, ElisionTablesArePerRecordingThread) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& a = rt.register_thread();
  ThreadContext& b = rt.register_thread();
  rec.edge(a, 2, 4);
  rec.edge(b, 2, 4);  // b has waited on nothing: kept
  EXPECT_EQ(rec.log(a.id).events.size(), 1u);
  EXPECT_EQ(rec.log(b.id).events.size(), 1u);
}

TEST(DependenceRecorder, TakeRecordingResetsTheElisionTable) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  (void)rt.register_thread();
  rec.edge(ctx, 1, 4);
  EXPECT_EQ(rec.take_recording(2).total_edges(), 1u);
  rec.edge(ctx, 1, 4);  // the new recording has no edge that implies it
  EXPECT_EQ(rec.take_recording(2).total_edges(), 1u);
}

TEST(DependenceRecorder, PointPastThe48BitFieldIsAHardError) {
  Runtime rt;
  DependenceRecorder rec(rt);
  ThreadContext& ctx = rt.register_thread();
  ctx.point_index = LogEvent::kMaxPoint;
  rec.edge(ctx, 1, 1);
  EXPECT_EQ(rec.log(ctx.id).events.at(0).point, LogEvent::kMaxPoint);
  ctx.point_index = LogEvent::kMaxPoint + 1;
  EXPECT_DEATH(rec.edge(ctx, 1, 2), "48-bit");
}

// --- In-memory and on-disk event layout ----------------------------------------

// One event as the v2 format stores it: 21 bytes, wider fields than the
// in-memory LogEvent, so a file can name a point or src no recorder wrote.
struct DiskEvent {
  std::uint64_t point;
  std::uint8_t type;
  std::uint32_t src;
  std::uint64_t value;
};

DiskEvent on_disk(const LogEvent& e) {
  return {e.point, static_cast<std::uint8_t>(e.type), e.src, e.value};
}

// Lays out a complete v2 file by hand from recording_io.hpp's format
// description, independently of RecordingStreamWriter: one chunk per
// (thread, events) pair, then the trailer.
std::string v2_file(
    std::uint32_t threads,
    const std::vector<std::pair<std::uint32_t, std::vector<DiskEvent>>>&
        chunks) {
  std::string out = "HTRC";
  std::string block;
  const auto put = [&block](auto v) {
    block.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  std::uint64_t chain = 0xcbf29ce484222325ULL;
  const auto seal = [&] {  // block FNV-1a, chained from the previous block
    for (const char c : block) {
      chain ^= static_cast<unsigned char>(c);
      chain *= 0x100000001b3ULL;
    }
    put(chain);
    out += block;
    block.clear();
  };
  put(kRecordingFormatVersion);
  put(threads);
  seal();
  for (const auto& [thread, events] : chunks) {
    put(thread);
    put(static_cast<std::uint32_t>(events.size()));
    for (const DiskEvent& e : events) {
      put(e.point);
      put(e.type);
      put(e.src);
      put(e.value);
    }
    seal();
  }
  put(std::uint32_t{0xFFFFFFFFu});
  put(std::uint32_t{0});
  seal();
  return out;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

TEST(LogEventLayout, PackedFieldsHoldTheirLargestValues) {
  const LogEvent e{LogEvent::kMaxPoint, LogEventType::kRegionEnd,
                   LogEvent::kMaxSrc, ~std::uint64_t{0}};
  EXPECT_EQ(e.point, LogEvent::kMaxPoint);
  EXPECT_EQ(e.type, LogEventType::kRegionEnd);
  EXPECT_EQ(e.src, LogEvent::kMaxSrc);
  EXPECT_EQ(e.src, kNoThread);
  EXPECT_EQ(e.value, ~std::uint64_t{0});
}

// The writer's output is pinned byte for byte to the v2 layout, so packing
// the in-memory event changed nothing on disk.
TEST(LogEventLayout, SaveWritesTheV2Layout) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events = {edge_at(5, 1, 42),
                         {9, LogEventType::kResponse, kNoThread, 1}};
  r.threads[1].events = {{2, LogEventType::kRegionEnd, kNoThread, 3}};
  const std::string path = temp_path("ht_recorder_units_layout.bin");
  ASSERT_TRUE(save_recording(r, path));
  EXPECT_EQ(read_file(path),
            v2_file(2, {{0, {on_disk(r.threads[0].events[0]),
                             on_disk(r.threads[0].events[1])}},
                        {1, {on_disk(r.threads[1].events[0])}}}));
  std::remove(path.c_str());
}

TEST(LogEventLayout, LargestPointAndSrcSurviveSaveAndLoad) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events = {{LogEvent::kMaxPoint, LogEventType::kEdge,
                          LogEvent::kMaxSrc, ~std::uint64_t{0}}};
  r.threads[1].events = {
      {LogEvent::kMaxPoint, LogEventType::kRegionEnd, kNoThread, 1}};
  const std::string path = temp_path("ht_recorder_units_max.bin");
  ASSERT_TRUE(save_recording(r, path));
  const RecordingLoadResult got = load_recording_ex(path);
  ASSERT_TRUE(got.complete()) << got.to_string();
  EXPECT_EQ(got.recording->threads[0].events, r.threads[0].events);
  EXPECT_EQ(got.recording->threads[1].events, r.threads[1].events);
  std::remove(path.c_str());
}

// A point or src the packed event cannot hold, in a chunk whose checksum is
// intact, is corruption like an unknown type: the chunks before it load.
TEST(LogEventLayout, OutOfRangeFieldsSalvageAsChecksum) {
  const DiskEvent good = on_disk(edge_at(3, 1, 2));
  const DiskEvent bad[] = {
      {LogEvent::kMaxPoint + 1, 0, 0, 1},  // point
      {4, 0, LogEvent::kMaxSrc + 1, 1},    // src
      {4, 3, 0, 1},                        // type
  };
  const std::string path = temp_path("ht_recorder_units_range.bin");
  for (const DiskEvent& b : bad) {
    write_file(path, v2_file(2, {{0, {good}}, {1, {b}}}));
    const RecordingLoadResult got = load_recording_ex(path);
    EXPECT_EQ(got.error, RecordingLoadError::kChecksum) << got.to_string();
    EXPECT_TRUE(got.partial);
    EXPECT_EQ(got.chunks_loaded, 1u);
    ASSERT_TRUE(got.recording.has_value());
    EXPECT_EQ(got.recording->threads[0].events.size(), 1u);
    EXPECT_TRUE(got.recording->threads[1].events.empty());
  }
  // The same file with the event in range loads whole.
  write_file(path, v2_file(2, {{0, {good}}, {1, {good}}}));
  EXPECT_TRUE(load_recording_ex(path).complete());
  std::remove(path.c_str());
}

// --- Elision drops only implied edges --------------------------------------------

Recording record_profile(const char* name) {
  WorkloadConfig cfg = profile_by_name(name, 0.2);
  cfg.threads = 4;
  WorkloadData data(cfg);
  Runtime rt;
  DependenceRecorder rec(rt);
  using Tracker = HybridTracker<false, DependenceRecorder>;
  Tracker tracker(rt, HybridConfig{}, &rec);
  (void)run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<Tracker>(rt, tracker, &rec);
  });
  return rec.take_recording(static_cast<ThreadId>(cfg.threads));
}

// Copies every edge as late in its thread's log as it can go: just before
// the next edge from the same source, or at the end of the log, at the
// point of the event it follows. Each copy repeats the highest value logged
// from its source so far, which is exactly what elision drops, and keeps a
// source's values non-decreasing along the log, as a genuine recording's
// are.
Recording with_implied_copies(const Recording& r) {
  Recording out;
  out.threads.resize(r.threads.size());
  for (std::size_t t = 0; t < r.threads.size(); ++t) {
    std::vector<LogEvent>& dst = out.threads[t].events;
    std::vector<std::optional<std::uint64_t>> pending(r.threads.size());
    const auto flush = [&](ThreadId src) {
      if (!pending[src]) return;
      dst.push_back(edge_at(dst.back().point, src, *pending[src]));
      pending[src].reset();
    };
    for (const LogEvent& e : r.threads[t].events) {
      if (e.type == LogEventType::kEdge) flush(e.src);
      dst.push_back(e);
      if (e.type == LogEventType::kEdge) pending[e.src] = e.value;
    }
    for (ThreadId src = 0; src < pending.size(); ++src) flush(src);
  }
  return out;
}

struct Verdicts {
  bool valid;
  bool lint_ok;
  bool fully_parallel;
  int analyze_exit;

  bool operator==(const Verdicts&) const = default;
};

// `name` keeps the file apart from other tests' files, which ctest may be
// writing at the same time from other processes.
Verdicts verdicts_of(const Recording& r, const std::string& name) {
  const std::string path = temp_path(("ht_recorder_units_" + name).c_str());
  EXPECT_TRUE(save_recording(r, path));
  const Verdicts v{validate_recording(r).ok(),
                   analysis::lint_recording(r).ok(),
                   analyze_recording(r).fully_parallel(),
                   analysis::analyze_recording_file(path).exit_code()};
  std::remove(path.c_str());
  return v;
}

std::vector<std::vector<std::size_t>> bump_indices(const Recording& r) {
  std::vector<std::vector<std::size_t>> out(r.threads.size());
  for (std::size_t t = 0; t < r.threads.size(); ++t) {
    for (std::size_t i = 0; i < r.threads[t].events.size(); ++i) {
      if (r.threads[t].events[i].is_bump()) out[t].push_back(i);
    }
  }
  return out;
}

void expect_copies_change_nothing(const char* profile) {
  SCOPED_TRACE(profile);
  const Recording rec = record_profile(profile);
  ASSERT_GT(rec.total_edges(), 0u);
  // Elision already ran: along each log, one source's values only rise.
  for (const ThreadLog& log : rec.threads) {
    std::vector<std::optional<std::uint64_t>> last(rec.threads.size());
    for (const LogEvent& e : log.events) {
      if (e.type != LogEventType::kEdge) continue;
      if (last[e.src]) {
        EXPECT_GT(e.value, *last[e.src]);
      }
      last[e.src] = e.value;
    }
  }

  const Recording copied = with_implied_copies(rec);
  ASSERT_EQ(copied.total_edges(), 2 * rec.total_edges());
  const Verdicts base = verdicts_of(rec, std::string(profile) + ".bin");
  EXPECT_TRUE(base.valid);
  EXPECT_TRUE(base.lint_ok);
  EXPECT_EQ(base.analyze_exit, kExitOk);
  EXPECT_EQ(verdicts_of(copied, std::string(profile) + "_copied.bin"), base);

  // Happens-before between bumps: the k-th bump of one thread is ordered
  // before the j-th bump of another in both recordings or in neither.
  const analysis::Trace t0 = analysis::trace_from_recording(rec);
  const analysis::Trace t1 = analysis::trace_from_recording(copied);
  const analysis::HbOrder hb0 = analysis::HbOrder::build(t0);
  const analysis::HbOrder hb1 = analysis::HbOrder::build(t1);
  ASSERT_TRUE(hb0.acyclic());
  ASSERT_TRUE(hb1.acyclic());
  const auto b0 = bump_indices(rec);
  const auto b1 = bump_indices(copied);
  ASSERT_EQ(b0.size(), b1.size());
  std::size_t pairs = 0, ordered = 0, differ = 0;
  for (ThreadId ta = 0; ta < b0.size(); ++ta) {
    ASSERT_EQ(b0[ta].size(), b1[ta].size());
    for (ThreadId tb = 0; tb < b0.size(); ++tb) {
      if (ta == tb) continue;
      for (std::size_t i = 0; i < b0[ta].size(); ++i) {
        for (std::size_t j = 0; j < b0[tb].size(); ++j) {
          const bool r0 = hb0.happens_before({ta, b0[ta][i]}, {tb, b0[tb][j]});
          const bool r1 = hb1.happens_before({ta, b1[ta][i]}, {tb, b1[tb][j]});
          ++pairs;
          ordered += r0 ? 1 : 0;
          differ += r0 != r1 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(ordered, 0u) << "no cross-thread order between bumps to compare";
  EXPECT_EQ(differ, 0u) << "of " << pairs << " bump pairs";
}

TEST(ImpliedEdges, CopiesChangeNoVerdictOrOrderOnPjbb2005) {
  expect_copies_change_nothing("pjbb2005");
}

TEST(ImpliedEdges, CopiesChangeNoVerdictOrOrderOnHsqldb6) {
  expect_copies_change_nothing("hsqldb6");
}

// --- Replayer ----------------------------------------------------------------

Recording two_thread_recording() {
  Recording r;
  r.threads.resize(2);
  return r;
}

TEST(Replayer, AppliesResponseBumpsAtRecordedPoints) {
  Recording r = two_thread_recording();
  r.threads[0].events.push_back({3, LogEventType::kResponse, kNoThread, 0});
  Replayer rp(r);
  rp.at_point(0);  // 1
  rp.at_point(0);  // 2
  EXPECT_EQ(rp.release_counter(0), 0u);
  rp.at_point(0);  // 3: logged bump fires
  EXPECT_EQ(rp.release_counter(0), 1u);
}

TEST(Replayer, PsroBumpsAreDeterministic) {
  Recording r = two_thread_recording();
  Replayer rp(r);
  rp.at_psro(0);
  rp.at_psro(0);
  EXPECT_EQ(rp.release_counter(0), 2u);
}

TEST(Replayer, ThreadEndBumpMirrorsUnregister) {
  Recording r = two_thread_recording();
  Replayer rp(r);
  rp.at_thread_end(1);
  EXPECT_EQ(rp.release_counter(1), 1u);
}

TEST(Replayer, EdgeBlocksUntilSourceReachesValue) {
  Recording r = two_thread_recording();
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 2});
  Replayer rp(r);

  std::atomic<bool> passed{false};
  std::thread sink([&] {
    rp.at_point(0);  // blocks until thread 1's counter reaches 2
    passed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  rp.at_psro(1);
  EXPECT_FALSE(passed.load());
  rp.at_psro(1);  // counter reaches 2
  sink.join();
  EXPECT_TRUE(passed.load());
  EXPECT_GE(rp.blocking_waits(), 1u);
}

TEST(Replayer, SatisfiedEdgeDoesNotBlock) {
  Recording r = two_thread_recording();
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 1});
  Replayer rp(r);
  rp.at_psro(1);
  rp.at_point(0);  // already satisfied
  EXPECT_EQ(rp.blocking_waits(), 0u);
}

TEST(Replayer, MultipleEventsAtOnePointApplyInLogOrder) {
  Recording r = two_thread_recording();
  r.threads[0].events.push_back({1, LogEventType::kResponse, kNoThread, 0});
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 1});
  r.threads[1].events.push_back({1, LogEventType::kEdge, 0, 1});
  Replayer rp(r);
  // Thread 1 waits for thread 0's counter >= 1, which the kResponse at
  // thread 0's point 1 provides — and thread 0 then waits for thread 1.
  std::thread t0([&] { rp.at_point(0); });
  std::thread t1([&] {
    rp.at_point(1);
    rp.at_psro(1);  // satisfies thread 0's edge (value 1)
  });
  t0.join();
  t1.join();
  SUCCEED();
}

}  // namespace
}  // namespace ht
