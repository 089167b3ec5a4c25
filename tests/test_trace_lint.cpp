// The recorded-trace lint: cross-thread dependence checks on in-memory
// recordings, file-level lint with loader-failure exit-code mapping,
// graceful degradation for pre-stamping (all-zero response) recordings, and
// the cursor sweep (lint and HbOrder) checked against a Kahn reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>

#include "analysis/hb_engine/hb_engine.hpp"
#include "analysis/hb_engine/hb_order.hpp"
#include "analysis/trace_lint.hpp"
#include "recorder/recording_io.hpp"

namespace ht {
namespace {

using analysis::lint_recording;
using analysis::lint_recording_file;
using analysis::LintResult;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// T0 responds (stamps 1, 2); T1 waited for T0's counter to reach 1.
Recording genuine_recording() {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({3, LogEventType::kResponse, kNoThread, 1});
  r.threads[0].events.push_back({8, LogEventType::kResponse, kNoThread, 2});
  r.threads[1].events.push_back({5, LogEventType::kEdge, 0, 1});
  return r;
}

TEST(TraceLint, GenuineRecordingPasses) {
  const LintResult r = lint_recording(genuine_recording());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.graph_nodes, 3u);
  EXPECT_EQ(r.graph_arcs, 1u);  // T0's response(1) -> T1's edge
  EXPECT_FALSE(r.salvaged_prefix);
}

TEST(TraceLint, StructuralFailureShortCircuits) {
  Recording r;
  r.threads.resize(1);
  r.threads[0].events.push_back({0, LogEventType::kEdge, 0, 1});  // self-edge
  const LintResult lint = lint_recording(r);
  EXPECT_FALSE(lint.ok());
  EXPECT_FALSE(lint.structure.ok());
  EXPECT_TRUE(lint.issues.empty());  // graph checks skipped
  EXPECT_EQ(lint.graph_nodes, 0u);
}

TEST(TraceLint, FlagsNonMonotoneResponseStamps) {
  Recording r;
  r.threads.resize(1);
  r.threads[0].events.push_back({1, LogEventType::kResponse, kNoThread, 3});
  r.threads[0].events.push_back({2, LogEventType::kResponse, kNoThread, 1});
  const LintResult lint = lint_recording(r);
  EXPECT_FALSE(lint.ok());
  ASSERT_FALSE(lint.issues.empty());
  EXPECT_NE(lint.issues[0].message.find("strictly increasing"),
            std::string::npos);
}

TEST(TraceLint, FlagsDecreasingEdgeValuesPerSource) {
  Recording r;
  r.threads.resize(2);
  r.threads[1].events.push_back({1, LogEventType::kEdge, 0, 5});
  r.threads[1].events.push_back({2, LogEventType::kEdge, 0, 3});
  const LintResult lint = lint_recording(r);
  EXPECT_FALSE(lint.ok());
  ASSERT_EQ(lint.issues.size(), 1u);
  EXPECT_EQ(lint.issues[0].thread, 1u);
  EXPECT_EQ(lint.issues[0].event, 1u);
  EXPECT_NE(lint.issues[0].message.find("edge value decreases"),
            std::string::npos);
}

// Mutual waiting that no real-time execution can produce: each thread's
// edge requires the other's response, and each response comes AFTER the
// edge in its own program order.
TEST(TraceLint, FlagsDependenceCycle) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 1});
  r.threads[0].events.push_back({2, LogEventType::kResponse, kNoThread, 1});
  r.threads[1].events.push_back({1, LogEventType::kEdge, 0, 1});
  r.threads[1].events.push_back({2, LogEventType::kResponse, kNoThread, 1});
  const LintResult lint = lint_recording(r);
  EXPECT_FALSE(lint.ok());
  ASSERT_FALSE(lint.issues.empty());
  EXPECT_NE(lint.issues[0].message.find("cycle"), std::string::npos)
      << lint.to_string();
}

// The same shape is fine when the responses precede the edges: the arcs all
// point forward and a topological order exists.
TEST(TraceLint, AcceptsAcyclicCrossDependences) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kResponse, kNoThread, 1});
  r.threads[0].events.push_back({2, LogEventType::kEdge, 1, 1});
  r.threads[1].events.push_back({1, LogEventType::kResponse, kNoThread, 1});
  r.threads[1].events.push_back({2, LogEventType::kEdge, 0, 1});
  const LintResult lint = lint_recording(r);
  EXPECT_TRUE(lint.ok()) << lint.to_string();
  EXPECT_EQ(lint.graph_arcs, 2u);
}

TEST(TraceLint, SalvagedFlagSurfacesInReport) {
  const LintResult lint = lint_recording(genuine_recording(), /*salvaged=*/true);
  EXPECT_TRUE(lint.ok());  // the checks themselves still pass
  EXPECT_TRUE(lint.salvaged_prefix);
  EXPECT_NE(lint.to_string().find("salvaged"), std::string::npos);
}

// ---- the cursor sweep against a Kahn reference -----------------------------

using analysis::HbArc;
using analysis::HbOrder;
using analysis::NodeRef;
using analysis::Trace;
using analysis::TraceEvent;
using analysis::TraceEventKind;

// The arcs HbOrder's graph must hold, found by plain scans: each edge from
// the last bump of its source stamped <= its value, then on annotated traces
// each release to the next acquire of the same lock in seq order.
std::vector<HbArc> reference_arcs(const Trace& tr) {
  std::vector<HbArc> arcs;
  std::map<int, std::vector<std::pair<std::uint64_t, NodeRef>>> per_lock;
  for (std::size_t t = 0; t < tr.thread_count(); ++t) {
    for (std::size_t i = 0; i < tr.threads[t].size(); ++i) {
      const TraceEvent& e = tr.threads[t][i];
      const NodeRef node{static_cast<ThreadId>(t), i};
      if (e.kind == TraceEventKind::kEdge) {
        std::optional<std::size_t> anchor;
        for (std::size_t j = 0; j < tr.threads[e.src].size(); ++j) {
          const TraceEvent& b = tr.threads[e.src][j];
          if (b.is_bump() && b.value <= e.value) anchor = j;
        }
        if (anchor) arcs.push_back({NodeRef{e.src, *anchor}, node});
      } else if (tr.annotated && (e.kind == TraceEventKind::kAcquire ||
                                  e.kind == TraceEventKind::kRelease)) {
        per_lock[e.lock].push_back({e.seq, node});
      }
    }
  }
  const auto kind = [&](NodeRef n) { return tr.threads[n.thread][n.index].kind; };
  for (auto& [lock, evs] : per_lock) {
    std::stable_sort(evs.begin(), evs.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (std::size_t k = 0; k < evs.size(); ++k) {
      if (kind(evs[k].second) != TraceEventKind::kRelease) continue;
      for (std::size_t m = k + 1; m < evs.size(); ++m) {
        if (kind(evs[m].second) == TraceEventKind::kAcquire) {
          arcs.push_back({evs[k].second, evs[m].second});
          break;
        }
      }
    }
  }
  return arcs;
}

// Kahn's algorithm over explicit successor lists — the construction the
// cursor sweep replaced, kept here as the oracle — over per-thread chains of
// `lengths` events plus `arcs`.
struct KahnReference {
  std::size_t unsorted = 0;
  std::size_t critical_path = 0;
  std::vector<NodeRef> left;  // unsorted nodes, lowest thread then index
  std::vector<std::vector<std::uint64_t>> clocks;  // per flat id
};

KahnReference kahn(const std::vector<std::size_t>& lengths,
                   const std::vector<HbArc>& arcs) {
  KahnReference ref;
  const std::size_t n = lengths.size();
  std::vector<std::size_t> base(n + 1, 0);
  for (std::size_t t = 0; t < n; ++t) base[t + 1] = base[t] + lengths[t];
  const std::size_t nodes = base[n];
  std::vector<NodeRef> node_of(nodes);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < lengths[t]; ++i)
      node_of[base[t] + i] = {static_cast<ThreadId>(t), i};
  }
  std::vector<std::vector<std::size_t>> succ(nodes);
  std::vector<std::size_t> indegree(nodes, 0);
  const auto arc = [&](std::size_t u, std::size_t v) {
    succ[u].push_back(v);
    ++indegree[v];
  };
  for (std::size_t u = 0; u < nodes; ++u) {
    if (node_of[u].index + 1 < lengths[node_of[u].thread]) arc(u, u + 1);
  }
  for (const HbArc& a : arcs) {
    arc(base[a.from.thread] + a.from.index, base[a.to.thread] + a.to.index);
  }
  ref.clocks.assign(nodes, std::vector<std::uint64_t>(n, 0));
  std::vector<std::size_t> depth(nodes, 0);
  std::deque<std::size_t> ready;
  for (std::size_t u = 0; u < nodes; ++u) {
    if (indegree[u] == 0) ready.push_back(u);
  }
  std::size_t sorted = 0;
  while (!ready.empty()) {
    const std::size_t u = ready.front();
    ready.pop_front();
    ++sorted;
    ref.clocks[u][node_of[u].thread] = node_of[u].index + 1;
    ref.critical_path = std::max(ref.critical_path, ++depth[u]);
    for (std::size_t v : succ[u]) {
      for (std::size_t t = 0; t < n; ++t)
        ref.clocks[v][t] = std::max(ref.clocks[v][t], ref.clocks[u][t]);
      depth[v] = std::max(depth[v], depth[u]);
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  ref.unsorted = nodes - sorted;
  if (ref.unsorted != 0) {
    ref.critical_path = 0;
    for (std::size_t u = 0; u < nodes; ++u) {
      if (indegree[u] > 0) ref.left.push_back(node_of[u]);
    }
  }
  return ref;
}

// A recording produced by a simulated interleaving: at each step one thread
// bumps its counter (logged with its stamp, or unlogged) or records an edge reading some other thread's counter at or
// below its current value. Real-time order then contains every anchor arc,
// so the recording is acyclic. With `forge`, one edge's value is raised
// past its source's stamps at that moment, which can point the edge at a
// bump logged after it — a cycle whenever that bump depends on the edge.
// Later edges of the same (sink, source) pair are raised along with it, so
// the only issue the lint can find is the cycle.
Recording interleaved_recording(std::uint64_t seed, bool forge) {
  std::mt19937_64 rng(seed);
  const std::size_t n = 2 + rng() % 4;
  Recording r;
  r.threads.resize(n);
  std::vector<std::uint64_t> counter(n, 0);
  std::vector<std::vector<std::uint64_t>> last(n,
                                               std::vector<std::uint64_t>(n));
  const std::size_t steps = rng() % 60;
  for (std::uint64_t point = 1; point <= steps; ++point) {
    const std::size_t t = rng() % n;
    const std::uint64_t roll = rng() % 10;
    auto& events = r.threads[t].events;
    if (roll < 4) {
      ++counter[t];
      if (roll == 3) continue;  // an unlogged bump
      const LogEventType type =
          roll == 0 ? LogEventType::kResponse : LogEventType::kRegionEnd;
      events.push_back({point, type, kNoThread, counter[t]});
    } else {
      const std::size_t src = (t + 1 + rng() % (n - 1)) % n;
      const std::uint64_t v =
          last[t][src] + rng() % (counter[src] - last[t][src] + 1);
      last[t][src] = v;
      events.push_back({point, LogEventType::kEdge,
                        static_cast<ThreadId>(src), v});
    }
  }
  if (!forge) return r;
  std::vector<NodeRef> edges;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < r.threads[t].events.size(); ++i) {
      if (r.threads[t].events[i].type == LogEventType::kEdge)
        edges.push_back({static_cast<ThreadId>(t), i});
    }
  }
  if (edges.empty()) return r;
  const NodeRef pick = edges[rng() % edges.size()];
  auto& events = r.threads[pick.thread].events;
  const ThreadId src = events[pick.index].src;
  const std::uint64_t raised =
      events[pick.index].value + 1 + rng() % (counter[src] + 2);
  for (std::size_t i = pick.index; i < events.size(); ++i) {
    if (events[i].type == LogEventType::kEdge && events[i].src == src)
      events[i].value = std::max(events[i].value, raised);
  }
  return r;
}

// The lint, HbOrder and the region check must all agree with Kahn. Counts
// the recordings whose regions are not serializable in `unserializable`.
void expect_matches_kahn(const Recording& rec, const std::string& label,
                         std::size_t& unserializable) {
  SCOPED_TRACE(label);
  const Trace trace = analysis::trace_from_recording(rec);
  const std::size_t n = trace.thread_count();
  std::vector<std::size_t> lengths(n);
  for (std::size_t t = 0; t < n; ++t) lengths[t] = trace.threads[t].size();
  const std::vector<HbArc> arcs = reference_arcs(trace);
  const KahnReference ref = kahn(lengths, arcs);
  const std::size_t nodes = trace.total_events();
  const std::optional<NodeRef> first_cyclic =
      ref.left.empty() ? std::nullopt : std::optional(ref.left[0]);

  const LintResult lint = lint_recording(rec);
  ASSERT_TRUE(lint.structure.ok()) << lint.to_string();
  EXPECT_EQ(lint.graph_nodes, nodes);
  EXPECT_EQ(lint.graph_arcs, arcs.size());
  EXPECT_EQ(lint.ok(), ref.unsorted == 0) << lint.to_string();
  if (ref.unsorted != 0) {
    ASSERT_EQ(lint.issues.size(), 1u) << lint.to_string();
    EXPECT_EQ(lint.issues[0].thread, first_cyclic->thread);
    EXPECT_EQ(lint.issues[0].event, first_cyclic->index);
    EXPECT_EQ(lint.issues[0].message,
              "cross-thread dependence graph has a cycle (" +
                  std::to_string(ref.unsorted) +
                  " event(s) unorderable; no topological order exists)");
  }

  const HbOrder hb = HbOrder::build(trace);
  EXPECT_EQ(hb.node_count(), nodes);
  ASSERT_EQ(hb.cross_arc_count(), arcs.size());
  for (std::size_t k = 0; k < arcs.size(); ++k) {
    EXPECT_EQ(hb.cross_arcs()[k].from, arcs[k].from) << "arc " << k;
    EXPECT_EQ(hb.cross_arcs()[k].to, arcs[k].to) << "arc " << k;
  }
  EXPECT_EQ(hb.unsorted_count(), ref.unsorted);
  EXPECT_EQ(hb.first_cyclic(), first_cyclic);
  EXPECT_EQ(hb.critical_path_length(), ref.critical_path);
  if (ref.unsorted == 0) {
    for (std::size_t t = 0, u = 0; t < n; ++t) {
      for (std::size_t i = 0; i < lengths[t]; ++i, ++u) {
        for (std::size_t c = 0; c < n; ++c) {
          ASSERT_EQ(hb.clock({static_cast<ThreadId>(t), i})
                        .get(static_cast<ThreadId>(c)),
                    ref.clocks[u][c])
              << "clock of T" << t << " event " << i;
        }
      }
    }
  }

  // Regions of a sync trace end at each bump; the same arcs, projected onto
  // regions, minus those inside one region.
  std::vector<std::vector<std::size_t>> region_of(n);
  std::vector<std::size_t> regions(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    for (const TraceEvent& e : trace.threads[t]) {
      region_of[t].push_back(regions[t]);
      if (e.is_bump()) ++regions[t];
    }
    if (!trace.threads[t].empty() && !trace.threads[t].back().is_bump())
      ++regions[t];
  }
  std::vector<HbArc> region_arcs;
  for (const HbArc& a : arcs) {
    const HbArc r{{a.from.thread, region_of[a.from.thread][a.from.index]},
                  {a.to.thread, region_of[a.to.thread][a.to.index]}};
    if (!(r.from == r.to)) region_arcs.push_back(r);
  }
  const KahnReference region_ref = kahn(regions, region_arcs);
  const analysis::RegionSerializabilityReport rs =
      analysis::check_region_serializability(trace, hb);
  EXPECT_EQ(rs.region_arcs, arcs.size());
  EXPECT_EQ(rs.serializable, region_ref.left.empty());
  if (!rs.serializable) ++unserializable;
  ASSERT_EQ(rs.violating.size(), region_ref.left.size());
  for (std::size_t k = 0; k < rs.violating.size(); ++k) {
    EXPECT_EQ(rs.violating[k].thread, region_ref.left[k].thread);
    EXPECT_EQ(rs.violating[k].index, region_ref.left[k].index);
  }
}

TEST(CursorSweepProperty, InterleavedRecordingsMatchKahn) {
  std::size_t unserializable = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const Recording rec = interleaved_recording(seed, /*forge=*/false);
    ASSERT_TRUE(lint_recording(rec).ok()) << "seed " << seed;
    expect_matches_kahn(rec, "seed " + std::to_string(seed), unserializable);
    if (HasFatalFailure()) return;
  }
  // Every arc leaves a region's closing bump, which preceded the edge in
  // real time, so a genuine recording's regions always serialize.
  EXPECT_EQ(unserializable, 0u);
}

TEST(CursorSweepProperty, ForgedCyclesMatchKahn) {
  std::size_t cyclic = 0;
  std::size_t unserializable = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const Recording rec = interleaved_recording(seed, /*forge=*/true);
    expect_matches_kahn(rec, "forged seed " + std::to_string(seed),
                        unserializable);
    if (HasFatalFailure()) return;
    if (!lint_recording(rec).ok()) ++cyclic;
  }
  // The forgery must actually produce cycles, not only raised values.
  EXPECT_GT(cyclic, 100u);
  EXPECT_GT(unserializable, 100u);
}

// A malformed annotated trace can aim several lock arcs at one acquire (two
// releases with no acquire between them). Every one of them orders the
// acquire: here the second comes from a release that waits on a bump after
// the acquire, so the acquire is on a cycle even though the first arc's
// source is visited at once.
TEST(CursorSweepProperty, EveryLockArcIntoAnAcquireIsHonoured) {
  Trace tr;
  tr.annotated = true;
  tr.threads.resize(3);
  const auto ev = [](TraceEventKind kind, ThreadId t, std::uint64_t seq) {
    TraceEvent e;
    e.kind = kind;
    e.thread = t;
    e.lock = 0;
    e.seq = seq;
    return e;
  };
  TraceEvent bump = ev(TraceEventKind::kBump, 0, analysis::kNoSeq);
  bump.value = 1;
  TraceEvent wait = ev(TraceEventKind::kEdge, 2, analysis::kNoSeq);
  wait.src = 0;
  wait.value = 1;
  tr.threads[0] = {ev(TraceEventKind::kAcquire, 0, 2), bump};
  tr.threads[1] = {ev(TraceEventKind::kRelease, 1, 0)};
  tr.threads[2] = {wait, ev(TraceEventKind::kRelease, 2, 1)};
  const std::vector<HbArc> arcs = reference_arcs(tr);
  ASSERT_EQ(arcs.size(), 3u);
  const KahnReference ref = kahn({2, 1, 2}, arcs);
  ASSERT_EQ(ref.unsorted, 4u);
  const HbOrder hb = HbOrder::build(tr);
  EXPECT_EQ(hb.cross_arc_count(), arcs.size());
  EXPECT_EQ(hb.unsorted_count(), ref.unsorted);
  EXPECT_EQ(hb.first_cyclic(), ref.left[0]);
}

// ---- file-level lint + exit-code mapping ------------------------------------

TEST(TraceLintFile, CleanFileRoundTrips) {
  const std::string path = temp_path("ht_lint_clean.bin");
  ASSERT_TRUE(save_recording(genuine_recording(), path));
  const auto r = lint_recording_file(path);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(exit_code_for(r.load.error), kExitOk);
  std::remove(path.c_str());
}

TEST(TraceLintFile, CorruptedFileMapsToChecksumExitCode) {
  const std::string path = temp_path("ht_lint_corrupt.bin");
  ASSERT_TRUE(save_recording(genuine_recording(), path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);  // inside the first chunk, past the v2 header (20 bytes)
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(32);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  const auto r = lint_recording_file(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.load.error, RecordingLoadError::kChecksum);
  EXPECT_EQ(exit_code_for(r.load.error), kExitChecksum);
  // A valid prefix was salvaged and linted, flagged as partial.
  if (r.load.recording.has_value()) {
    EXPECT_TRUE(r.load.partial);
    EXPECT_TRUE(r.lint.salvaged_prefix);
  }
  std::remove(path.c_str());
}

TEST(TraceLintFile, BadMagicMapsToExitCode) {
  const std::string path = temp_path("ht_lint_badmagic.bin");
  std::ofstream(path, std::ios::binary) << "not a recording at all";
  const auto r = lint_recording_file(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(exit_code_for(r.load.error), kExitBadMagic);
  std::remove(path.c_str());
}

TEST(TraceLintFile, MissingFileMapsToIoExitCode) {
  const auto r = lint_recording_file("/nonexistent/dir/nothing.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(exit_code_for(r.load.error), kExitIo);
}

TEST(ExitCodes, DistinctAndStable) {
  EXPECT_EQ(exit_code_for(RecordingLoadError::kNone), 0);
  EXPECT_EQ(exit_code_for(RecordingLoadError::kBadMagic), 2);
  EXPECT_EQ(exit_code_for(RecordingLoadError::kBadVersion), 3);
  EXPECT_EQ(exit_code_for(RecordingLoadError::kTruncated), 4);
  EXPECT_EQ(exit_code_for(RecordingLoadError::kChecksum), 5);
  EXPECT_EQ(exit_code_for(RecordingLoadError::kIo), 6);
  // Structure/lint rejections use their own documented codes.
  EXPECT_EQ(kExitStructure, 7);
  EXPECT_EQ(kExitLint, 8);
  EXPECT_EQ(kExitUnserializable, 9);
  EXPECT_EQ(kExitUsage, 1);
}

}  // namespace
}  // namespace ht
