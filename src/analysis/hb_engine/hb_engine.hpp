// The offline happens-before engine (DESIGN.md §12): the three analyses the
// ISSUE's tentpole names, all running over one HbOrder built from a Trace.
//
//   * Predictive race detection (annotated traces): conflicting access
//     pairs — same object, different threads, at least one write — that the
//     happens-before order leaves unordered. The HB relation is
//     sync-preserving (program order + every lock release->acquire pair in
//     the observed schedule), so an unordered pair really can execute
//     adjacently in some schedule that preserves the observed
//     synchronization: reports are sound, not schedule-luck. Cross-validated
//     against the runtime FastTrack detector and exhaustive exploration
//     (test_hb_predictive.cpp).
//
//   * Region-serializability checking (RegionTrack-style): map events onto
//     enforcer regions (a release-counter bump or a lock operation ends the
//     executing thread's current region), project the event graph's
//     cross-thread arcs onto regions, add observed-order conflict arcs
//     between regions (annotated traces), and look for a cycle: one region
//     order consistent with program order and every conflict exists iff the
//     graph is acyclic. A cycle is a violation the SBRS enforcer should have
//     restarted.
//
//   * Dependence-graph analytics: critical-path length, cross-thread arc
//     density, per-thread fan-in/out, per-object conflict ranking — exported
//     as deterministic JSON to seed the adaptive policy's initial
//     pessimistic set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/hb_engine/hb_order.hpp"
#include "analysis/hb_engine/hb_trace.hpp"
#include "analysis/trace_lint.hpp"
#include "common/json.hpp"
#include "recorder/recording_io.hpp"

namespace ht::analysis {

// --- predictive race detection -----------------------------------------------

struct PredictiveRace {
  int obj = -1;
  NodeRef first;   // witness pair, first in the observed schedule
  NodeRef second;
  bool write_write = false;  // both sides writes (else at least one read)
};

struct PredictiveRaceReport {
  // One witness per racy object (the first unordered conflicting pair in
  // observed order); bit o of the mask is set iff object o < 64 raced.
  std::vector<PredictiveRace> races;
  std::uint64_t racy_object_mask = 0;
  std::size_t pairs_checked = 0;
  bool applicable = false;  // false for sync-only traces (no access events)
};

PredictiveRaceReport predictive_races(const Trace& trace, const HbOrder& hb);

// --- region serializability ---------------------------------------------------

// Region r of thread t: the t-th thread's events between its (r-1)-th and
// r-th boundary events (bumps and lock operations), boundary included.
struct RegionRef {
  ThreadId thread = kNoThread;
  std::size_t index = 0;

  bool operator==(const RegionRef&) const = default;
};

struct RegionSerializabilityReport {
  std::size_t regions = 0;
  std::size_t region_arcs = 0;     // cross-thread arcs after projection
  std::size_t conflict_arcs = 0;   // observed-order conflict arcs (annotated)
  bool serializable = true;
  // Regions stuck in the conflict cycle (the violation witness).
  std::vector<RegionRef> violating;
};

RegionSerializabilityReport check_region_serializability(const Trace& trace,
                                                         const HbOrder& hb);

// --- analytics ----------------------------------------------------------------

struct ObjectConflictStat {
  int obj = -1;
  std::size_t conflicting_pairs = 0;  // HB-ordered or not: contention proxy
  std::size_t racy_pairs = 0;         // HB-unordered conflicting pairs
};

struct TraceAnalytics {
  std::size_t threads = 0;
  std::size_t events = 0;
  std::size_t cross_arcs = 0;
  std::size_t critical_path = 0;
  double cross_arc_density = 0;  // cross_arcs / events
  double parallelism = 0;        // events / critical_path
  std::vector<std::size_t> edges_out;  // per-thread cross-arc sources
  std::vector<std::size_t> edges_in;   // per-thread cross-arc sinks
  // Annotated traces: objects ranked by conflicting pairs, descending — the
  // adaptive policy's initial-pessimistic-set seed.
  std::vector<ObjectConflictStat> object_ranking;

  json::Value to_json() const;
};

TraceAnalytics analyze_trace(const Trace& trace, const HbOrder& hb);

// --- whole-file driver ----------------------------------------------------------

// Everything trace_analyze reports for one recording file: load status,
// structural lint, HB reconstruction, region serializability, analytics.
struct RecordingAnalysisReport {
  RecordingLoadResult load;
  LintResult lint;   // meaningful only when load.recording exists
  bool hb_acyclic = false;
  RegionSerializabilityReport rs;
  TraceAnalytics analytics;

  // The trace_analyze exit code this report maps to (ToolExitCode). With
  // allow_partial a salvaged prefix is judged by its analysis verdict.
  int exit_code(bool allow_partial = false) const;
  std::string to_string() const;
  json::Value to_json() const;
};

RecordingAnalysisReport analyze_recording_file(const std::string& path);

}  // namespace ht::analysis
