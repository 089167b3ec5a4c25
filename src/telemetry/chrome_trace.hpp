// Chrome trace-event JSON exporter and the Fig-6-style hot-object report
// (DESIGN.md §10.5).
//
// Output loads in Perfetto / chrome://tracing: latency-carrying kinds
// (coordination round trip, pessimistic wait, region restart) render as "X"
// duration slices ending at their record timestamp; everything else is an "i"
// instant. Timestamps are microseconds relative to the snapshot's base_tsc,
// converted with the calibrated cycles_per_second.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/dwell.hpp"
#include "telemetry/telemetry.hpp"

namespace ht::telemetry {

std::string to_chrome_trace_json(const TraceSnapshot& snap);

// Structural validation of a Chrome trace document (used by
// `trace_analyze export --check`): top-level object with a traceEvents
// array whose entries all carry name/ph/ts/pid/tid, and whose "X" events
// have a non-negative dur. Returns true and the event count on success; fills
// `error` on failure.
bool validate_chrome_trace(const std::string& text, std::size_t* event_count,
                           std::string* error);

// Per-object conflicting-transition ranking (the paper's Fig 6 is the same
// census as a cumulative distribution; this is its top-N view). Conflicts =
// optimistic conflicting transitions + contended pessimistic acquisitions +
// pessimistic waits observed against the object. When the trace carries
// kStateTransition dwell edges, each row also carries the object's
// fold_state_dwell row: its transition count and per-class residency.
struct HotObject {
  std::uint32_t object = 0;
  std::uint64_t opt_conflicts = 0;
  std::uint64_t pess_contended = 0;
  ObjectDwell dwell;
  std::uint64_t total() const { return opt_conflicts + pess_contended; }
};

std::vector<HotObject> hot_objects(const TraceSnapshot& snap, std::size_t top_n);

// Formatted table of the top-N ranking (`trace_analyze export --top`).
std::string hot_object_report(const TraceSnapshot& snap, std::size_t top_n);

}  // namespace ht::telemetry
