// Recorded-trace lint (analysis layer, part 3): offline static checks over a
// dependence recording, beyond the structural well-formedness that
// validate_recording already enforces. Everything here must hold of ANY
// genuine recording regardless of the recorded program, because each check
// follows from two facts the recorder guarantees:
//
//   (1) a thread's release counter is bumped monotonically, and edge values
//       are reads of that counter taken at program-ordered moments — so for
//       a fixed (sink thread, source thread) pair, edge values are
//       non-decreasing in the sink's program order;
//   (2) bump events (kResponse and kRegionEnd) are stamped with the
//       post-bump counter, so a thread's stamps are strictly increasing
//       (and, starting at >= 1 — validate_recording rejects a zero stamp —
//       the k-th logged bump has a stamp of at least k), and a bump of S
//       stamped w happened in real time before any access that waited for
//       S's counter to reach v >= w.
//
// Fact (2) turns the recording into a cross-thread dependence graph — the
// one the offline happens-before core builds (hb_engine/hb_order.hpp):
// nodes are log events, program order chains each thread's log, and each
// edge event (T, i) requiring (S, v) gets an arc from the last bump of S
// stamped <= v. Real-time order contains every arc, so a genuine recording's
// graph is acyclic and its wr->rd edges are consistent with any topological
// order of it; a cycle proves the file was corrupted, spliced, or
// hand-forged. The lint never materialises the graph: one cursor sweep
// (CursorSweep) runs over the recording itself, with one cursor and one
// look-ahead index per thread, so it allocates O(threads) beyond the input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "recorder/dependence_log.hpp"
#include "recorder/recording_validate.hpp"

namespace ht::analysis {

struct LintIssue {
  ThreadId thread;    // log the issue was found in
  std::size_t event;  // index into that log (0 for whole-recording issues)
  std::string message;
};

struct LintResult {
  // Structural validation result (validate_recording), run first: the graph
  // checks assume in-order logs and in-range sources.
  ValidationResult structure;
  std::vector<LintIssue> issues;   // lint findings beyond structure
  bool salvaged_prefix = false;    // input was a partial (salvaged) file
  std::size_t graph_nodes = 0;
  std::size_t graph_arcs = 0;      // cross-thread arcs (program order excluded)

  bool ok() const { return structure.ok() && issues.empty(); }
  std::string to_string() const;
};

// Lints an in-memory recording. `salvaged` marks the result as coming from a
// partial file (the checks still apply: every prefix of a genuine recording
// is genuine, but callers must surface the flag).
LintResult lint_recording(const Recording& recording, bool salvaged = false);

// Loads `path` via recording_io and lints whatever was recoverable. The
// load result is returned so callers can map failures to exit codes.
struct FileLintResult {
  RecordingLoadResult load;
  LintResult lint;  // meaningful only when load.recording exists

  bool ok() const { return load.complete() && lint.ok(); }
  std::string to_string() const;
};

FileLintResult lint_recording_file(const std::string& path);

}  // namespace ht::analysis
