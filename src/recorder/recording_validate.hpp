// Recording validation: structural well-formedness checks run before a
// recording is replayed (or after it is loaded from disk). A malformed
// recording — out-of-range source threads, non-monotone point indices,
// edge values no source can ever reach — would make the replayer hang or
// misorder accesses; validation turns that into a diagnosable error.
#pragma once

#include <string>
#include <vector>

#include "recorder/dependence_log.hpp"
#include "recorder/recording_io.hpp"

namespace ht {

struct ValidationIssue {
  ThreadId thread;       // log the issue was found in
  std::size_t event;     // index into that log
  std::string message;
};

struct ValidationResult {
  std::vector<ValidationIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string to_string() const;
};

// Checks:
//   * the recording has at least one thread;
//   * every edge's source thread id is < thread count and != the sink
//     (a self-edge would deadlock the replayer on itself);
//   * per-thread event points are non-decreasing (logs are appended in
//     program order, so a decreasing point means corruption — the replay
//     cursor would skip the out-of-order events);
//   * every bump (kResponse, kRegionEnd) carries a nonzero stamp: the
//     recorder stamps the post-bump counter, which is always >= 1, so a
//     zero stamp is not something a run writes.
// Reachability of edge values cannot be decided from the recording alone
// (deterministic PSRO bumps depend on the program), so it is not checked.
ValidationResult validate_recording(const Recording& recording);

// File-level check: load (reporting WHY a load failed or was cut short —
// bad magic / version / truncated / checksum / io) and, when anything was
// recoverable, run the structural checks on it. A salvaged v2 prefix is
// validated too: a prefix of a well-formed recording is well-formed, so
// structural issues in a partial file still indicate real corruption.
struct FileCheckResult {
  RecordingLoadResult load;
  ValidationResult structure;  // meaningful only when load.recording exists

  bool ok() const { return load.complete() && structure.ok(); }
  std::string to_string() const;
  // trace_analyze validate's exit code (ToolExitCode below).
  int exit_code(bool allow_partial) const;
};

FileCheckResult check_recording_file(const std::string& path);

// Process exit codes of trace_analyze and its validate/lint subcommands,
// so scripts can distinguish WHY a file was rejected without parsing output.
// Loader failures map 1:1 onto RecordingLoadError; structural and lint
// findings get their own codes. Documented in the top-level README.
enum ToolExitCode : int {
  kExitOk = 0,         // file loaded intact and every check passed
  kExitUsage = 1,      // bad command line
  kExitBadMagic = 2,   // not a recording file (RecordingLoadError::kBadMagic)
  kExitBadVersion = 3, // unknown format version (kBadVersion)
  kExitTruncated = 4,  // file ends early (kTruncated; v2 prefix salvaged)
  kExitChecksum = 5,   // corrupted payload (kChecksum; v2 prefix salvaged)
  kExitIo = 6,         // open/read failure (kIo)
  kExitStructure = 7,  // loaded, but structural validation failed
  kExitLint = 8,       // loaded and well-formed, but a lint invariant failed
  // trace_analyze only: loaded, well-formed, lint-clean, but the offline
  // happens-before engine found a region-serializability violation (a
  // conflict cycle among enforcer regions — DESIGN.md §12.4).
  kExitUnserializable = 9,
};

// Maps a loader failure to its exit code; kNone maps to kExitOk (the caller
// then layers kExitStructure / kExitLint on top of a clean load).
int exit_code_for(RecordingLoadError error);

// The load step's verdict: the loader failure's code, except that a
// salvaged prefix passes when the caller accepts partial files (a prefix of
// a genuine recording is genuine, so the later checks still run on it).
int load_exit_code(const RecordingLoadResult& load, bool allow_partial);

}  // namespace ht
