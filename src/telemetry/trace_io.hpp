// Binary on-disk format for drained telemetry traces ("HTEL" files).
//
// Layout (little-endian, fixed-width):
//   u32 magic 'HTEL' | u32 version | f64 cycles_per_second | u64 base_tsc |
//   u32 thread_count | u32 reserved |
//   per thread: u32 tid | u32 reserved | u64 recorded | u64 dropped |
//               u64 event_count | event_count * Event (32 raw bytes each)
//
// The version is 3; a file of any other version fails as kBadVersion.
// Like recording_io, loads report WHY a file was rejected so tools can exit
// with a documented code instead of a generic failure.
#pragma once

#include <string>

#include "telemetry/telemetry.hpp"

namespace ht::telemetry {

enum class TraceLoadResult {
  kOk = 0,
  kOpenFailed,
  kBadMagic,
  kBadVersion,
  kTruncated,
  kCorrupt,  // implausible counts (guards giant allocations)
};

const char* trace_load_result_name(TraceLoadResult r);

bool save_trace(const TraceSnapshot& snap, const std::string& path);

TraceLoadResult load_trace(const std::string& path, TraceSnapshot& out);

}  // namespace ht::telemetry
