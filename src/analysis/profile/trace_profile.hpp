// Offline time-weighted critical-path profiler (DESIGN.md §14).
//
// Consumes a drained HTEL trace and answers "where do the cycles go":
//   1. Span stitching — every kCoordRequest (scalar ticket or batched
//      mailbox post) is joined to the owner-side event that answered it
//      (watermark-range match for scalar tickets, span-id match for batch
//      drains) and to the requester's own closing kCoordRoundTrip.
//   2. Attribution — each thread's window (first to last ring event) is
//      divided among wait categories by an innermost-active-wins interval
//      sweep over the latency-carrying events; the residual is application
//      compute, so the categories sum to the window by construction.
//   3. State dwell — telemetry::fold_state_dwell's per-object and
//      per-class residency (cycles an object spent WrEx / RdEx / RdSh /
//      pessimistic / Int), ranked by occupied cycles.
//   4. Critical path — a backwards walk from the last event in the trace
//      that crosses threads through stitched spans: inside a coordination
//      wait the walk jumps to the owner's response and continues there.
//
// Everything here is offline analysis over an immutable snapshot; nothing
// is called from instrumented hot paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/dwell.hpp"
#include "telemetry/telemetry.hpp"

namespace ht::analysis::profile {

// Attribution categories. kAppCompute is the residual (window minus every
// swept wait interval), which is what makes the per-thread rows sum to the
// thread's window exactly.
enum class Category : std::uint8_t {
  kAppCompute = 0,
  kCoordWait,       // kCoordRoundTrip intervals (explicit and implicit)
  kPessLockWait,    // kPessWait intervals
  kDeferredFlush,   // kDeferredFlush unlock-loop cycles (arg1)
  kRegionRestart,   // kRegionRestart burned-attempt intervals
  kResilience,      // kSeizure intervals (quarantine recovery work)
};
inline constexpr std::size_t kCategoryCount = 6;
const char* category_name(Category c);

// The state-dwell fold lives in the telemetry layer (telemetry/dwell.hpp)
// so the hot-object table and the metrics read the same residency.
using telemetry::kResidencyCount;
using telemetry::ObjectDwell;
using telemetry::Residency;
using telemetry::residency_name;
using telemetry::residency_of_kind;

// One stitched coordination span (request on the requester's ring joined to
// the owner-side answer and the requester-side close).
struct Span {
  std::uint16_t requester = 0;
  std::uint16_t owner = 0;
  std::uint64_t span_id = 0;       // scalar ticket, or batch span id
  std::uint64_t request_tsc = 0;   // kCoordRequest
  std::uint64_t response_tsc = 0;  // owner-side answering event; 0 unmatched
  std::uint64_t close_tsc = 0;     // requester's kCoordRoundTrip; 0 unclosed
  bool batched = false;
  bool implicit = false;  // the closing round trip resolved implicitly
};

struct ThreadAttribution {
  std::uint16_t tid = 0;
  std::uint64_t first_tsc = 0;
  std::uint64_t last_tsc = 0;
  std::uint64_t window_cycles = 0;  // last_tsc - first_tsc
  std::uint64_t by_category[kCategoryCount] = {};
};

// One step of the backwards critical-path walk (reverse chronological:
// hops[0] ends at the last event in the trace). kAppCompute hops are run
// segments on one thread; kCoordWait hops cross to `via` (the owner).
struct CriticalHop {
  std::uint16_t tid = 0;
  Category category = Category::kAppCompute;
  std::uint16_t via = 0;  // owner tid for kCoordWait hops
  std::uint64_t start_tsc = 0;
  std::uint64_t end_tsc = 0;
  std::uint64_t cycles() const { return end_tsc - start_tsc; }
};

struct ProfileReport {
  double cycles_per_second = 0;
  std::uint64_t total_cycles = 0;  // sum of per-thread windows
  std::uint64_t category_cycles[kCategoryCount] = {};
  std::vector<ThreadAttribution> threads;

  std::vector<Span> spans;
  std::uint64_t spans_scalar = 0;
  std::uint64_t spans_batch = 0;
  std::uint64_t spans_response_matched = 0;
  std::uint64_t spans_closed = 0;

  std::vector<ObjectDwell> dwell;  // occupied() descending
  std::uint64_t dwell_cycles[kResidencyCount] = {};
  // Transitions *into* each class (== the per-class event count; the Int row
  // equals the trackers' conflicting-transition count on a clean run).
  std::uint64_t dwell_entries[kResidencyCount] = {};
  std::uint64_t transitions_total = 0;

  std::vector<CriticalHop> critical_path;

  // |sum of category cycles - total_cycles| / total_cycles. Zero by
  // construction unless the sweep itself is broken — the CLI turns a value
  // above its tolerance into exit code 6 so CI can assert it cheaply.
  double attribution_error() const;
};

ProfileReport build_profile(const telemetry::TraceSnapshot& snap);

// Machine-readable report: attribution, span statistics, dwell (top
// `max_objects` objects), and the critical path.
std::string profile_to_json(const ProfileReport& r, std::size_t max_objects = 20);

// Folded-stack output (flamegraph.pl / inferno / speedscope): one line per
// thread x category, `T<tid>;<category> <cycles>`, plus the critical path
// as `critical;T<a>;coord_wait;T<b>;... <cycles>` frames.
std::string profile_to_collapsed(const ProfileReport& r);

// Human "where do the cycles go" table for the CLI default output.
std::string attribution_report(const ProfileReport& r);

}  // namespace ht::analysis::profile
