// Per-object state-dwell fold (DESIGN.md §14): the one place that turns a
// drained trace's kStateTransition events into residency — the cycles each
// object spent in each state class. The profiler's dwell report, the
// hot-object table and the ht_dwell_*_cycles_total metrics all read it.
//
// Residency is a merged-order property: the thread that moves an object out
// of a state is rarely the one that moved it in, so the fold walks all
// threads' events in timestamp order. An object's clock starts at its first
// transition (when it entered its first state is unknowable from the trace),
// and its last open interval runs to the last timestamp in the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace ht::telemetry {

// Residency classes folding metadata/state_word.hpp StateKind (12 kinds)
// into the five the dwell reports distinguish.
enum class Residency : std::uint8_t {
  kWrEx = 0,  // WrExOpt
  kRdEx,      // RdExOpt
  kRdSh,      // RdShOpt
  kPess,      // all pessimistic flavors, locked or not, incl. the sentinel
  kInt,       // coordination intermediate
};
inline constexpr std::size_t kResidencyCount = 5;
const char* residency_name(Residency r);
Residency residency_of_kind(unsigned state_kind);

struct ObjectDwell {
  std::uint32_t object = 0;
  std::uint64_t transitions = 0;  // kStateTransition events for this object
  std::uint64_t residency[kResidencyCount] = {};  // cycles per class
  std::uint64_t occupied() const {
    std::uint64_t n = 0;
    for (std::uint64_t r : residency) n += r;
    return n;
  }
};

struct StateDwell {
  std::vector<ObjectDwell> objects;             // ascending object id
  std::uint64_t cycles[kResidencyCount] = {};   // summed over all objects
  // Transitions *into* each class (== the per-class event count).
  std::uint64_t entries[kResidencyCount] = {};
  std::uint64_t transitions = 0;
};

StateDwell fold_state_dwell(const TraceSnapshot& snap);

}  // namespace ht::telemetry
