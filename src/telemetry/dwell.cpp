#include "telemetry/dwell.hpp"

#include <map>

#include "metadata/state_word.hpp"

namespace ht::telemetry {

const char* residency_name(Residency r) {
  switch (r) {
    case Residency::kWrEx: return "WrEx";
    case Residency::kRdEx: return "RdEx";
    case Residency::kRdSh: return "RdSh";
    case Residency::kPess: return "Pess";
    case Residency::kInt: return "Int";
  }
  return "unknown";
}

Residency residency_of_kind(unsigned state_kind) {
  switch (static_cast<StateKind>(state_kind)) {
    case StateKind::kWrExOpt: return Residency::kWrEx;
    case StateKind::kRdExOpt: return Residency::kRdEx;
    case StateKind::kRdShOpt: return Residency::kRdSh;
    case StateKind::kInt: return Residency::kInt;
    default: return Residency::kPess;  // all pessimistic flavors + sentinel
  }
}

StateDwell fold_state_dwell(const TraceSnapshot& snap) {
  StateDwell out;
  struct Open {
    ObjectDwell dwell;
    std::uint64_t since = 0;  // tsc of the object's latest transition
    std::size_t cls = 0;      // residency class it entered then
  };
  std::map<std::uint32_t, Open> by_object;
  std::uint64_t max_tsc = 0;
  for (const Event& e : snap.merged()) {
    max_tsc = e.tsc;
    if (static_cast<EventKind>(e.kind) != EventKind::kStateTransition) {
      continue;
    }
    const auto cls = static_cast<std::size_t>(
        residency_of_kind(transition_to_kind(e.arg0)));
    auto [it, first] = by_object.try_emplace(e.arg1);
    Open& o = it->second;
    o.dwell.object = e.arg1;
    ++o.dwell.transitions;
    ++out.transitions;
    ++out.entries[cls];
    if (!first && e.tsc > o.since) o.dwell.residency[o.cls] += e.tsc - o.since;
    o.since = e.tsc;
    o.cls = cls;
  }
  out.objects.reserve(by_object.size());
  for (auto& [obj, o] : by_object) {
    if (max_tsc > o.since) o.dwell.residency[o.cls] += max_tsc - o.since;
    for (std::size_t c = 0; c < kResidencyCount; ++c) {
      out.cycles[c] += o.dwell.residency[c];
    }
    out.objects.push_back(o.dwell);
  }
  return out;
}

}  // namespace ht::telemetry
