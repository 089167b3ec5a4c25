#include "tracking/transition_stats.hpp"

#include <cstdio>
#include <utility>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace ht {

namespace {

// One table drives both directions of the JSON conversion, so a counter
// added here can never serialize without also parsing back.
using Field = std::pair<const char*, std::uint64_t TransitionStats::*>;

constexpr Field kFields[] = {
    {"opt_same", &TransitionStats::opt_same},
    {"opt_upgrading", &TransitionStats::opt_upgrading},
    {"opt_fence", &TransitionStats::opt_fence},
    {"opt_confl_explicit", &TransitionStats::opt_confl_explicit},
    {"opt_confl_implicit", &TransitionStats::opt_confl_implicit},
    {"pess_uncontended", &TransitionStats::pess_uncontended},
    {"pess_reentrant", &TransitionStats::pess_reentrant},
    {"pess_contended", &TransitionStats::pess_contended},
    {"opt_to_pess", &TransitionStats::opt_to_pess},
    {"pess_to_opt", &TransitionStats::pess_to_opt},
    {"pess_alone_same", &TransitionStats::pess_alone_same},
    {"pess_alone_cross", &TransitionStats::pess_alone_cross},
    {"coordination_rounds", &TransitionStats::coordination_rounds},
    {"responding_safepoints", &TransitionStats::responding_safepoints},
    {"psros", &TransitionStats::psros},
    {"region_restarts", &TransitionStats::region_restarts},
    {"coord_batch_rounds", &TransitionStats::coord_batch_rounds},
    {"coord_batch_objects", &TransitionStats::coord_batch_objects},
};

}  // namespace

TransitionStats& TransitionStats::operator+=(const TransitionStats& o) {
  opt_same += o.opt_same;
  opt_upgrading += o.opt_upgrading;
  opt_fence += o.opt_fence;
  opt_confl_explicit += o.opt_confl_explicit;
  opt_confl_implicit += o.opt_confl_implicit;
  pess_uncontended += o.pess_uncontended;
  pess_reentrant += o.pess_reentrant;
  pess_contended += o.pess_contended;
  opt_to_pess += o.opt_to_pess;
  pess_to_opt += o.pess_to_opt;
  pess_alone_same += o.pess_alone_same;
  pess_alone_cross += o.pess_alone_cross;
  coordination_rounds += o.coordination_rounds;
  responding_safepoints += o.responding_safepoints;
  psros += o.psros;
  region_restarts += o.region_restarts;
  coord_batch_rounds += o.coord_batch_rounds;
  coord_batch_objects += o.coord_batch_objects;
  return *this;
}

std::string TransitionStats::table2_row() const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%10s %10s %10s %5.0f%% %10s %9s %9s",
                format_sci(static_cast<double>(opt_same)).c_str(),
                format_sci(static_cast<double>(opt_conflicting())).c_str(),
                format_sci(static_cast<double>(pess_uncontended)).c_str(),
                100.0 * reentrant_fraction(),
                format_sci(static_cast<double>(pess_contended)).c_str(),
                format_sci(static_cast<double>(opt_to_pess)).c_str(),
                format_sci(static_cast<double>(pess_to_opt)).c_str());
  return buf;
}

std::string TransitionStats::to_json() const {
  json::Object obj;
  for (const auto& [name, member] : kFields) obj[name] = json::Value(this->*member);
  return json::Value(std::move(obj)).dump();
}

std::optional<TransitionStats> TransitionStats::from_json(
    const std::string& text) {
  json::Value v;
  if (!json::parse(text, v) || !v.is_object()) return std::nullopt;
  TransitionStats out;
  for (const auto& [name, member] : kFields) {
    if (!v.contains(name)) continue;
    const json::Value& f = v.at(name);
    if (!f.is_number()) return std::nullopt;
    out.*member = f.as_u64();
  }
  return out;
}

}  // namespace ht
