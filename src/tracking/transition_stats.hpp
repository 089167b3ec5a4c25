// Per-thread transition counters, matching the columns of the paper's
// Table 2 plus the §2.2 coordination-kind split.
//
// The paper collects statistics in separate statistics-gathering runs (§7.2)
// so that counting does not perturb the timed runs; trackers therefore take a
// compile-time `kStats` switch and only touch these counters when it is on.
// Counters are thread-local (each ThreadContext owns one) and merged after
// the threads join, so increments are plain loads/stores.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ht {

struct TransitionStats {
  // --- optimistic transitions (Table 1 / Table 3 lower half) ---------------
  std::uint64_t opt_same = 0;        // same-state, no sync
  std::uint64_t opt_upgrading = 0;   // RdEx->WrEx (by owner), RdEx->RdSh
  std::uint64_t opt_fence = 0;       // RdSh read with stale rdShCount
  std::uint64_t opt_confl_explicit = 0;  // conflicting, explicit coordination
  std::uint64_t opt_confl_implicit = 0;  // conflicting, implicit only

  // --- pessimistic transitions (hybrid model, Table 3 upper half) ----------
  std::uint64_t pess_uncontended = 0;  // incl. reentrant
  std::uint64_t pess_reentrant = 0;    // subset of uncontended: no atomic op
  std::uint64_t pess_contended = 0;    // triggered coordination

  // --- state transfers by the adaptive policy ------------------------------
  std::uint64_t opt_to_pess = 0;
  std::uint64_t pess_to_opt = 0;

  // --- standalone pessimistic tracker (§2.1) -------------------------------
  std::uint64_t pess_alone_same = 0;   // last accessor unchanged
  std::uint64_t pess_alone_cross = 0;  // potential cross-thread dependence

  // --- substrate events -----------------------------------------------------
  std::uint64_t coordination_rounds = 0;   // coordinate() calls (per remote)
  std::uint64_t responding_safepoints = 0;
  std::uint64_t psros = 0;
  std::uint64_t region_restarts = 0;

  // Always zero: barrier elision was removed (DESIGN.md §15). Kept until the
  // benchmark harness, which still reads them, stops doing so.
  std::uint64_t elision_hits = 0;
  std::uint64_t elision_misses = 0;
  std::uint64_t elision_flushes = 0;

  // --- batched coordination (DESIGN.md §13) ---------------------------------
  // Requester-side only: groups answered through coordinate_batch_multi and
  // the objects they covered. coord_batch_rounds is a subset of
  // coordination_rounds; objects/rounds is the realized batch factor.
  std::uint64_t coord_batch_rounds = 0;
  std::uint64_t coord_batch_objects = 0;

  std::uint64_t opt_conflicting() const {
    return opt_confl_explicit + opt_confl_implicit;
  }
  std::uint64_t opt_total() const {
    return opt_same + opt_upgrading + opt_fence + opt_conflicting();
  }
  std::uint64_t pess_total() const {
    return pess_uncontended + pess_contended;
  }
  std::uint64_t accesses() const {
    return opt_total() + pess_total() + pess_alone_same + pess_alone_cross;
  }
  double elision_hit_rate() const { return 0.0; }  // always zero, as above
  double reentrant_fraction() const {
    return pess_uncontended == 0
               ? 0.0
               : static_cast<double>(pess_reentrant) /
                     static_cast<double>(pess_uncontended);
  }

  TransitionStats& operator+=(const TransitionStats& o);

  // One Table-2-style row: "opt-same opt-confl pess-uncont %reent
  // pess-cont opt->pess pess->opt".
  std::string table2_row() const;

  // Flat JSON object of all counters, one key per field (same names as the
  // members). Round-trips through from_json; --json bench reports embed it
  // verbatim.
  std::string to_json() const;

  // Parses a to_json() object. Unknown keys are ignored (older readers keep
  // working when counters are added); missing keys stay zero. Returns
  // nullopt if `text` is not a JSON object or a counter is not a number.
  static std::optional<TransitionStats> from_json(const std::string& text);
};

}  // namespace ht
