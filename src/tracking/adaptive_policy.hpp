// Profile-guided adaptive policy (paper §6): decides, per object, whether it
// should be in pessimistic or optimistic states.
//
// Cost–benefit model (§6.1): an object should be optimistic iff
//     Tpess*Npess >= TnonConfl*NnonConfl + Tconfl*Nconfl
// which, with Npess = NnonConfl + Nconfl, reduces to
//     NnonConfl >= Kconfl * Nconfl,     Kconfl = (Tconfl-Tpess)/(Tpess-TnonConfl).
//
// Online policy (§6.2):
//   * every object starts optimistic (WrExOpt of its allocating thread);
//   * an optimistic object moves to pessimistic states once it has triggered
//     Cutoff_confl conflicting transitions that used explicit coordination
//     (implicit coordination costs about as much as a pessimistic transition
//     and is not counted — footnote 7);
//   * a pessimistic object moves back once
//     NnonConfl >= Kconfl*Nconfl + Inertia (Eq. 5), and thereafter must stay
//     optimistic ("Checks and balances"; the section's alternative of
//     repeated trips at a larger cutoff is not built);
//   * extension (§7.5 suggestion, off by default): a pessimistic object whose
//     accesses keep triggering *contended* transitions — i.e. coordination
//     anyway — escapes back to optimistic states.
// Every decision reads only the object's own profile word and the config:
// there is no global mode that overrides the per-object rule.
#pragma once

#include <cstdint>

#include "metadata/object_meta.hpp"

namespace ht {

struct PolicyConfig {
  std::uint32_t cutoff_confl = 4;  // §7.3 default
  std::uint32_t k_confl = 200;     // §7.3 default
  std::uint32_t inertia = 100;     // §7.3 default
  // Fig 7 "Hybrid tracking w/infinite cutoff": no object ever goes
  // pessimistic; measures hybrid tracking's costs without its benefits.
  // This is also optimistic tracking (OptimisticTracker).
  bool infinite_cutoff = false;
  // §7.5 extension: escape to optimistic after this many contended
  // pessimistic transitions (0 disables).
  std::uint32_t contended_escape_threshold = 0;

  static PolicyConfig infinite() {
    PolicyConfig c;
    c.infinite_cutoff = true;
    return c;
  }
  static PolicyConfig with_escape(std::uint32_t threshold = 8) {
    PolicyConfig c;
    c.contended_escape_threshold = threshold;
    return c;
  }
};

class AdaptivePolicy {
 public:
  explicit AdaptivePolicy(PolicyConfig cfg = {}) : cfg_(cfg) {}

  const PolicyConfig& config() const { return cfg_; }

  // Called when an optimistic conflicting transition completes. Counts the
  // conflict (explicit coordination only) and decides whether the object
  // transfers to a pessimistic state (Fig 10 line 46, Eq. 4). An object that
  // came back from pessimistic states stays optimistic (§6.2 "Checks and
  // balances"). At an infinite cutoff nothing transfers, but the count still
  // runs: it is the per-object conflict census of the Fig 6 limit study.
  bool to_pess_on_conflict(ObjectMeta& m, bool used_explicit) {
    if (!used_explicit) return false;
    const ProfileWord p =
        m.profile().update([](ProfileWord w) { return w.with_opt_conflict_inc(); });
    if (cfg_.infinite_cutoff || p.must_stay_opt()) return false;
    return p.opt_conflicts() >= cfg_.cutoff_confl;
  }

  // Profiling of pessimistic transitions: all of them are counted, split by
  // whether they involve conflicting states (§6.2 "Efficient profiling").
  void note_pess_transition(ObjectMeta& m, bool conflicting) {
    m.profile().update([conflicting](ProfileWord w) {
      return conflicting ? w.with_pess_confl_inc() : w.with_pess_non_confl_inc();
    });
  }

  void note_pess_contended(ObjectMeta& m) {
    m.profile().update([](ProfileWord w) { return w.with_contended_inc(); });
  }

  void note_became_pess(ObjectMeta& m) {
    m.profile().update([](ProfileWord w) { return w.with_was_pess(); });
  }

  // Unlock-time decision (Fig 10c): should the object transfer to an
  // optimistic state? Pure query — call commit_go_opt once the unlocking CAS
  // has actually landed (an unlock CAS can fail when a concurrent reader
  // joins, in which case the decision must not leave side effects).
  bool should_go_opt(ObjectMeta& m) const {
    const ProfileWord p = m.profile().load();
    const bool by_formula =
        static_cast<std::uint64_t>(p.pess_non_confl()) >=
        static_cast<std::uint64_t>(cfg_.k_confl) * p.pess_confl() +
            cfg_.inertia;
    const bool by_escape = cfg_.contended_escape_threshold != 0 &&
                           p.contended() >= cfg_.contended_escape_threshold;
    return by_formula || by_escape;
  }

  // Pins the object optimistic (§6.2 "Checks and balances") and re-arms the
  // pessimistic counters.
  void commit_go_opt(ObjectMeta& m) {
    m.profile().update([](ProfileWord w) {
      return w.with_must_stay_opt().with_pess_counters_cleared();
    });
  }

 private:
  PolicyConfig cfg_;
};

}  // namespace ht
