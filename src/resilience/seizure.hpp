// Ownership reclamation from quarantined threads (DESIGN.md §11).
//
// A quarantined thread never reaches the responding safe point that would
// flush its lock buffer, so every state word it still holds locked (and any
// coordination intermediate it owns) would block survivors forever. Seizure
// performs the victim's unlock on its behalf, through the same
// intermediate-state CAS protocol the trackers already use: CAS the
// victim-owned state to Int_self (concurrent accessors treat Int as
// wait-and-retry), then land the state the victim's own deferred-unlock
// flush would have produced — normally the *pessimistic* unlocked flavor,
// transferring the contested object to pessimistic tracking (degrade rather
// than die). At an infinite cutoff (optimistic tracking), where nothing may
// go pessimistic, an Int is landed optimistic instead.
//
// Safety: every victim-side mutation of a seizable state is a CAS (the flush
// unlock, the IntGuard restore, the post-coordination landing), so for each
// object exactly one of {victim's own racing flush, seizure} wins; the loser
// observes its CAS failure and skips (tracker side: parks).
#pragma once

#include "metadata/object_meta.hpp"
#include "runtime/thread_context.hpp"
#include "telemetry/telemetry.hpp"

namespace ht::resilience {

// True if `s` can only be released by thread `victim`. RdShRLock is
// deliberately excluded: its holders are anonymous (paper footnote 4), so a
// sweep cannot attribute it — survivors break stuck read-shares lazily after
// a full coordination round proves the remaining holders dead.
inline bool victim_owned(StateWord s, ThreadId victim) {
  switch (s.kind()) {
    case StateKind::kWrExWLock:
    case StateKind::kWrExRLock:
    case StateKind::kRdExRLock:
    case StateKind::kInt:
      return s.tid() == victim;
    default:
      return false;
  }
}

// The unlocked state a victim-owned word seizes to: what the victim's own
// flush would have stored, minus the adaptive policy's go-opt choice —
// seized objects land pessimistic so future conflicts are plain lock waits,
// not coordination with a dead thread. An abandoned Int has no recorded
// prior state; treat it as the victim's exclusive write (the strongest claim
// it could have been coordinating toward). `land_pessimistic` is false for
// trackers that never go pessimistic: hybrid at an infinite cutoff
// (optimistic tracking) and the ideal tracker.
inline StateWord seizure_landing(StateWord s, bool land_pessimistic) {
  switch (s.kind()) {
    case StateKind::kWrExWLock:
    case StateKind::kWrExRLock:
      return StateWord::wr_ex_pess(s.tid());
    case StateKind::kRdExRLock:
      return StateWord::rd_ex_pess(s.tid());
    case StateKind::kInt:
      return land_pessimistic ? StateWord::wr_ex_pess(s.tid())
                              : StateWord::wr_ex_opt(s.tid());
    default:
      return s;
  }
}

// Seizes one object if its current state is owned by `victim` (which must
// already be quarantined). Returns true when this call performed the
// transfer; emits kSeizure telemetry on the seizing thread's ring.
inline bool seize_object(ThreadContext& self, ObjectMeta& m, ThreadId victim,
                         bool land_pessimistic = true) {
  HT_TELEM_CYCLES(t0);
  for (;;) {
    StateWord s = m.load_state();
    if (!victim_owned(s, victim)) return false;
    StateWord expected = s;
    if (s.kind() == StateKind::kInt) {
      // The victim parked owning a coordination intermediate; replace it
      // with the landing in one CAS — waiters re-read and proceed.
      if (m.cas_state(expected, seizure_landing(s, land_pessimistic))) {
        HT_TELEM_TRANSITION(self, &m, s, seizure_landing(s, land_pessimistic));
        break;
      }
    } else {
      // Locked state: claim via Int_self first (the protocol every slow
      // path already understands), then land.
      if (m.cas_state(expected, StateWord::intermediate(self.id))) {
        HT_TELEM_TRANSITION(self, &m, s, StateWord::intermediate(self.id));
        m.store_state(seizure_landing(s, land_pessimistic));
        HT_TELEM_TRANSITION(self, &m, StateWord::intermediate(self.id),
                            seizure_landing(s, land_pessimistic));
        break;
      }
    }
    // CAS lost: the victim's own racing pre-park flush or another seizer
    // got there first; re-examine.
  }
  HT_TELEM_ELAPSED(self, kSeizure, t0, telemetry::object_id(&m), victim);
  return true;
}

}  // namespace ht::resilience
