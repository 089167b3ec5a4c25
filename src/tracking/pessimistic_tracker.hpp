// Pessimistic tracking (paper §2.1): a small critical section around every
// access and its instrumentation, implemented by CAS-locking the object's
// state word to a LOCKED sentinel, classifying the old state, performing the
// program access, and unlocking to the new last-access state.
//
// This is the paper's model of what FastTrack-style analyses and STMs do: an
// atomic operation at *every* access, with cost largely independent of how
// many cross-thread dependences the program has.
#pragma once

#include "metadata/object_meta.hpp"
#include "tracking/tracker_common.hpp"
#include "common/spin.hpp"

namespace ht {

template <bool kStats = false, typename Sink = NullSink>
class PessimisticTracker {
 public:
  static constexpr const char* kName = "pessimistic";

  // The critical section spans the program access: pre_* locks the state and
  // computes the successor state; post_* publishes it (the §2.1 pseudocode's
  // "memfence; o.state = WrExT" — the release store is the fence).
  struct Token {
    StateWord next;
  };

  // The paper builds no recorder/enforcer on pessimistic tracking ("We have
  // not implemented or evaluated pessimistic runtime support", §7.6), so the
  // sink is accepted for interface uniformity but unused.
  explicit PessimisticTracker(Runtime& rt, Sink* sink = nullptr)
      : runtime_(&rt), sink_(sink) {}

  StateWord initial_state(ThreadContext& ctx) const {
    return StateWord::wr_ex_pess(ctx.id);
  }
  void attach_thread(ThreadContext&) {}

  Token pre_store(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord old = lock(ctx, m);
    if constexpr (kStats) {
      const bool same =
          old.kind() == StateKind::kWrExPess && old.tid() == ctx.id;
      (same ? ctx.stats.pess_alone_same : ctx.stats.pess_alone_cross)++;
    }
    HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kPessAlone,
                         .actor = ctx.id,
                         .object = &m,
                         .from = old,
                         .to = StateWord::wr_ex_pess(ctx.id),
                         .access = analysis::AccessKind::kWrite,
                         .rel = old.has_owner() && old.tid() == ctx.id
                                    ? analysis::ActorRel::kOwner
                                    : analysis::ActorRel::kOther,
                         .taken = analysis::Mechanism::kCas});
    (void)old;
    return Token{StateWord::wr_ex_pess(ctx.id)};
  }

  void post_store(ThreadContext& ctx, ObjectMeta& m, Token tok) {
    (void)ctx;
    m.store_state(tok.next, std::memory_order_release);
    HT_TELEM_TRANSITION(ctx, &m, StateWord::pess_locked_sentinel(ctx.id),
                        tok.next);
  }

  Token pre_load(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord old = lock(ctx, m);
    StateWord next;
    bool same = false;
    switch (old.kind()) {
      case StateKind::kWrExPess:
        // R by owner keeps WrEx (Table 1 row 1); R by another thread makes
        // it read-exclusive for the reader.
        same = old.tid() == ctx.id;
        next = same ? old : StateWord::rd_ex_pess(ctx.id);
        break;
      case StateKind::kRdExPess:
        same = old.tid() == ctx.id;
        next = same ? old
                    : StateWord::rd_sh_pess(runtime_->next_rd_sh_counter());
        break;
      case StateKind::kRdShPess:
        same = true;  // reads of read-shared are same-state (Table 1 row 3)
        next = old;
        break;
      default:
        HT_ASSERT(false, "pessimistic tracker saw a hybrid-model state");
        next = old;
    }
    if constexpr (kStats) {
      (same ? ctx.stats.pess_alone_same : ctx.stats.pess_alone_cross)++;
    }
    HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kPessAlone,
                         .actor = ctx.id,
                         .object = &m,
                         .from = old,
                         .to = next,
                         .access = analysis::AccessKind::kRead,
                         .rel = old.has_owner() && old.tid() == ctx.id
                                    ? analysis::ActorRel::kOwner
                                    : analysis::ActorRel::kOther,
                         .taken = analysis::Mechanism::kCas});
    return Token{next};
  }

  void post_load(ThreadContext& ctx, ObjectMeta& m, Token tok) {
    (void)ctx;
    m.store_state(tok.next, std::memory_order_release);
    HT_TELEM_TRANSITION(ctx, &m, StateWord::pess_locked_sentinel(ctx.id),
                        tok.next);
  }

  Runtime& runtime() { return *runtime_; }

 private:
  // "do { s = o.state; } while (s == LOCKED || !CAS(&o.state, s, LOCKED))"
  StateWord lock(ThreadContext& ctx, ObjectMeta& m) {
    // Uncontended first attempt, outside the timed wait loop.
    {
      runtime_->check_self_quarantine(ctx);
      StateWord s = m.load_state();
      if (s.kind() != StateKind::kPessLockedSentinel) {
        StateWord expected = s;
        if (m.cas_state(expected,
                        StateWord::pess_locked_sentinel(ctx.id))) {
          HT_TELEM_TRANSITION(ctx, &m, s,
                              StateWord::pess_locked_sentinel(ctx.id));
          return s;
        }
      }
    }
    return lock_contended(ctx, m);
  }

  StateWord lock_contended(ThreadContext& ctx, ObjectMeta& m) {
    HT_TELEM_CYCLES(telem_t0);
    Backoff backoff;
    for (;;) {
      runtime_->fault_point_slow_path(ctx);
      schedule::wait_point();  // contended-lock spin is a wait point
      runtime_->check_self_quarantine(ctx);
      if (!schedule::virtualized()) backoff.pause();
      StateWord s = m.load_state();
      if (s.kind() != StateKind::kPessLockedSentinel) {
        StateWord expected = s;
        if (m.cas_state(expected,
                        StateWord::pess_locked_sentinel(ctx.id))) {
          HT_TELEM_TRANSITION(ctx, &m, s,
                              StateWord::pess_locked_sentinel(ctx.id));
          HT_TELEM_ELAPSED(ctx, kPessWait, telem_t0,
                           telemetry::object_id(&m), 0);
          return s;
        }
      }
    }
  }

  Runtime* runtime_;
  Sink* sink_;
};

}  // namespace ht
