// Hybrid tracking (paper §3, Table 3, Fig 10): objects move between
// optimistic states (Octet-style, no sync on the fast path) and pessimistic
// states (reader–writer locking of the state word) under an adaptive policy.
// At an infinite cutoff (Fig 7) no object ever leaves the optimistic states,
// which is exactly optimistic tracking (§2.2): OptimisticTracker is this
// class so configured (DESIGN.md §2.1).
//
// Deferred unlocking (§3.1) is the load-bearing idea: a pessimistic state a
// thread locks stays locked until the thread's next program-synchronization
// release operation or responding safe point, where the whole lock buffer
// flushes. Locking therefore contends only when the program has an
// object-level data race, in which case the accessor falls back to the same
// coordination machinery optimistic tracking uses.
//
// Recorder edge discipline (DESIGN.md §4.4): a transition records
//   * (owner, counter read after the response)     after coordination,
//   * (owner, owner's current counter)             when the old state is an
//     *unlocked* pessimistic state with a named owner — sound because the
//     owner's flush bumped its counter after its last access and before
//     unlocking, and
//   * one edge per other thread at its current counter for every other
//     dependence-bearing case (RdSh-involving and locked-state joins), whose
//     prior accessors the state word does not name.
#pragma once

#include <atomic>

#include "analysis/transition_model.hpp"
#include "common/spin.hpp"
#include "metadata/object_meta.hpp"
#include "resilience/seizure.hpp"
#include "tracking/adaptive_policy.hpp"
#include "tracking/tracker_common.hpp"
#include "tracking/tracking_modes.hpp"

namespace ht {

struct HybridConfig {
  PolicyConfig policy;
  WrExReadMode wr_ex_read_mode = WrExReadMode::kFull;
};

template <bool kStats = false, typename Sink = NullSink>
class HybridTracker {
  using AK = analysis::AccessKind;
  using Rel = analysis::ActorRel;
  using Mech = analysis::Mechanism;
  using Choice = analysis::PolicyChoice;

 public:
  static constexpr const char* kName = "hybrid";
  using Token = EmptyToken;

  explicit HybridTracker(Runtime& rt, HybridConfig cfg = {},
                         Sink* sink = nullptr)
      : runtime_(&rt), policy_(cfg.policy), mode_(cfg.wr_ex_read_mode),
        sink_(sink) {}

  StateWord initial_state(ThreadContext& ctx) const {
    // "Each object newly allocated by thread T starts in the WrExOpt_T
    // state" (§6.2).
    return StateWord::wr_ex_opt(ctx.id);
  }

  // Installs the deferred-unlocking flush as the thread's responding-safe-
  // point hook (PSROs, explicit responses, blocking entry, thread exit).
  void attach_thread(ThreadContext& ctx) {
    ctx.flush_self = this;
    ctx.flush_fn = [](void* self, ThreadContext& c) {
      static_cast<HybridTracker*>(self)->flush(c);
    };
  }

  AdaptivePolicy& policy() { return policy_; }

  // --- store --------------------------------------------------------------
  Token pre_store(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord s = m.load_state();
    if (s.raw() == ctx.fast_wr_ex_opt) {  // Fig 10a
      observe(ctx, m, s, s, AK::kWrite, Rel::kOwner);
      return {};
    }
    store_slow(ctx, m);
    return {};
  }
  void post_store(ThreadContext&, ObjectMeta&, Token) {}

  // --- batched store (DESIGN.md §13) ---------------------------------------
  // Secures write ownership of every object in `objs` before the caller
  // performs the stores, and returns with no safe point between the last
  // check and the stores. Each pass claims without waiting: conflicting
  // optimistic objects move to Int, partitioned by their named owner, and
  // each owner's group is settled by ONE batched round trip —
  // that owner's one flush-and-bump covers its whole group, and each object
  // records its edge at the shared post-bump counter. While the round runs,
  // the objects this thread already owns optimistically are held in
  // Int(self) too, so answering other threads' requests cannot hand them
  // away. Everything else (pessimistic/contended/RdSh states, others' Ints,
  // CAS losses) takes the scalar pre_store path, one object per pass and
  // with nothing held, so no Int is held while waiting on another Int. Any
  // wait is a responding safe point that may lose an object already
  // secured (or flush its write lock), so passes repeat until one finds
  // every object write-owned (DESIGN.md §13.2).
  static constexpr std::size_t kMaxStoreBatch = 16;
  void pre_store_batch(ThreadContext& ctx, ObjectMeta* const* objs,
                       std::size_t n) {
    Runtime& rt = *runtime_;
    const StateWord self_int = StateWord::intermediate(ctx.id);
    const std::uint64_t wlocked = StateWord::wr_ex_wlock(ctx.id).raw();
    BatchConflict pend[kMaxStoreBatch];
    ObjectMeta* held[kMaxStoreBatch];
    Backoff backoff(rt.spin_rounds());
    bool observed = false;  // same-state stores count once, on the first pass
    for (;;) {
      // Another thread's claim in progress is waited out first, holding
      // nothing, so two batches do not split a group and steal it back and
      // forth.
      std::size_t busy = 0;
      StateWord bs;
      for (; busy < n; ++busy) {
        bs = objs[busy]->load_state();
        if (bs.is_intermediate() && bs.tid() != ctx.id) break;
      }
      if (busy != n) {
        wait_on_int(ctx, *objs[busy], bs, AK::kWrite, backoff);
        continue;
      }
      std::size_t np = 0;
      std::size_t nh = 0;
      ObjectMeta* scalar = nullptr;
      for (std::size_t i = 0; i < n; ++i) {
        ObjectMeta& m = *objs[i];
        const StateWord s = m.load_state();
        if (s.raw() == ctx.fast_wr_ex_opt) {
          if (!observed) observe(ctx, m, s, s, AK::kWrite, Rel::kOwner);
          if (nh < kMaxStoreBatch) held[nh++] = &m;
          continue;
        }
        if (s.raw() == wlocked) {
          // Reentrant: observed (no wait) on the first pass only.
          if (!observed) pre_store(ctx, m);
          continue;
        }
        if (s.raw() == self_int.raw()) continue;  // duplicate, claimed above
        // Batchable: an optimistic conflict with a named owner. (RdSh
        // conflicts coordinate with *all* others and stay scalar.)
        const bool opt_conflict = (s.kind() == StateKind::kWrExOpt ||
                                   s.kind() == StateKind::kRdExOpt) &&
                                  s.tid() != ctx.id;
        if (opt_conflict && np < kMaxStoreBatch) {
          rt.check_self_quarantine(ctx);
          StateWord expected = s;
          if (m.cas_state(expected, self_int)) {
            HT_TELEM_TRANSITION(ctx, &m, s, self_int);
            pend[np++] = BatchConflict{&m, s};
            continue;
          }
        }
        if (scalar == nullptr) scalar = &m;
      }
      observed = true;
      if (np != 0) {
        settle_store_batch(ctx, pend, np, held, nh);
      } else if (scalar != nullptr) {
        pre_store(ctx, *scalar);
      } else {
        return;  // every object write-owned, and no wait since the pass
      }
    }
  }

  // --- load ---------------------------------------------------------------
  Token pre_load(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord s = m.load_state();
    if (s.raw() == ctx.fast_wr_ex_opt || s.raw() == ctx.fast_rd_ex_opt ||
        (s.kind() == StateKind::kRdShOpt && ctx.rd_sh_count >= s.counter())) {
      observe(ctx, m, s, s, AK::kRead, Rel::kOwner);
      return {};
    }
    load_slow(ctx, m);
    return {};
  }
  void post_load(ThreadContext&, ObjectMeta&, Token) {}

  // Deferred unlocking's buffer flush (Fig 10c); public so tests can force
  // flushes, normally reached via the thread hooks.
  void flush(ThreadContext& ctx) {
    HT_TELEM_CYCLES(telem_t0);
    for (ObjectMeta* m : ctx.lock_buffer) unlock_one(ctx, *m);
    // Emitted after the unlock loop so arg1 can carry the cycles the flush
    // took (the profiler's deferred-flush attribution category); arg0 stays
    // the entry count, read before the clear.
    HT_TELEM_EVENT_IF(!ctx.lock_buffer.empty(), ctx, kDeferredFlush,
                      ctx.lock_buffer.size(), ::ht::read_cycles() - telem_t0,
                      0);
    ctx.lock_buffer.clear();
    ctx.rd_set.clear();
  }

  Runtime& runtime() { return *runtime_; }

 private:
  // At an infinite cutoff nothing goes pessimistic: not a conflict landing,
  // not a seized Int.
  bool optimistic_only() const { return policy_.config().infinite_cutoff; }

  // One observation per transition: the Table 1 counter of an optimistic
  // same-state, upgrading or fence row (pessimistic rows count in
  // finish_pess, conflicting rows in land_conflict), the telemetry event (a
  // coordinated transition installs `to` from the actor's own Int), and the
  // conformance check against the family this instance implements — the
  // stricter optimistic relation at an infinite cutoff. Default builds keep
  // only the counter.
  void observe([[maybe_unused]] ThreadContext& ctx,
               [[maybe_unused]] ObjectMeta& m, [[maybe_unused]] StateWord from,
               [[maybe_unused]] StateWord to, [[maybe_unused]] AK access,
               [[maybe_unused]] Rel rel,
               [[maybe_unused]] Mech taken = Mech::kFastPath,
               [[maybe_unused]] Choice policy = Choice::kOpt,
               [[maybe_unused]] bool sole_holder = false) {
    if constexpr (kStats) {
      if (from.is_optimistic()) {
        if (taken == Mech::kFastPath) ++ctx.stats.opt_same;
        if (taken == Mech::kCas) ++ctx.stats.opt_upgrading;
        if (taken == Mech::kFence) ++ctx.stats.opt_fence;
      }
    }
    HT_TELEM_TRANSITION(
        ctx, &m,
        taken == Mech::kCoordination ? StateWord::intermediate(ctx.id) : from,
        to);
    HT_CHECK_TRANSITION({.family = family(),
                         .actor = ctx.id,
                         .object = &m,
                         .from = from,
                         .to = to,
                         .access = access,
                         .rel = rel,
                         .sole_holder = sole_holder,
                         .policy = policy,
                         .mode = mode_,
                         .taken = taken,
                         .in_lock_buffer = analysis::lb_member(ctx, &m),
                         .in_rd_set = analysis::rs_member(ctx, &m)});
  }

  // The wait-and-retry counterpart of observe: the model must call the key
  // contended.
  void observe_wait([[maybe_unused]] ThreadContext& ctx,
                    [[maybe_unused]] ObjectMeta& m,
                    [[maybe_unused]] StateWord s, [[maybe_unused]] AK access,
                    [[maybe_unused]] Rel rel = Rel::kOther,
                    [[maybe_unused]] bool sole_holder = false) {
    HT_CHECK_CONTENDED({.family = family(),
                        .actor = ctx.id,
                        .object = &m,
                        .from = s,
                        .access = access,
                        .rel = rel,
                        .sole_holder = sole_holder,
                        .mode = mode_});
  }

  analysis::TrackerFamily family() const {
    return optimistic_only() ? analysis::TrackerFamily::kOptimistic
                             : analysis::TrackerFamily::kHybrid;
  }

  // Unlocks one lock-buffer entry (Table 3 "Pessimistic unlock / Pess->Opt"
  // rows). Exclusive write locks cannot change under us, but read-locked
  // states can be joined by concurrent readers (RdExRLock -> RdShRLock(2)),
  // so unlocking CAS-loops on the current state.
  void unlock_one(ThreadContext& ctx, ObjectMeta& m) {
    for (;;) {
      StateWord s = m.load_state();
      // Quarantine tolerance: between buffering and this flush, a survivor
      // may have seized this entry from us (we were quarantined but had not
      // yet parked), leaving a state we no longer own — unlocked, Int, or
      // re-locked by the seizer's successor. Such entries are simply no
      // longer ours to unlock; skip them. Without quarantines this is
      // impossible and remains a hard protocol violation.
      const bool ours = (s.kind() == StateKind::kWrExWLock ||
                         s.kind() == StateKind::kWrExRLock ||
                         s.kind() == StateKind::kRdExRLock)
                            ? s.tid() == ctx.id
                            : s.kind() == StateKind::kRdShRLock;
      if (!ours) {
        HT_ASSERT(runtime_->has_quarantined(),
                  "lock-buffer entry in a state we do not hold");
        return;
      }
      switch (s.kind()) {
        case StateKind::kWrExWLock:
        case StateKind::kWrExRLock:
        case StateKind::kRdExRLock: {
          HT_DASSERT(s.tid() == ctx.id, "flushing a lock we do not hold");
          const bool to_opt = policy_.should_go_opt(m);
          const bool wr = s.kind() != StateKind::kRdExRLock;
          const StateWord next =
              wr ? (to_opt ? StateWord::wr_ex_opt(ctx.id)
                           : StateWord::wr_ex_pess(ctx.id))
                 : (to_opt ? StateWord::rd_ex_opt(ctx.id)
                           : StateWord::rd_ex_pess(ctx.id));
          // Even the sole owner of a write lock CASes rather than
          // blind-stores: a quarantined-but-not-yet-parked thread flushing
          // here must lose cleanly to a concurrent seizure instead of
          // clobbering the seized state (conceptually the transition is
          // still the owner's sole-owner store, so the observation keeps
          // Mechanism::kStore). A failed read-lock CAS means a reader
          // joined: the state became RdShRLock.
          StateWord expected = s;
          if (!m.cas_state(expected, next)) break;
          observe(ctx, m, s, next, AK::kUnlock, Rel::kOwner,
                  s.kind() == StateKind::kWrExWLock ? Mech::kStore : Mech::kCas,
                  to_opt ? Choice::kOpt : Choice::kPess);
          commit_unlock(ctx, m, to_opt);
          return;
        }
        case StateKind::kRdShRLock: {
          const std::uint32_t n = s.rdlock_count();
          HT_DASSERT(n >= 1, "RdShRLock with zero holders");
          StateWord next;
          bool to_opt = false;
          if (n > 1) {
            next = StateWord::rd_sh_rlock(s.counter(), n - 1);
          } else {
            to_opt = policy_.should_go_opt(m);
            next = to_opt ? StateWord::rd_sh_opt(s.counter())
                          : StateWord::rd_sh_pess(s.counter());
          }
          StateWord expected = s;
          if (m.cas_state(expected, next)) {
            observe(ctx, m, s, next, AK::kUnlock, Rel::kOwner, Mech::kCas,
                    to_opt ? Choice::kOpt : Choice::kPess, n == 1);
            if (n == 1) commit_unlock(ctx, m, to_opt);
            return;
          }
          break;  // another holder joined or left: recompute
        }
        default:
          HT_ASSERT(false, "lock-buffer entry in a non-locked state");
      }
    }
  }

  // Lazy ownership reclamation (DESIGN.md §11): a state owned by a
  // quarantined thread will never be released by it — coordinate() with the
  // dead owner succeeds implicitly, so without this check a contended slow
  // path would livelock re-reading the same locked state forever. Returns
  // true when the caller should reload the state word.
  bool seize_if_quarantined(ThreadContext& ctx, ObjectMeta& m, StateWord s) {
    Runtime& rt = *runtime_;
    if (!rt.has_quarantined() || !rt.thread_quarantined(s.tid())) return false;
    resilience::seize_object(ctx, m, s.tid(),
                             /*land_pessimistic=*/!optimistic_only());
    return true;
  }

  // Int held by another coordinator: wait at a safe point (Fig 1 line 18),
  // ceding the CPU — the holder keeps the Int across a whole coordination
  // round trip, and on oversubscribed cores a pure spin burns the
  // scheduling quantum that holder (or the owner draining a batch mailbox)
  // needs. Its silence window runs from the start of the wait, not from
  // the holder's last movement as the coordination wait's does: the
  // holder's heartbeat advances at every step of its own round trip, and
  // Int waiters kept awake by it made the hybrid and recorder configs
  // slower (DESIGN.md §13.3). So the wait yields, answering requests, for
  // one window, and sleeps only on an Int held longer than that. An Int
  // abandoned by a quarantined thread is seized instead.
  void wait_on_int(ThreadContext& ctx, ObjectMeta& m, StateWord s, AK access,
                   Backoff& backoff) {
    observe_wait(ctx, m, s, access);
    if (seize_if_quarantined(ctx, m, s)) return;
    runtime_->fault_point_slow_path(ctx);
    runtime_->respond_while_waiting(ctx);
    if (!schedule::virtualized()) backoff.pause();
  }

  // ==== store slow path (Fig 10b generalized to all Table 3 rows) ==========
  void store_slow(ThreadContext& ctx, ObjectMeta& m) {
    Runtime& rt = *runtime_;
    bool contended = false;
    Backoff backoff(rt.spin_rounds());
    for (;;) {
      // Quarantined victims must not lock or Int fresh states after the
      // sweep ran (DESIGN.md §11.2); park before acquiring, never after.
      rt.check_self_quarantine(ctx);
      StateWord s = m.load_state();
      switch (s.kind()) {
        // ---- optimistic ----------------------------------------------------
        case StateKind::kWrExOpt:
          if (s.tid() == ctx.id) {
            observe(ctx, m, s, s, AK::kWrite, Rel::kOwner);
            return;
          }
          if (opt_conflicting(ctx, m, s, /*is_store=*/true)) return;
          break;
        case StateKind::kRdExOpt:
          if (s.tid() == ctx.id) {
            StateWord expected = s;
            if (m.cas_state(expected, StateWord::wr_ex_opt(ctx.id))) {
              observe(ctx, m, s, StateWord::wr_ex_opt(ctx.id), AK::kWrite,
                      Rel::kOwner, Mech::kCas);
              return;
            }
            break;
          }
          if (opt_conflicting(ctx, m, s, /*is_store=*/true)) return;
          break;
        case StateKind::kRdShOpt:
          if (opt_conflicting(ctx, m, s, /*is_store=*/true)) return;
          break;
        case StateKind::kInt:
          wait_on_int(ctx, m, s, AK::kWrite, backoff);
          break;

        // ---- pessimistic unlocked: uncontended lock acquisition -------------
        case StateKind::kWrExPess:
        case StateKind::kRdExPess:
        case StateKind::kRdShPess: {
          const bool confl = s.is_rd_sh() || s.tid() != ctx.id;
          StateWord expected = s;
          if (m.cas_state(expected, StateWord::wr_ex_wlock(ctx.id))) {
            ctx.lock_buffer.push_back(&m);
            observe(ctx, m, s, StateWord::wr_ex_wlock(ctx.id), AK::kWrite,
                    confl ? Rel::kOther : Rel::kOwner, Mech::kCas);
            finish_pess(ctx, m, confl, /*reentrant=*/false, contended);
            if (s.is_rd_sh()) {
              record_all_edges(ctx);
            } else if (confl) {
              record_owner_edge(ctx, s.tid());
            }
            return;
          }
          break;
        }

        // ---- pessimistic locked ---------------------------------------------
        case StateKind::kWrExWLock:
          if (s.tid() == ctx.id) {  // reentrant (Table 3 row 1)
            observe(ctx, m, s, s, AK::kWrite, Rel::kOwner);
            finish_pess(ctx, m, /*confl=*/false, /*reentrant=*/true);
            return;
          }
          observe_wait(ctx, m, s, AK::kWrite);
          if (seize_if_quarantined(ctx, m, s)) break;
          pess_contended(ctx, m, s, contended);
          break;
        case StateKind::kWrExRLock:
        case StateKind::kRdExRLock:
          if (s.tid() == ctx.id) {  // upgrade own read lock to a write lock
            StateWord expected = s;
            if (m.cas_state(expected, StateWord::wr_ex_wlock(ctx.id))) {
              // Already in the lock buffer from the read-lock acquisition.
              observe(ctx, m, s, StateWord::wr_ex_wlock(ctx.id), AK::kWrite,
                      Rel::kOwner, Mech::kCas);
              finish_pess(ctx, m, /*confl=*/false, /*reentrant=*/false,
                          contended);
              return;
            }
            break;
          }
          observe_wait(ctx, m, s, AK::kWrite);
          if (seize_if_quarantined(ctx, m, s)) break;
          pess_contended(ctx, m, s, contended);
          break;
        case StateKind::kRdShRLock:
          if (s.rdlock_count() == 1 && ctx.rd_set.contains(&m)) {
            // Sole read-lock holder is this thread: upgrade in place rather
            // than deadlocking against our own lock.
            StateWord expected = s;
            if (m.cas_state(expected, StateWord::wr_ex_wlock(ctx.id))) {
              observe(ctx, m, s, StateWord::wr_ex_wlock(ctx.id), AK::kWrite,
                      Rel::kOwner, Mech::kCas, Choice::kOpt,
                      /*sole_holder=*/true);
              finish_pess(ctx, m, /*confl=*/true, /*reentrant=*/false,
                          contended);
              record_all_edges(ctx);
              return;
            }
            break;
          }
          observe_wait(ctx, m, s, AK::kWrite,
                       ctx.rd_set.contains(&m) ? Rel::kOwner : Rel::kOther,
                       s.rdlock_count() == 1);
          pess_contended(ctx, m, s, contended);
          // Share-lock holders are anonymous (footnote 4), so a quarantined
          // holder cannot be seized eagerly — but it also never decrements
          // the count. pess_contended just completed a full coordination
          // round with every live thread; if the word is still bit-for-bit
          // unchanged, the remaining holders can only be dead: break the
          // share through Int into RdShPess. (The rare ABA with a live
          // holder whose flush-and-rejoin restored the identical word is
          // tolerated — that holder's later flush skips the entry under
          // quarantine tolerance.)
          if (rt.has_quarantined() && m.load_state().raw() == s.raw()) {
            StateWord expected = s;
            if (m.cas_state(expected, StateWord::intermediate(ctx.id))) {
              HT_TELEM_TRANSITION(ctx, &m, s, StateWord::intermediate(ctx.id));
              m.store_state(StateWord::rd_sh_pess(s.counter()));
              HT_TELEM_TRANSITION(ctx, &m, StateWord::intermediate(ctx.id),
                                  StateWord::rd_sh_pess(s.counter()));
              HT_TELEM_EVENT(ctx, kSeizure, 0, telemetry::object_id(&m),
                             kNoThread);
            }
          }
          break;

        case StateKind::kPessLockedSentinel:
          HT_ASSERT(false, "hybrid tracker saw a standalone-pessimistic state");
      }
    }
  }

  // ==== load slow path ========================================================
  void load_slow(ThreadContext& ctx, ObjectMeta& m) {
    Runtime& rt = *runtime_;
    bool contended = false;
    Backoff backoff(rt.spin_rounds());
    for (;;) {
      rt.check_self_quarantine(ctx);
      StateWord s = m.load_state();
      switch (s.kind()) {
        // ---- optimistic ----------------------------------------------------
        case StateKind::kWrExOpt:
          if (s.tid() == ctx.id) {
            observe(ctx, m, s, s, AK::kRead, Rel::kOwner);
            return;
          }
          if (opt_conflicting(ctx, m, s, /*is_store=*/false)) return;
          break;
        case StateKind::kRdExOpt: {
          if (s.tid() == ctx.id) {
            observe(ctx, m, s, s, AK::kRead, Rel::kOwner);
            return;
          }
          // Upgrading: RdEx_T1 read by T2 -> RdShOpt with a fresh counter.
          const std::uint32_t c = rt.next_rd_sh_counter();
          StateWord expected = s;
          if (m.cas_state(expected, StateWord::rd_sh_opt(c))) {
            if (ctx.rd_sh_count < c) ctx.rd_sh_count = c;
            record_all_edges(ctx);
            observe(ctx, m, s, StateWord::rd_sh_opt(c), AK::kRead, Rel::kOther,
                    Mech::kCas);
            return;
          }
          break;
        }
        case StateKind::kRdShOpt:
          if (ctx.rd_sh_count >= s.counter()) {
            observe(ctx, m, s, s, AK::kRead, Rel::kOwner);
            return;
          }
          // Fence transition (Table 1): first read of this RdSh epoch by T.
          std::atomic_thread_fence(std::memory_order_seq_cst);
          ctx.rd_sh_count = s.counter();
          record_all_edges(ctx);
          observe(ctx, m, s, s, AK::kRead, Rel::kOther, Mech::kFence);
          return;
        case StateKind::kInt:
          wait_on_int(ctx, m, s, AK::kRead, backoff);
          break;

        // ---- pessimistic unlocked -------------------------------------------
        case StateKind::kWrExPess: {
          if (s.tid() == ctx.id) {
            // §7.1: the full model read-locks the owner's WrEx state so a
            // second reader can share without contention; the prototype
            // write-locks it; the unsound alternate downgrades to RdEx.
            StateWord next;
            bool read_lock = true;
            switch (mode_) {
              case WrExReadMode::kFull:
                next = StateWord::wr_ex_rlock(ctx.id);
                break;
              case WrExReadMode::kOmitWrExRLock:
                next = StateWord::wr_ex_wlock(ctx.id);
                read_lock = false;
                break;
              case WrExReadMode::kUnsoundDowngrade:
                next = StateWord::rd_ex_rlock(ctx.id);
                break;
            }
            StateWord expected = s;
            if (m.cas_state(expected, next)) {
              ctx.lock_buffer.push_back(&m);
              if (read_lock) ctx.rd_set.insert(&m);
              observe(ctx, m, s, next, AK::kRead, Rel::kOwner, Mech::kCas);
              finish_pess(ctx, m, /*confl=*/false, /*reentrant=*/false,
                          contended);
              return;
            }
            break;
          }
          // Cross-thread read of WrExPess_T1 -> RdExRLock_T2 (Table 3).
          if (read_lock_from(ctx, m, s, StateWord::rd_ex_rlock(ctx.id),
                             Rel::kOther, /*confl=*/true, contended)) {
            record_owner_edge(ctx, s.tid());
            return;
          }
          break;
        }
        case StateKind::kRdExPess: {
          if (s.tid() == ctx.id) {
            if (read_lock_from(ctx, m, s, StateWord::rd_ex_rlock(ctx.id),
                               Rel::kOwner, /*confl=*/false, contended))
              return;
            break;
          }
          // RdExPess_T1 read by T2 -> RdShRLock(1) with a fresh counter.
          const std::uint32_t c = rt.next_rd_sh_counter();
          if (read_lock_from(ctx, m, s, StateWord::rd_sh_rlock(c, 1),
                             Rel::kOther, /*confl=*/false, contended)) {
            record_owner_edge(ctx, s.tid());
            return;
          }
          break;
        }
        case StateKind::kRdShPess:
          if (read_lock_from(ctx, m, s,
                             StateWord::rd_sh_rlock(s.counter(), 1),
                             Rel::kOther, /*confl=*/false, contended)) {
            record_all_edges(ctx);
            return;
          }
          break;

        // ---- pessimistic locked ----------------------------------------------
        case StateKind::kWrExWLock:
          if (s.tid() == ctx.id) {  // reentrant
            observe(ctx, m, s, s, AK::kRead, Rel::kOwner);
            finish_pess(ctx, m, /*confl=*/false, /*reentrant=*/true);
            return;
          }
          observe_wait(ctx, m, s, AK::kRead);
          if (seize_if_quarantined(ctx, m, s)) break;
          pess_contended(ctx, m, s, contended);
          break;
        case StateKind::kWrExRLock:
        case StateKind::kRdExRLock:
          if (s.tid() == ctx.id) {  // reentrant (own read lock)
            observe(ctx, m, s, s, AK::kRead, Rel::kOwner);
            finish_pess(ctx, m, /*confl=*/false, /*reentrant=*/true);
            return;
          }
          // Second concurrent reader: -> RdShRLock(2). Seize first if the
          // holder is quarantined — joining would count a dead thread as a
          // share holder that never decrements.
          if (seize_if_quarantined(ctx, m, s)) break;
          if (join_read_share(ctx, m, s, /*initial_holders=*/2,
                              /*confl=*/s.kind() == StateKind::kWrExRLock,
                              contended))
            return;
          break;
        case StateKind::kRdShRLock: {
          if (ctx.rd_set.contains(&m)) {  // reentrant
            observe(ctx, m, s, s, AK::kRead, Rel::kOwner, Mech::kFastPath,
                    Choice::kOpt, s.rdlock_count() == 1);
            finish_pess(ctx, m, /*confl=*/false, /*reentrant=*/true);
            return;
          }
          // Join: RdShRLock(n) -> RdShRLock(n+1), same counter.
          if (read_lock_from(ctx, m, s,
                             StateWord::rd_sh_rlock(s.counter(),
                                                    s.rdlock_count() + 1),
                             Rel::kOther, /*confl=*/false, contended)) {
            record_all_edges(ctx);
            return;
          }
          break;
        }

        case StateKind::kPessLockedSentinel:
          HT_ASSERT(false, "hybrid tracker saw a standalone-pessimistic state");
      }
    }
  }

  // Read-locks `m` from the unlocked or read-shared state `s` into `next` (a
  // RdEx or RdSh read lock): enters the lock buffer and read set and raises
  // rdShCount to a RdSh successor's epoch. The caller records the edges.
  bool read_lock_from(ThreadContext& ctx, ObjectMeta& m, StateWord s,
                      StateWord next, Rel rel, bool confl, bool contended) {
    StateWord expected = s;
    if (!m.cas_state(expected, next)) return false;
    if (next.is_rd_sh() && ctx.rd_sh_count < next.counter())
      ctx.rd_sh_count = next.counter();
    ctx.lock_buffer.push_back(&m);
    ctx.rd_set.insert(&m);
    observe(ctx, m, s, next, AK::kRead, rel, Mech::kCas);
    finish_pess(ctx, m, confl, /*reentrant=*/false, contended);
    return true;
  }

  // RdExRLock_T1 / WrExRLock_T1 read by T2 -> RdShRLock(holders) with a
  // fresh global counter (Table 3). The old holder's lock-buffer entry keeps
  // working: its flush decrements the RdShRLock count.
  bool join_read_share(ThreadContext& ctx, ObjectMeta& m, StateWord s,
                       std::uint32_t initial_holders, bool confl,
                       bool contended) {
    const std::uint32_t c = runtime_->next_rd_sh_counter();
    if (!read_lock_from(ctx, m, s, StateWord::rd_sh_rlock(c, initial_holders),
                        Rel::kOther, confl, contended))
      return false;
    // The prior holder has not flushed since locking, so a single-owner
    // current-counter edge would be unsound; fan out conservatively.
    record_all_edges(ctx);
    return true;
  }

  // Optimistic conflicting transition (Fig 1; Fig 10b lines 41-53). Returns
  // false if the CAS to Int lost a race and the caller should re-examine
  // the state.
  bool opt_conflicting(ThreadContext& ctx, ObjectMeta& m, StateWord s,
                       bool is_store) {
    Runtime& rt = *runtime_;
    StateWord expected = s;
    if (!m.cas_state(expected, StateWord::intermediate(ctx.id))) return false;
    HT_TELEM_TRANSITION(ctx, &m, s, StateWord::intermediate(ctx.id));

    bool any_explicit = false;
    {
      IntGuard guard(m, s, ctx.id);  // enforcer regions may unwind the wait
      if (s.is_rd_sh()) {
        // Prior readers are unknown: coordinate with every other thread
        // (paper footnote 4).
        any_explicit = rt.coordinate_all_others(ctx);
        record_all_edges(ctx);
      } else {
        const Runtime::CoordResult r = rt.coordinate(ctx, s.tid());
        any_explicit = !r.implicit;
        if constexpr (Sink::kActive) sink_->edge(ctx, s.tid(), r.src_release);
      }
      guard.disarm();
    }
    land_conflict(ctx, m, s, is_store, any_explicit);
    return true;
  }

  // Installs the state a conflicting transition lands in once coordination
  // is done: the adaptive policy picks the optimistic state or its locked
  // pessimistic counterpart (never pessimistic at an infinite cutoff).
  void land_conflict(ThreadContext& ctx, ObjectMeta& m, StateWord from,
                     bool is_store, bool any_explicit) {
    const bool went_pess = policy_.to_pess_on_conflict(m, any_explicit);
    const StateWord landed =
        went_pess ? (is_store ? StateWord::wr_ex_wlock(ctx.id)
                              : StateWord::rd_ex_rlock(ctx.id))
                  : (is_store ? StateWord::wr_ex_opt(ctx.id)
                              : StateWord::rd_ex_opt(ctx.id));
    // The landing CASes from our own Int rather than blind-storing: if this
    // thread was quarantined between its last wait check and coordination's
    // return, a survivor has already seized the Int and owns the object —
    // the seized state must win and we park (any batch members still Int
    // are reclaimed by the seizure sweep).
    StateWord intw = StateWord::intermediate(ctx.id);
    if (!m.cas_state(intw, landed)) runtime_->quarantined_self_park(ctx);
    if (went_pess) {
      policy_.note_became_pess(m);
      if (!is_store) ctx.rd_set.insert(&m);
      ctx.lock_buffer.push_back(&m);
      if constexpr (kStats) ++ctx.stats.opt_to_pess;
    }
    observe(ctx, m, from, landed, is_store ? AK::kWrite : AK::kRead,
            Rel::kOther, Mech::kCoordination,
            went_pess ? Choice::kPess : Choice::kOpt);
    if constexpr (kStats) {
      (any_explicit ? ctx.stats.opt_confl_explicit
                    : ctx.stats.opt_confl_implicit)++;
    }
    HT_TELEM_EVENT(ctx, kOptConflict, 0, telemetry::object_id(&m),
                   (any_explicit ? telemetry::kFlagExplicit : 0u) |
                       (is_store ? telemetry::kFlagStore : 0u) |
                       (went_pess ? telemetry::kFlagWentPess : 0u));
  }

  // One conflicting optimistic object already moved to Int(self), waiting on
  // the group's batched round (DESIGN.md §13).
  struct BatchConflict {
    ObjectMeta* m;
    StateWord from;
  };

  // Settles the pending Int(self) objects: partitions them by their named
  // owner, issues ONE scatter-gather multi-round (all owners' requests
  // posted before any wait, so the round trips overlap and the Int hold
  // window stays ~one round trip), then lands each object exactly as
  // opt_conflicting would have. The `held` objects, owned WrExOpt(self),
  // sit in Int(self) for the round so that no response hands them away.
  void settle_store_batch(ThreadContext& ctx, const BatchConflict* pend,
                          std::size_t np, ObjectMeta* const* held,
                          std::size_t nh) {
    Runtime& rt = *runtime_;
    const StateWord self_int = StateWord::intermediate(ctx.id);
    const StateWord self_opt = StateWord::wr_ex_opt(ctx.id);
    bool is_held[kMaxStoreBatch];
    for (std::size_t i = 0; i < nh; ++i) {
      StateWord expected = self_opt;
      is_held[i] = held[i]->cas_state(expected, self_int);  // false: duplicate
    }
    Runtime::BatchGroup groups[kMaxStoreBatch];
    std::uint8_t gidx[kMaxStoreBatch];
    std::size_t ng = 0;
    for (std::size_t i = 0; i < np; ++i) {
      const ThreadId owner = pend[i].from.tid();
      std::size_t g = 0;
      while (g < ng && groups[g].owner != owner) ++g;
      if (g == ng) {
        groups[ng].owner = owner;
        groups[ng].n_objects = 0;
        ++ng;
      }
      ++groups[g].n_objects;
      gidx[i] = static_cast<std::uint8_t>(g);
    }
    try {
      rt.coordinate_batch_multi(ctx, groups, ng);
    } catch (...) {
      // Unwinding (RegionRestart, ThreadQuarantined, CoordinationStalled):
      // restore every pending and held Int, same as IntGuard does for the
      // scalar path — nothing has landed yet. A restore CAS that fails lost
      // to a seizure, which owns the object now. Responses already gathered
      // are simply abandoned (a response transfers no state, only a counter
      // stamp).
      for (std::size_t i = 0; i < np; ++i) {
        StateWord intw = self_int;
        (void)pend[i].m->cas_state(intw, pend[i].from);
      }
      for (std::size_t i = 0; i < nh; ++i) {
        StateWord intw = self_int;
        if (is_held[i]) (void)held[i]->cas_state(intw, self_opt);
      }
      throw;
    }
    for (std::size_t i = 0; i < nh; ++i) {
      StateWord intw = self_int;
      // As in land_conflict: a failed release lost to a seizure.
      if (is_held[i] && !held[i]->cas_state(intw, self_opt))
        rt.quarantined_self_park(ctx);
    }
    for (std::size_t i = 0; i < np; ++i) {
      const Runtime::BatchGroup& g = groups[gidx[i]];
      // The owner's single flush-and-bump precedes its response, so its
      // group's shared post-bump counter covers its prior accesses to every
      // object in the group (all were Int before the round trip started).
      if constexpr (Sink::kActive) {
        sink_->edge(ctx, g.owner, g.result.src_release);
      }
      land_conflict(ctx, *pend[i].m, pend[i].from, /*is_store=*/true,
                    !g.result.implicit);
    }
  }

  // Contended pessimistic transition (§3.2): coordinate so the holder(s)
  // unlock early at a responding safe point, then let the caller retry. The
  // access is classified contended exactly once no matter how many
  // coordination rounds its retries need (Table 2 counts transitions, and
  // one access performs one transition).
  void pess_contended(ThreadContext& ctx, ObjectMeta& m, StateWord s,
                      bool& contended) {
    Runtime& rt = *runtime_;
    if (!contended) {
      contended = true;
      policy_.note_pess_contended(m);
    }
    HT_TELEM_CYCLES(telem_t0);
    if (s.kind() == StateKind::kRdShRLock) {
      rt.coordinate_all_others(ctx);  // holders unknown (footnote 4)
    } else {
      rt.coordinate(ctx, s.tid());
    }
    HT_TELEM_ELAPSED(ctx, kPessWait, telem_t0, telemetry::object_id(&m), 0);
    // Edges for the eventual transition are recorded by the uncontended
    // retry ("T2 then records its uncontended transition ... as described
    // above", §4.2); the holders' responses were logged by the runtime.
  }

  void commit_unlock(ThreadContext& ctx, ObjectMeta& m, bool to_opt) {
    if (to_opt) {
      policy_.commit_go_opt(m);
      if constexpr (kStats) ++ctx.stats.pess_to_opt;
      HT_TELEM_EVENT(ctx, kPolicyPessToOpt, 0, telemetry::object_id(&m), 0);
    }
    (void)ctx;
    (void)m;
  }

  void finish_pess(ThreadContext& ctx, ObjectMeta& m, bool confl,
                   bool reentrant, bool contended = false) {
    policy_.note_pess_transition(m, confl);
    if constexpr (kStats) {
      if (contended) {
        ++ctx.stats.pess_contended;
      } else {
        ++ctx.stats.pess_uncontended;
        if (reentrant) ++ctx.stats.pess_reentrant;
      }
    }
    HT_TELEM_EVENT(ctx, kPessAcquire, 0, telemetry::object_id(&m),
                   (contended ? telemetry::kFlagContended : 0u) |
                       (reentrant ? telemetry::kFlagReentrant : 0u));
    (void)reentrant;
    (void)contended;
  }

  void record_owner_edge(ThreadContext& ctx, ThreadId owner) {
    if constexpr (Sink::kActive) {
      const ThreadContext& o = runtime_->registry().context(owner);
      sink_->edge(ctx, owner,
                  o.owner_side.release_counter.load(std::memory_order_acquire));
    }
    (void)owner;
    (void)ctx;
  }

  void record_all_edges(ThreadContext& ctx) {
    if constexpr (Sink::kActive) sink_->edge_all_others(ctx, *runtime_);
    (void)ctx;
  }

  Runtime* runtime_;
  AdaptivePolicy policy_;
  WrExReadMode mode_;
  Sink* sink_;
};

}  // namespace ht
