// Optimistic tracking (paper §2.2; Octet [11]): no synchronization at all on
// the fast path (same-state transitions), an atomic operation for upgrading
// transitions, a memory fence for RdSh fence transitions, and full
// inter-thread coordination for conflicting transitions.
//
// Conflicting transitions follow Fig 1: CAS the state to the intermediate
// Int_T (only one thread coordinates per object at a time), perform a round
// trip with the owner thread(s) — implicit if the owner is blocked —, then
// install the new state. While waiting, the requester itself acts as a safe
// point so that mutual coordination cannot deadlock (Fig 1 line 18).
#pragma once

#include <atomic>

#include "common/spin.hpp"

#include "metadata/object_meta.hpp"
#include "resilience/seizure.hpp"
#include "tracking/tracker_common.hpp"

namespace ht {

template <bool kStats = false, typename Sink = NullSink>
class OptimisticTracker {
 public:
  static constexpr const char* kName = "optimistic";
  using Token = EmptyToken;

  explicit OptimisticTracker(Runtime& rt, Sink* sink = nullptr)
      : runtime_(&rt), sink_(sink) {}

  // Fig 6 limit study: when enabled, each conflicting transition that used
  // explicit coordination increments the object's profile word, giving the
  // per-object conflict census the adaptive policy's evaluation rests on.
  void enable_conflict_census() { census_ = true; }

  StateWord initial_state(ThreadContext& ctx) const {
    return StateWord::wr_ex_opt(ctx.id);
  }
  void attach_thread(ThreadContext&) {}

  // --- store ------------------------------------------------------------------
  Token pre_store(ThreadContext& ctx, ObjectMeta& m) {
    // Fast path (Fig 10a shape): a single load and compare.
    const StateWord s = m.load_state();
    if (s.raw() == ctx.fast_wr_ex_opt) {
      if constexpr (kStats) ++ctx.stats.opt_same;
      HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                           .actor = ctx.id,
                           .object = &m,
                           .from = s,
                           .to = s,
                           .access = analysis::AccessKind::kWrite,
                           .rel = analysis::ActorRel::kOwner});
      return {};
    }
    store_slow(ctx, m);
    return {};
  }
  void post_store(ThreadContext&, ObjectMeta&, Token) {}

  // --- batched store (DESIGN.md §13) -------------------------------------------
  // Same shape as HybridTracker::pre_store_batch: conflicting optimistic
  // objects move to Int together, one coordinate_batch() round per distinct
  // owner settles each owner's group (every object's edge stamps that
  // owner's shared post-bump counter), and all other cases fall back to the
  // scalar retry loop after the groups land.
  static constexpr std::size_t kMaxStoreBatch = 16;
  void pre_store_batch(ThreadContext& ctx, ObjectMeta* const* objs,
                       std::size_t n) {
    Runtime& rt = *runtime_;
    BatchConflict pend[kMaxStoreBatch];
    bool scalar[kMaxStoreBatch];
    std::size_t np = 0;
    const std::size_t lim = n < kMaxStoreBatch ? n : kMaxStoreBatch;
    for (std::size_t i = 0; i < lim; ++i) {
      scalar[i] = false;
      ObjectMeta& m = *objs[i];
      const StateWord s = m.load_state();
      if (s.raw() == ctx.fast_wr_ex_opt) {
        if constexpr (kStats) ++ctx.stats.opt_same;
        HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                             .actor = ctx.id,
                             .object = &m,
                             .from = s,
                             .to = s,
                             .access = analysis::AccessKind::kWrite,
                             .rel = analysis::ActorRel::kOwner});
        continue;
      }
      const bool opt_conflict = (s.kind() == StateKind::kWrExOpt ||
                                 s.kind() == StateKind::kRdExOpt) &&
                                s.tid() != ctx.id;
      if (!opt_conflict) {
        scalar[i] = true;
        continue;
      }
      rt.check_self_quarantine(ctx);
      StateWord expected = s;
      if (!m.cas_state(expected, StateWord::intermediate(ctx.id))) {
        scalar[i] = true;
        continue;
      }
      HT_TELEM_TRANSITION(ctx, &m, s, StateWord::intermediate(ctx.id));
      pend[np++] = BatchConflict{&m, s};
    }

    if (np != 0) settle_store_batch(ctx, pend, np);

    for (std::size_t i = 0; i < lim; ++i) {
      if (scalar[i]) pre_store(ctx, *objs[i]);
    }
    for (std::size_t i = lim; i < n; ++i) pre_store(ctx, *objs[i]);
  }

  // --- load -------------------------------------------------------------------
  Token pre_load(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord s = m.load_state();
    if (s.raw() == ctx.fast_wr_ex_opt || s.raw() == ctx.fast_rd_ex_opt ||
        (s.kind() == StateKind::kRdShOpt && ctx.rd_sh_count >= s.counter())) {
      if constexpr (kStats) ++ctx.stats.opt_same;
      HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                           .actor = ctx.id,
                           .object = &m,
                           .from = s,
                           .to = s,
                           .access = analysis::AccessKind::kRead,
                           .rel = analysis::ActorRel::kOwner});
      return {};
    }
    load_slow(ctx, m);
    return {};
  }
  void post_load(ThreadContext&, ObjectMeta&, Token) {}

  Runtime& runtime() { return *runtime_; }

 private:
  void store_slow(ThreadContext& ctx, ObjectMeta& m) {
    Runtime& rt = *runtime_;
    // Int waits must cede the CPU (same idiom as the pessimistic contended
    // lock): the holder keeps the Int across a whole coordination round
    // trip, and on oversubscribed cores a pure spin burns the scheduling
    // quantum that holder — or the owner draining a batch mailbox — needs.
    Backoff backoff;
    for (;;) {
      // Park quarantined victims before they start a fresh coordination
      // (DESIGN.md §11.2); an in-flight Int is unwound by its IntGuard.
      rt.check_self_quarantine(ctx);
      StateWord s = m.load_state();
      if (s.raw() == ctx.fast_wr_ex_opt) {
        // Another iteration (or a racing thread handing the state back)
        // already produced the state we need.
        if constexpr (kStats) ++ctx.stats.opt_same;
        HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                             .actor = ctx.id,
                             .object = &m,
                             .from = s,
                             .to = s,
                             .access = analysis::AccessKind::kWrite,
                             .rel = analysis::ActorRel::kOwner});
        return;
      }
      if (s.kind() == StateKind::kRdExOpt && s.tid() == ctx.id) {
        // Upgrading: RdEx_T -> WrEx_T, atomic but coordination-free.
        StateWord expected = s;
        if (m.cas_state(expected, StateWord::wr_ex_opt(ctx.id))) {
          if constexpr (kStats) ++ctx.stats.opt_upgrading;
          HT_TELEM_TRANSITION(ctx, &m, s, StateWord::wr_ex_opt(ctx.id));
          HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                               .actor = ctx.id,
                               .object = &m,
                               .from = s,
                               .to = StateWord::wr_ex_opt(ctx.id),
                               .access = analysis::AccessKind::kWrite,
                               .rel = analysis::ActorRel::kOwner,
                               .taken = analysis::Mechanism::kCas});
          return;
        }
        continue;
      }
      if (s.is_intermediate()) {
        HT_CHECK_CONTENDED({.family = analysis::TrackerFamily::kOptimistic,
                            .actor = ctx.id,
                            .object = &m,
                            .from = s,
                            .access = analysis::AccessKind::kWrite,
                            .rel = analysis::ActorRel::kOther});
        // An Int abandoned by a quarantined thread never resolves on its
        // own; reclaim it (landing optimistic — this tracker has no
        // pessimistic states) instead of waiting forever.
        if (rt.has_quarantined() && rt.thread_quarantined(s.tid())) {
          resilience::seize_object(ctx, m, s.tid(), /*land_pessimistic=*/false);
          continue;
        }
        rt.fault_point_slow_path(ctx);
        rt.respond_while_waiting(ctx);
        if (!schedule::virtualized()) backoff.pause();
        continue;
      }
      if (conflicting_transition(ctx, m, s, StateWord::wr_ex_opt(ctx.id)))
        return;
    }
  }

  void load_slow(ThreadContext& ctx, ObjectMeta& m) {
    Runtime& rt = *runtime_;
    Backoff backoff;  // Int waits cede the CPU (see store_slow)
    for (;;) {
      rt.check_self_quarantine(ctx);
      StateWord s = m.load_state();
      if (s.raw() == ctx.fast_wr_ex_opt || s.raw() == ctx.fast_rd_ex_opt) {
        if constexpr (kStats) ++ctx.stats.opt_same;
        HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                             .actor = ctx.id,
                             .object = &m,
                             .from = s,
                             .to = s,
                             .access = analysis::AccessKind::kRead,
                             .rel = analysis::ActorRel::kOwner});
        return;
      }
      switch (s.kind()) {
        case StateKind::kRdShOpt: {
          if (ctx.rd_sh_count >= s.counter()) {
            if constexpr (kStats) ++ctx.stats.opt_same;
            HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                                 .actor = ctx.id,
                                 .object = &m,
                                 .from = s,
                                 .to = s,
                                 .access = analysis::AccessKind::kRead,
                                 .rel = analysis::ActorRel::kOwner});
            return;
          }
          // Fence transition (Table 1): first read of this RdSh epoch by T.
          std::atomic_thread_fence(std::memory_order_seq_cst);
          ctx.rd_sh_count = s.counter();
          if constexpr (Sink::kActive) sink_->edge_all_others(ctx, rt);
          if constexpr (kStats) ++ctx.stats.opt_fence;
          HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                               .actor = ctx.id,
                               .object = &m,
                               .from = s,
                               .to = s,
                               .access = analysis::AccessKind::kRead,
                               .rel = analysis::ActorRel::kOther,
                               .taken = analysis::Mechanism::kFence});
          return;
        }
        case StateKind::kRdExOpt: {
          // Upgrading: RdEx_T1 read by T2 -> RdSh_c with a fresh counter.
          const std::uint32_t c = rt.next_rd_sh_counter();
          StateWord expected = s;
          if (m.cas_state(expected, StateWord::rd_sh_opt(c))) {
            if (ctx.rd_sh_count < c) ctx.rd_sh_count = c;
            if constexpr (Sink::kActive) sink_->edge_all_others(ctx, rt);
            if constexpr (kStats) ++ctx.stats.opt_upgrading;
            HT_TELEM_TRANSITION(ctx, &m, s, StateWord::rd_sh_opt(c));
            HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                                 .actor = ctx.id,
                                 .object = &m,
                                 .from = s,
                                 .to = StateWord::rd_sh_opt(c),
                                 .access = analysis::AccessKind::kRead,
                                 .rel = analysis::ActorRel::kOther,
                                 .taken = analysis::Mechanism::kCas});
            return;
          }
          continue;
        }
        case StateKind::kInt:
          HT_CHECK_CONTENDED({.family = analysis::TrackerFamily::kOptimistic,
                              .actor = ctx.id,
                              .object = &m,
                              .from = s,
                              .access = analysis::AccessKind::kRead,
                              .rel = analysis::ActorRel::kOther});
          if (rt.has_quarantined() && rt.thread_quarantined(s.tid())) {
            resilience::seize_object(ctx, m, s.tid(),
                                     /*land_pessimistic=*/false);
            continue;
          }
          rt.fault_point_slow_path(ctx);
          rt.respond_while_waiting(ctx);
          if (!schedule::virtualized()) backoff.pause();
          continue;
        case StateKind::kWrExOpt: {
          if (conflicting_transition(ctx, m, s, StateWord::rd_ex_opt(ctx.id)))
            return;
          continue;
        }
        default:
          HT_ASSERT(false, "optimistic tracker saw a pessimistic state");
      }
    }
  }

  // Conflicting transition via Int + coordination (Fig 1). Returns false if
  // the initial CAS lost a race and the caller should re-examine the state.
  bool conflicting_transition(ThreadContext& ctx, ObjectMeta& m, StateWord old_state,
                              StateWord new_state) {
    Runtime& rt = *runtime_;
    StateWord expected = old_state;
    if (!m.cas_state(expected, StateWord::intermediate(ctx.id))) return false;
    HT_TELEM_TRANSITION(ctx, &m, old_state, StateWord::intermediate(ctx.id));

    bool any_explicit = false;
    {
      IntGuard guard(m, old_state, ctx.id);  // enforcer regions may unwind the wait
      if (old_state.is_rd_sh()) {
        // Prior readers are unknown: coordinate with every other thread
        // (paper footnote 4).
        any_explicit = rt.coordinate_all_others(ctx);
        if constexpr (Sink::kActive) sink_->edge_all_others(ctx, rt);
      } else {
        const Runtime::CoordResult r = rt.coordinate(ctx, old_state.tid());
        any_explicit = !r.implicit;
        if constexpr (Sink::kActive)
          sink_->edge(ctx, old_state.tid(), r.src_release);
      }
      guard.disarm();
    }
    // CAS, not store: a survivor may have seized our Int if this thread was
    // quarantined mid-coordination; the seized state wins and we park.
    StateWord intw = StateWord::intermediate(ctx.id);
    if (!m.cas_state(intw, new_state)) rt.quarantined_self_park(ctx);
    HT_TELEM_TRANSITION(ctx, &m, StateWord::intermediate(ctx.id), new_state);
    HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                         .actor = ctx.id,
                         .object = &m,
                         .from = old_state,
                         .to = new_state,
                         .access = new_state.kind() == StateKind::kWrExOpt
                                       ? analysis::AccessKind::kWrite
                                       : analysis::AccessKind::kRead,
                         .rel = analysis::ActorRel::kOther,
                         .taken = analysis::Mechanism::kCoordination});
    if (census_ && any_explicit) {
      m.profile().update(
          [](ProfileWord w) { return w.with_opt_conflict_inc(); });
    }
    if constexpr (kStats) {
      (any_explicit ? ctx.stats.opt_confl_explicit
                    : ctx.stats.opt_confl_implicit)++;
    }
    HT_TELEM_EVENT(ctx, kOptConflict, 0, telemetry::object_id(&m),
                   (any_explicit ? telemetry::kFlagExplicit : 0u) |
                       (new_state.kind() == StateKind::kWrExOpt
                            ? telemetry::kFlagStore
                            : 0u));
    (void)any_explicit;
    return true;
  }

  struct BatchConflict {
    ObjectMeta* m;
    StateWord from;
  };

  // Settles the pending Int(self) objects with ONE scatter-gather
  // multi-round (one request per distinct owner, all posted before any
  // wait), landing each WrExOpt(self) exactly as conflicting_transition
  // would.
  void settle_store_batch(ThreadContext& ctx, const BatchConflict* pend,
                          std::size_t np) {
    Runtime& rt = *runtime_;
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
      // Restore every pending Int — nothing has landed yet; responses
      // already gathered are simply abandoned.
      for (std::size_t i = 0; i < np; ++i) {
        StateWord intw = StateWord::intermediate(ctx.id);
        (void)pend[i].m->cas_state(intw, pend[i].from);
      }
      throw;
    }
    for (std::size_t i = 0; i < np; ++i) {
      ObjectMeta& m = *pend[i].m;
      const ThreadId owner = groups[gidx[i]].owner;
      const bool any_explicit = !groups[gidx[i]].result.implicit;
      if constexpr (Sink::kActive) {
        sink_->edge(ctx, owner, groups[gidx[i]].result.src_release);
      }
      const StateWord landed = StateWord::wr_ex_opt(ctx.id);
      StateWord intw = StateWord::intermediate(ctx.id);
      if (!m.cas_state(intw, landed)) rt.quarantined_self_park(ctx);
      HT_TELEM_TRANSITION(ctx, &m, StateWord::intermediate(ctx.id), landed);
      HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kOptimistic,
                           .actor = ctx.id,
                           .object = &m,
                           .from = pend[i].from,
                           .to = landed,
                           .access = analysis::AccessKind::kWrite,
                           .rel = analysis::ActorRel::kOther,
                           .taken = analysis::Mechanism::kCoordination});
      if (census_ && any_explicit) {
        m.profile().update(
            [](ProfileWord w) { return w.with_opt_conflict_inc(); });
      }
      if constexpr (kStats) {
        (any_explicit ? ctx.stats.opt_confl_explicit
                      : ctx.stats.opt_confl_implicit)++;
      }
      HT_TELEM_EVENT(ctx, kOptConflict, 0, telemetry::object_id(&m),
                     (any_explicit ? telemetry::kFlagExplicit : 0u) |
                         telemetry::kFlagStore);
    }
  }

  Runtime* runtime_;
  Sink* sink_;
  bool census_ = false;
};

}  // namespace ht
