// The Fig 7 "Ideal" configuration: optimistic tracking with coordination for
// conflicting transitions elided — conflicting transitions become bare CASes.
//
// This is UNSOUND (it can miss dependences and violates instrumentation-
// access atomicity); the paper uses it purely as an estimated upper bound on
// what hybrid tracking could recover: "the cost of all conflicting
// transitions becoming pessimistic and all same-state transitions remaining
// optimistic" (§7.5).
#pragma once

#include <atomic>

#include "metadata/object_meta.hpp"
#include "tracking/tracker_common.hpp"

namespace ht {

template <bool kStats = false>
class IdealTracker {
 public:
  static constexpr const char* kName = "ideal";
  using Token = EmptyToken;

  explicit IdealTracker(Runtime& rt) : runtime_(&rt) {}

  StateWord initial_state(ThreadContext& ctx) const {
    return StateWord::wr_ex_opt(ctx.id);
  }
  void attach_thread(ThreadContext&) {}

  Token pre_store(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord s = m.load_state();
    if (s.raw() == ctx.fast_wr_ex_opt) {
      if constexpr (kStats) ++ctx.stats.opt_same;
      HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kIdeal,
                           .actor = ctx.id,
                           .object = &m,
                           .from = s,
                           .to = s,
                           .access = analysis::AccessKind::kWrite,
                           .rel = analysis::ActorRel::kOwner});
      return {};
    }
    slow(ctx, m, /*is_store=*/true);
    return {};
  }
  void post_store(ThreadContext&, ObjectMeta&, Token) {}

  // Batched-store API parity (DESIGN.md §13). Ideal elides coordination, so
  // there is no round trip to amortize — each store is just its bare CAS.
  void pre_store_batch(ThreadContext& ctx, ObjectMeta* const* objs,
                       std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) (void)pre_store(ctx, *objs[i]);
  }

  Token pre_load(ThreadContext& ctx, ObjectMeta& m) {
    const StateWord s = m.load_state();
    if (s.raw() == ctx.fast_wr_ex_opt || s.raw() == ctx.fast_rd_ex_opt ||
        (s.kind() == StateKind::kRdShOpt && ctx.rd_sh_count >= s.counter())) {
      if constexpr (kStats) ++ctx.stats.opt_same;
      HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kIdeal,
                           .actor = ctx.id,
                           .object = &m,
                           .from = s,
                           .to = s,
                           .access = analysis::AccessKind::kRead,
                           .rel = analysis::ActorRel::kOwner});
      return {};
    }
    slow(ctx, m, /*is_store=*/false);
    return {};
  }
  void post_load(ThreadContext&, ObjectMeta&, Token) {}

  Runtime& runtime() { return *runtime_; }

 private:
  void slow(ThreadContext& ctx, ObjectMeta& m, bool is_store) {
    Runtime& rt = *runtime_;
    for (;;) {
      StateWord s = m.load_state();
      if (s.raw() == ctx.fast_wr_ex_opt ||
          (!is_store && s.raw() == ctx.fast_rd_ex_opt)) {
        if constexpr (kStats) ++ctx.stats.opt_same;
        HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kIdeal,
                             .actor = ctx.id,
                             .object = &m,
                             .from = s,
                             .to = s,
                             .access = is_store ? analysis::AccessKind::kWrite
                                                : analysis::AccessKind::kRead,
                             .rel = analysis::ActorRel::kOwner});
        return;
      }
      StateWord next;
      bool conflicting = false;
      if (is_store) {
        next = StateWord::wr_ex_opt(ctx.id);
        conflicting = !(s.kind() == StateKind::kRdExOpt && s.tid() == ctx.id);
      } else {
        switch (s.kind()) {
          case StateKind::kRdShOpt:
            if (ctx.rd_sh_count >= s.counter()) {
              if constexpr (kStats) ++ctx.stats.opt_same;
              HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kIdeal,
                                   .actor = ctx.id,
                                   .object = &m,
                                   .from = s,
                                   .to = s,
                                   .access = analysis::AccessKind::kRead,
                                   .rel = analysis::ActorRel::kOwner});
              return;
            }
            std::atomic_thread_fence(std::memory_order_seq_cst);
            ctx.rd_sh_count = s.counter();
            if constexpr (kStats) ++ctx.stats.opt_fence;
            HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kIdeal,
                                 .actor = ctx.id,
                                 .object = &m,
                                 .from = s,
                                 .to = s,
                                 .access = analysis::AccessKind::kRead,
                                 .rel = analysis::ActorRel::kOther,
                                 .taken = analysis::Mechanism::kFence});
            return;
          case StateKind::kRdExOpt:
            next = StateWord::rd_sh_opt(rt.next_rd_sh_counter());
            break;
          case StateKind::kWrExOpt:
            next = StateWord::rd_ex_opt(ctx.id);
            conflicting = true;
            break;
          default:
            HT_ASSERT(false, "ideal tracker saw a non-optimistic state");
            return;
        }
      }
      StateWord expected = s;
      if (m.cas_state(expected, next)) {
        if (next.kind() == StateKind::kRdShOpt &&
            ctx.rd_sh_count < next.counter()) {
          ctx.rd_sh_count = next.counter();
        }
        HT_TELEM_TRANSITION(ctx, &m, s, next);
        HT_CHECK_TRANSITION({.family = analysis::TrackerFamily::kIdeal,
                             .actor = ctx.id,
                             .object = &m,
                             .from = s,
                             .to = next,
                             .access = is_store ? analysis::AccessKind::kWrite
                                                : analysis::AccessKind::kRead,
                             .rel = s.has_owner() && s.tid() == ctx.id
                                        ? analysis::ActorRel::kOwner
                                        : analysis::ActorRel::kOther,
                             .taken = analysis::Mechanism::kCas});
        if constexpr (kStats) {
          // Elided coordination still counts as a conflicting transition so
          // statistics runs show what the Ideal configuration skipped.
          (conflicting ? ctx.stats.opt_confl_implicit
                       : ctx.stats.opt_upgrading)++;
        }
        HT_TELEM_EVENT_IF(conflicting, ctx, kOptConflict, 0,
                          telemetry::object_id(&m),
                          telemetry::kFlagElided |
                              (is_store ? telemetry::kFlagStore : 0u));
        (void)conflicting;
        return;
      }
    }
  }

  Runtime* runtime_;
};

}  // namespace ht
