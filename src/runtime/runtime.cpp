#include "runtime/runtime.hpp"

#include <cstdio>
#include <sstream>

#include "common/spin.hpp"
#include "faultinject/fault_injector.hpp"
#include "telemetry/telemetry.hpp"

namespace ht {

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(std::move(cfg)),
      registry_(cfg_.max_threads),
      injector_(cfg_.fault_injector) {}

ThreadContext& Runtime::register_thread() {
  ThreadContext& ctx = registry_.register_thread(this);
  if (cfg_.telemetry != nullptr) {
    ctx.telem = cfg_.telemetry->attach(ctx.id);
    HT_TELEM_EVENT(ctx, kThreadStart, ctx.point_index, 0, 0);
  }
  return ctx;
}

void Runtime::unregister_thread(ThreadContext& ctx) {
  HT_ASSERT(!ctx.in_region, "thread exiting inside an SBRS region");
  // Thread exit has release semantics: flush held states and bump, so that
  // other threads' conservative current-counter edges cover this thread's
  // final accesses. The replayer mirrors this bump at thread end
  // (deterministic, so it is not logged).
  //
  // A quarantined thread must NOT flush: its buffered locks point at state
  // words survivors already seized — drop them instead.
  if (ctx.quarantined_self || thread_quarantined(ctx.id)) {
    ctx.quarantined_self = true;
    ctx.lock_buffer.clear();
    ctx.rd_set.clear();
  } else {
    ctx.run_flush_hook();
  }
  ctx.owner_side.release_counter.fetch_add(1, std::memory_order_release);
  ctx.run_region_log_hook();  // recorder: deterministic bump -> region mark
  registry_.mark_exited(ctx);
  // Answer any stragglers that ticketed before seeing the parked status.
  // The exit event carries the answered watermark range (before, after] so
  // offline span stitching can bind those tickets to this exit.
  const std::uint64_t req =
      ctx.requester_side.request_tickets.load(std::memory_order_acquire);
  const std::uint64_t wm_before =
      ctx.owner_side.response_watermark.load(std::memory_order_relaxed);
  if (req > wm_before) {
    ctx.owner_side.response_watermark.store(req, std::memory_order_release);
  }
  HT_TELEM_EVENT(ctx, kThreadExit, ctx.release_counter_relaxed(),
                 req > wm_before ? req : wm_before, wm_before);
  // Batch stragglers likewise: answered by the exit flush-and-bump above.
  drain_mailbox(ctx, ctx, ctx.release_counter_relaxed());
}

void Runtime::psro(ThreadContext& ctx) {
  HT_ASSERT(!ctx.in_region, "PSRO inside an SBRS region");
  ++ctx.point_index;
  // Under the stuck_death fault model a dead thread reaches no further safe
  // point of any flavor: no flush, no lease renewal, no response. Its
  // deferred locks therefore stay stuck — which is what lets the watchdog
  // see the stall and the sweep reclaim them (DESIGN.md §11).
  if (injector_ != nullptr && injector_->thread_fully_stuck(ctx.id)) return;
  ++ctx.stats.psros;
  renew_lease(ctx);
  ctx.run_flush_hook();
  ctx.owner_side.release_counter.fetch_add(1, std::memory_order_release);
  ctx.run_region_log_hook();  // recorder: deterministic bump -> region mark
  // Pending requests are satisfied by the flush we just performed; the PSRO
  // bump doubles as the responding bump, so no extra increment and no
  // response log entry (the PSRO bump is deterministic — DESIGN.md §4.4).
  // The PSRO event carries the answered watermark range (before, after] for
  // offline span stitching, so it is emitted after the publish.
  const std::uint64_t req =
      ctx.requester_side.request_tickets.load(std::memory_order_acquire);
  const std::uint64_t wm_before =
      ctx.owner_side.response_watermark.load(std::memory_order_relaxed);
  if (req > wm_before) {
    ctx.owner_side.response_watermark.store(req, std::memory_order_release);
    ++ctx.stats.responding_safepoints;
  }
  HT_TELEM_EVENT(ctx, kPsro, ctx.release_counter_relaxed(),
                 req > wm_before ? req : wm_before, wm_before);
  // Batch requests are equally satisfied by the PSRO's flush-and-bump.
  drain_mailbox(ctx, ctx, ctx.release_counter_relaxed());
}

void Runtime::respond(ThreadContext& ctx) {
  const std::uint64_t req =
      ctx.requester_side.request_tickets.load(std::memory_order_acquire);
  const std::uint64_t wm_before =
      ctx.owner_side.response_watermark.load(std::memory_order_relaxed);
  const bool scalar = req > wm_before;
  if (!scalar && !ctx.batch_requests_pending()) return;
  ctx.run_abort_hook();  // enforcer: roll back region writes while still owner
  ctx.run_flush_hook();  // hybrid: deferred unlocking's buffer flush
  ctx.owner_side.release_counter.fetch_add(1, std::memory_order_release);
  if (scalar) {
    ctx.owner_side.response_watermark.store(req, std::memory_order_release);
  }
  // One safe-point visit answers the whole mailbox backlog, each node
  // stamped with the same post-bump counter (DESIGN.md §13).
  drain_mailbox(ctx, ctx, ctx.release_counter_relaxed());
  ++ctx.stats.responding_safepoints;
  // arg1/arg2 = watermark after/before: the tickets in (before, after] were
  // answered by exactly this response (offline span stitching, §14).
  HT_TELEM_EVENT(ctx, kSafePointResponse, ctx.release_counter_relaxed(),
                 scalar ? req : wm_before, wm_before);
  ctx.run_resp_log_hook();  // recorder: nondeterministic bump -> log it
}

void Runtime::drain_mailbox(ThreadContext& recorder, ThreadContext& ctx,
                            std::uint64_t src_release) {
  (void)recorder;  // only the telemetry build records on its ring
  if (!ctx.batch_requests_pending()) return;
  // Exclusive-consumer gate: the owner at a safe point and a quarantining
  // thread releasing the owner's backlog may race here; the loser leaves the
  // backlog to the winner (whose counter stamp is equally valid — both
  // postdate every program access the owner performed before this point).
  bool expected = false;
  if (!ctx.mailbox.draining.compare_exchange_strong(
          expected, true, std::memory_order_acquire,
          std::memory_order_relaxed)) {
    return;
  }
  for (CoordBatchNode* n = ctx.mailbox.queue.drain(); n != nullptr;) {
    // The consumed store frees the node for reuse by its requester — read
    // the link (and the span fields the event needs) first, and never touch
    // the node after the store.
    CoordBatchNode* next = n->next;
    HT_TELEM_EVENT(recorder, kCoordBatchDrain, n->span_id, n->requester,
                   n->objects);
    n->src_release.store(src_release, std::memory_order_relaxed);
    n->consumed.store(true, std::memory_order_release);
    n = next;
  }
  ctx.mailbox.draining.store(false, std::memory_order_release);
}

bool Runtime::poll_fault_suppressed(ThreadContext& ctx) {
  return injector_->at_safe_point(ctx.id);
}

void Runtime::slow_path_fault(ThreadContext& ctx) {
  injector_->at_slow_path(ctx.id);
}

void Runtime::begin_blocking(ThreadContext& ctx) {
  HT_ASSERT(!ctx.in_region, "blocking operation inside an SBRS region");
  std::uint64_t s = ctx.owner_side.status.load(std::memory_order_relaxed);
  if (ThreadStatus::is_quarantined(s)) quarantined_self_park(ctx);
  HT_ASSERT(!ThreadStatus::is_blocked(s), "begin_blocking while blocked");
  // stuck_death: the thread parks on the program primitive without ever
  // publishing BLOCKED (or flushing), so coordination against it must go the
  // explicit route and stall — survivors see a stuck peer, not a parked one.
  // Death only flips at poll probes, so it cannot change between this check
  // and the matching end_blocking's.
  if (injector_ != nullptr && injector_->thread_fully_stuck(ctx.id)) return;
  // Blocking is a responding safe point (§2.2): flush and bump BEFORE
  // publishing BLOCKED, so implicit coordinators find no held locks and read
  // a counter value covering all our prior accesses.
  renew_lease(ctx);
  ctx.run_flush_hook();
  ctx.owner_side.release_counter.fetch_add(1, std::memory_order_release);
  ++ctx.stats.responding_safepoints;
  // Stragglers that ticketed before this flush are satisfied by it; publish
  // the watermark before parking (same ordering as respond() — tickets taken
  // after this load resolve implicitly once BLOCKED is visible) so the enter
  // event can carry the answered range for offline span stitching.
  const std::uint64_t req =
      ctx.requester_side.request_tickets.load(std::memory_order_acquire);
  const std::uint64_t wm_before =
      ctx.owner_side.response_watermark.load(std::memory_order_relaxed);
  if (req > wm_before) {
    ctx.owner_side.response_watermark.store(req, std::memory_order_release);
  }
  HT_TELEM_EVENT(ctx, kBlockingEnter, ctx.release_counter_relaxed(),
                 req > wm_before ? req : wm_before, wm_before);
  ctx.run_resp_log_hook();
  // Publish BLOCKED with a CAS: a concurrent quarantine_thread may have
  // flipped the status since we loaded it, and a plain store would clobber
  // the terminal Quarantined word. Only quarantine can intervene here — no
  // requester CASes a non-blocked status — so one failure is conclusive.
  while (!ctx.owner_side.status.compare_exchange_weak(
      s, s | ThreadStatus::kBlockedBit, std::memory_order_release,
      std::memory_order_relaxed)) {
    if (ThreadStatus::is_quarantined(s)) quarantined_self_park(ctx);
  }
  // Batch stragglers that posted before observing BLOCKED, same deal.
  drain_mailbox(ctx, ctx, ctx.release_counter_relaxed());
}

void Runtime::end_blocking(ThreadContext& ctx) {
  // Requesters may be CASing the epoch up concurrently; loop until our
  // RUNNING transition lands. A late-waking thread that was quarantined
  // while parked observes the terminal bit here and must never CAS itself
  // back to running — it self-parks instead (the quarantine CAS contract).
  std::uint64_t s = ctx.owner_side.status.load(std::memory_order_relaxed);
  // stuck_death: the matching begin_blocking never published BLOCKED (same
  // check; death is stable between the two), so there is nothing to undo —
  // but a quarantine that landed meanwhile still parks us.
  if (injector_ != nullptr && injector_->thread_fully_stuck(ctx.id)) {
    if (ThreadStatus::is_quarantined(s)) quarantined_self_park(ctx);
    return;
  }
  for (;;) {
    if (ThreadStatus::is_quarantined(s)) quarantined_self_park(ctx);
    HT_DASSERT(ThreadStatus::is_blocked(s), "end_blocking while running");
    const std::uint64_t running =
        ThreadStatus::make(ThreadStatus::epoch(s) + 1, /*blocked=*/false);
    if (ctx.owner_side.status.compare_exchange_weak(
            s, running, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      break;
    }
  }
  renew_lease(ctx);
  HT_TELEM_EVENT(ctx, kBlockingExit, ctx.release_counter_relaxed(), 0, 0);
  // Wake-up is a responding safe point for requests that arrived while we
  // were parked but whose senders did not use implicit coordination.
  if (ctx.requests_pending() || ctx.batch_requests_pending()) respond(ctx);
}

void Runtime::quarantined_self_park(ThreadContext& ctx) {
  ctx.quarantined_self = true;
  // Owned per-object states were (or are being) seized via the Int
  // protocol; the buffered locks are no longer ours to unlock. Drop them.
  ctx.lock_buffer.clear();
  ctx.rd_set.clear();
  // Release any batch requesters still posted to us. Quarantine semantics
  // match scalar implicit coordination with a quarantined owner: the edge
  // value is our current counter, the state handoff happens by seizure.
  drain_mailbox(ctx, ctx, ctx.release_counter_relaxed());
  throw ThreadQuarantined{ctx.id};
}

bool Runtime::quarantine_thread(ThreadContext& self, ThreadId victim) {
  HT_ASSERT(victim != self.id, "self-quarantine");
  ThreadContext& remote = registry_.context(victim);
  std::uint64_t st = remote.owner_side.status.load(std::memory_order_acquire);
  if (ThreadStatus::is_quarantined(st) ||
      remote.exited.load(std::memory_order_relaxed)) {
    return false;
  }
  const std::uint64_t q =
      ThreadStatus::make_quarantined(ThreadStatus::epoch(st) + 1);
  if (!remote.owner_side.status.compare_exchange_strong(
          st, q, std::memory_order_acq_rel, std::memory_order_acquire)) {
    // The victim's status moved under us — its lease was effectively
    // renewed, so the quarantine is off. The caller rearms its stall clock.
    return false;
  }
  quarantined_count_.fetch_add(1, std::memory_order_acq_rel);
  // Release every waiter with an issued ticket. The state handoff a flush
  // would have performed happens through seizure instead (the on_quarantine
  // hook, or each survivor's lazy seizure of Int/locked states). CAS-max so
  // a concurrent straggler store by the not-yet-parked victim cannot move
  // the watermark backwards past us.
  const std::uint64_t req =
      remote.requester_side.request_tickets.load(std::memory_order_acquire);
  std::uint64_t wm =
      remote.owner_side.response_watermark.load(std::memory_order_relaxed);
  while (wm < req &&
         !remote.owner_side.response_watermark.compare_exchange_weak(
             wm, req, std::memory_order_release, std::memory_order_relaxed)) {
  }
  // Release the victim's batch waiters too, stamped with its current
  // counter — the same value the implicit path reads from a quarantined
  // owner. The draining flag keeps this from racing a not-yet-parked victim
  // consuming its own mailbox. The drain events land on OUR ring (`self` is
  // the executing thread; the victim's ring is not ours to write).
  drain_mailbox(self, remote,
                remote.owner_side.release_counter.load(
                    std::memory_order_acquire));
  HT_TELEM_EVENT(self, kQuarantine, victim, ThreadStatus::epoch(q), req);
  if (cfg_.resilience.on_quarantine) {
    cfg_.resilience.on_quarantine(self, remote);
  }
  return true;
}

namespace {

// Owner-progress fingerprint for the watchdog. Any change — a poll, a
// heartbeat, a release-counter bump, a status transition, a watermark
// advance — counts as progress and resets the stall clock.
struct ProgressFingerprint {
  std::uint64_t last_poll = 0;
  std::uint64_t heartbeat = 0;
  std::uint64_t release_counter = 0;
  std::uint64_t status = 0;
  std::uint64_t watermark = 0;

  bool operator==(const ProgressFingerprint&) const = default;

  static ProgressFingerprint of(const ThreadContext& t) {
    return {t.owner_side.last_poll.load(std::memory_order_relaxed),
            t.owner_side.heartbeat.load(std::memory_order_relaxed),
            t.owner_side.release_counter.load(std::memory_order_relaxed),
            t.owner_side.status.load(std::memory_order_relaxed),
            t.owner_side.response_watermark.load(std::memory_order_relaxed)};
  }
};

}  // namespace

std::optional<Runtime::CoordResult> Runtime::coordinate_impl(
    ThreadContext& self, ThreadId owner, std::uint64_t max_epochs) {
  HT_ASSERT(owner != self.id, "self-coordination");
  ThreadContext& remote = registry_.context(owner);
  ++self.stats.coordination_rounds;
  HT_TELEM_CYCLES(telem_t0);

  // Fast path: implicit coordination with a blocked owner (§2.2). The CAS on
  // the epoch proves the owner is parked beyond its flush-and-bump.
  std::uint64_t st = remote.owner_side.status.load(std::memory_order_acquire);
  if (ThreadStatus::is_blocked(st)) {
    if (remote.owner_side.status.compare_exchange_strong(
            st, ThreadStatus::bump_epoch(st), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      HT_TELEM_ELAPSED(self, kCoordRoundTrip, telem_t0, owner, 1);
      return CoordResult{
          remote.owner_side.release_counter.load(std::memory_order_acquire),
          /*implicit=*/true};
    }
  }

  // Explicit request: take a ticket, wait for the owner's watermark to pass
  // it. While waiting we are ourselves a safe point (Fig 1 line 18).
  const std::uint64_t ticket =
      remote.requester_side.request_tickets.fetch_add(
          1, std::memory_order_acq_rel) +
      1;
  // Span open (§14): identity is (owner, ticket); the matching close is this
  // thread's kCoordRoundTrip, the owner half joins by watermark range.
  HT_TELEM_EVENT(self, kCoordRequest, ticket, owner, 0);
  const WatchdogConfig& wd = cfg_.watchdog;
  const bool police = max_epochs == 0 && wd.enabled;
  // Jitter the sleep ticks by requester id: coordinators whose leases on the
  // same stalled owner expire together must not re-request in lockstep.
  Backoff backoff(/*spins_before_yield=*/2, /*yields_before_sleep=*/64,
                  wd.backoff_max_sleep_us,
                  /*jitter_seed=*/0x9E3779B9u * (self.id + 1));
  std::uint64_t epochs = 0;
  std::uint64_t stalled_epochs = 0;
  std::uint32_t dumps = 0;
  ProgressFingerprint last = ProgressFingerprint::of(remote);
  for (;;) {
    if (remote.owner_side.response_watermark.load(std::memory_order_acquire) >=
        ticket) {
      HT_TELEM_ELAPSED(self, kCoordRoundTrip, telem_t0, owner, 0);
      return CoordResult{
          remote.owner_side.release_counter.load(std::memory_order_acquire),
          /*implicit=*/false};
    }
    st = remote.owner_side.status.load(std::memory_order_acquire);
    if (ThreadStatus::is_blocked(st) &&
        remote.owner_side.status.compare_exchange_strong(
            st, ThreadStatus::bump_epoch(st), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      // Owner blocked after our ticket; our abandoned ticket is harmless
      // (the watermark scheme answers it at the owner's next safe point).
      HT_TELEM_ELAPSED(self, kCoordRoundTrip, telem_t0, owner, 1);
      return CoordResult{
          remote.owner_side.release_counter.load(std::memory_order_acquire),
          /*implicit=*/true};
    }
    respond_while_waiting(self);  // may throw RegionRestart; wait point
    // Under a virtual scheduler the wait point above already yielded the
    // virtual CPU; OS backoff on top would only burn wall time.
    if (!schedule::virtualized()) backoff.pause();
    ++epochs;
    if (max_epochs != 0 && epochs >= max_epochs) {
      // Bounded wait expired. The abandoned ticket stays harmless: it is
      // below the owner's watermark after its next responding safe point.
      return std::nullopt;
    }
    if (police) {
      const ProgressFingerprint now = ProgressFingerprint::of(remote);
      if (now != last) {
        last = now;
        stalled_epochs = 0;
      } else if (++stalled_epochs >= wd.stall_epochs) {
        // The owner's liveness lease expired: a full stall window passed
        // with no heartbeat, poll, response, or status movement.
        HT_TELEM_EVENT(self, kLeaseExpired, owner, ticket, stalled_epochs);
        CoordStallDiagnostic diag = build_stall_diagnostic(
            self, remote, ticket, epochs, stalled_epochs);
        if (dumps < wd.max_dumps) {
          emit_stall_diagnostic(diag);
          ++dumps;
        }
        if (wd.on_stall == WatchdogConfig::OnStall::kFailFast) {
          throw CoordinationStalled{std::move(diag)};
        }
        if (wd.on_stall == WatchdogConfig::OnStall::kQuarantine) {
          // Escalate: flip the silent owner to terminal Quarantined.
          // Success publishes its watermark past our ticket (the next loop
          // iteration returns); failure proves the owner progressed after
          // the fingerprint was taken, so rearming the clock is correct.
          quarantine_thread(self, owner);
          last = ProgressFingerprint::of(remote);
        }
        stalled_epochs = 0;  // kContinue/kQuarantine: rearm the stall clock
      }
    }
  }
}

Runtime::CoordResult Runtime::coordinate(ThreadContext& self, ThreadId owner) {
  // Unbounded wait never returns nullopt (it either completes or throws).
  return *coordinate_impl(self, owner, /*max_epochs=*/0);
}

std::optional<Runtime::CoordResult> Runtime::coordinate_bounded(
    ThreadContext& self, ThreadId owner, std::uint64_t max_epochs) {
  HT_ASSERT(max_epochs > 0, "bounded coordination needs a nonzero bound");
  return coordinate_impl(self, owner, max_epochs);
}

Runtime::CoordResult Runtime::coordinate_batch(ThreadContext& self,
                                               ThreadId owner,
                                               std::uint32_t n_objects) {
  BatchGroup g{owner, n_objects == 0 ? 1u : n_objects, {}};
  coordinate_batch_multi(self, &g, 1);
  return g.result;
}

void Runtime::coordinate_batch_multi(ThreadContext& self, BatchGroup* groups,
                                     std::size_t n) {
  HT_ASSERT(n <= kMaxBatchGroups, "batch group overflow");
  HT_TELEM_CYCLES(telem_t0);

  const auto finish = [&](BatchGroup& g) {
    // Batch accounting covers every exit uniformly: even the scalar
    // fallback answers all n_objects in the one flush-and-bump visit, so it
    // still counts as one batched round (requester-side only — a
    // quarantiner draining a victim's mailbox must never touch the victim's
    // non-atomic stats).
    ++self.stats.coord_batch_rounds;
    self.stats.coord_batch_objects += g.n_objects;
    HT_TELEM_EVENT(self, kCoordBatch, g.n_objects, g.owner,
                   g.result.implicit ? 1 : 0);
  };

  // Scatter phase: resolve parked owners implicitly, post one mailbox node
  // to every running owner. The implicit fast path is checked BEFORE
  // posting: coordination with a parked owner needs no mailbox traffic, and
  // not posting keeps a permanently-parked (exited, quarantined) owner's
  // mailbox from accumulating abandoned nodes.
  CoordBatchNode* nodes[kMaxBatchGroups];
  bool resolved[kMaxBatchGroups];
  std::size_t pending = 0;   // posted, awaiting drain
  bool deferred = false;     // pool-exhausted groups, settled scalar below
  for (std::size_t i = 0; i < n; ++i) {
    BatchGroup& g = groups[i];
    HT_ASSERT(g.owner != self.id, "self-coordination");
    nodes[i] = nullptr;
    resolved[i] = false;
    ThreadContext& remote = registry_.context(g.owner);
    std::uint64_t st =
        remote.owner_side.status.load(std::memory_order_acquire);
    if (ThreadStatus::is_blocked(st) &&
        remote.owner_side.status.compare_exchange_strong(
            st, ThreadStatus::bump_epoch(st), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      g.result = CoordResult{
          remote.owner_side.release_counter.load(std::memory_order_acquire),
          /*implicit=*/true};
      resolved[i] = true;
      ++self.stats.coordination_rounds;
      HT_TELEM_ELAPSED(self, kCoordRoundTrip, telem_t0, g.owner, 1);
      finish(g);
      continue;
    }
    CoordBatchNode* node = self.claim_batch_node();
    if (node == nullptr) {
      // Every pool node is still in flight (abandoned to mailboxes nobody
      // has drained yet). One scalar round trip still covers all the
      // group's objects: a response is a whole-buffer flush either way.
      deferred = true;
      continue;
    }
    node->requester = self.id;
    node->objects = g.n_objects;
    node->span_id = ++self.coord_span_counter;
    node->src_release.store(0, std::memory_order_relaxed);
    // Marks the node in flight, so the next claim_batch_node() in this very
    // loop picks a different one.
    node->consumed.store(false, std::memory_order_relaxed);
    // Span open (§14): identity is (requester, span id); whoever drains the
    // node echoes the id in a kCoordBatchDrain on its own ring.
    HT_TELEM_EVENT(self, kCoordRequest, node->span_id, g.owner, 1);
    remote.mailbox.queue.push(node);  // the push's CAS releases the fills
    ++self.stats.coordination_rounds;
    nodes[i] = node;
    ++pending;
  }

  // Gather phase: wait for every posted node's drain (consumed, acquire) or
  // for its owner to park (implicit exit; the posted node is abandoned and
  // recycles at the next drain). Unwinding exits (RegionRestart from
  // responding, quarantine) abandon all pending nodes the same way.
  // Watchdog policing mirrors coordinate_impl, aimed at the first
  // unresolved owner and re-aimed as owners resolve: the mailbox is an
  // alternate request channel, not an alternate failure model.
  const WatchdogConfig& wd = cfg_.watchdog;
  const bool police = wd.enabled;
  Backoff backoff(/*spins_before_yield=*/2, /*yields_before_sleep=*/64,
                  wd.backoff_max_sleep_us,
                  /*jitter_seed=*/0x9E3779B9u * (self.id + 1));
  std::uint64_t epochs = 0;
  std::uint64_t stalled_epochs = 0;
  std::uint32_t dumps = 0;
  std::size_t policed = kMaxBatchGroups;  // sentinel: none yet
  ProgressFingerprint last{};
  while (pending != 0) {
    for (std::size_t i = 0; i < n && pending != 0; ++i) {
      if (resolved[i] || nodes[i] == nullptr) continue;
      BatchGroup& g = groups[i];
      ThreadContext& remote = registry_.context(g.owner);
      if (nodes[i]->consumed.load(std::memory_order_acquire)) {
        // Only this thread claims from its own pool, so the node's stamp
        // is stable until our next claim_batch_node().
        g.result = CoordResult{
            nodes[i]->src_release.load(std::memory_order_relaxed),
            /*implicit=*/false};
        resolved[i] = true;
        --pending;
        HT_TELEM_ELAPSED(self, kCoordRoundTrip, telem_t0, g.owner, 0);
        finish(g);
        continue;
      }
      std::uint64_t st =
          remote.owner_side.status.load(std::memory_order_acquire);
      if (ThreadStatus::is_blocked(st) &&
          remote.owner_side.status.compare_exchange_strong(
              st, ThreadStatus::bump_epoch(st), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        g.result = CoordResult{
            remote.owner_side.release_counter.load(std::memory_order_acquire),
            /*implicit=*/true};
        resolved[i] = true;
        --pending;
        HT_TELEM_ELAPSED(self, kCoordRoundTrip, telem_t0, g.owner, 1);
        finish(g);
      }
    }
    if (pending == 0) break;
    respond_while_waiting(self);  // may throw RegionRestart; wait point
    // Under a virtual scheduler the wait point above already yielded the
    // virtual CPU; OS backoff on top would only burn wall time.
    if (!schedule::virtualized()) backoff.pause();
    ++epochs;
    if (police) {
      std::size_t target = kMaxBatchGroups;
      for (std::size_t i = 0; i < n; ++i) {
        if (!resolved[i] && nodes[i] != nullptr) {
          target = i;
          break;
        }
      }
      if (target == kMaxBatchGroups) continue;
      ThreadContext& remote = registry_.context(groups[target].owner);
      if (target != policed) {
        policed = target;
        last = ProgressFingerprint::of(remote);
        stalled_epochs = 0;
        continue;
      }
      const ProgressFingerprint now = ProgressFingerprint::of(remote);
      if (now != last) {
        last = now;
        stalled_epochs = 0;
      } else if (++stalled_epochs >= wd.stall_epochs) {
        HT_TELEM_EVENT(self, kLeaseExpired, groups[target].owner, 0,
                       stalled_epochs);
        CoordStallDiagnostic diag = build_stall_diagnostic(
            self, remote, /*ticket=*/0, epochs, stalled_epochs);
        if (dumps < wd.max_dumps) {
          emit_stall_diagnostic(diag);
          ++dumps;
        }
        if (wd.on_stall == WatchdogConfig::OnStall::kFailFast) {
          throw CoordinationStalled{std::move(diag)};
        }
        if (wd.on_stall == WatchdogConfig::OnStall::kQuarantine) {
          // Success drains the victim's mailbox (our node included) and
          // flips it to blocked-terminal, so the next sweep resolves it.
          quarantine_thread(self, groups[target].owner);
          last = ProgressFingerprint::of(remote);
        }
        stalled_epochs = 0;
      }
    }
  }

  if (deferred) {
    for (std::size_t i = 0; i < n; ++i) {
      if (resolved[i] || nodes[i] != nullptr) continue;
      BatchGroup& g = groups[i];
      g.result = *coordinate_impl(self, g.owner, /*max_epochs=*/0);
      resolved[i] = true;
      finish(g);
    }
  }
}

bool Runtime::coordinate_all_others(ThreadContext& self) {
  bool any_explicit = false;
  const ThreadId n = registry_.high_water();
  for (ThreadId t = 0; t < n; ++t) {
    if (t == self.id) continue;
    if (!coordinate(self, t).implicit) any_explicit = true;
  }
  return any_explicit;
}

// --- diagnostics ---------------------------------------------------------------

ThreadLivenessSample Runtime::sample_thread(ThreadId id) const {
  const ThreadContext& t = registry_.context(id);
  ThreadLivenessSample s;
  s.id = id;
  const std::uint64_t status =
      t.owner_side.status.load(std::memory_order_acquire);
  s.blocked = ThreadStatus::is_blocked(status);
  s.quarantined = ThreadStatus::is_quarantined(status);
  s.exited = t.exited.load(std::memory_order_relaxed);
  s.status_epoch = ThreadStatus::epoch(status);
  s.last_poll = t.owner_side.last_poll.load(std::memory_order_relaxed);
  s.heartbeat = t.owner_side.heartbeat.load(std::memory_order_relaxed);
  s.release_counter =
      t.owner_side.release_counter.load(std::memory_order_relaxed);
  s.request_tickets =
      t.requester_side.request_tickets.load(std::memory_order_relaxed);
  s.response_watermark =
      t.owner_side.response_watermark.load(std::memory_order_relaxed);
  return s;
}

std::vector<ThreadLivenessSample> Runtime::sample_all_threads() const {
  std::vector<ThreadLivenessSample> v;
  const ThreadId n = registry_.high_water();
  v.reserve(n);
  for (ThreadId t = 0; t < n; ++t) v.push_back(sample_thread(t));
  return v;
}

CoordStallDiagnostic Runtime::build_stall_diagnostic(
    const ThreadContext& self, const ThreadContext& remote,
    std::uint64_t ticket, std::uint64_t waited_epochs,
    std::uint64_t stalled_epochs) const {
  CoordStallDiagnostic d;
  d.requester = self.id;
  d.owner = remote.id;
  d.ticket = ticket;
  d.waited_epochs = waited_epochs;
  d.stalled_epochs = stalled_epochs;
  d.owner_sample = sample_thread(remote.id);
  d.threads = sample_all_threads();
  return d;
}

void Runtime::emit_stall_diagnostic(const CoordStallDiagnostic& diag) const {
  if (cfg_.watchdog.sink) {
    cfg_.watchdog.sink(diag);
    return;
  }
  std::fprintf(stderr, "%s\n", diag.to_string().c_str());
}

namespace {

void append_sample(std::ostringstream& out, const ThreadLivenessSample& s) {
  // Status first (the stalled thread's current ThreadStatus), then where it
  // stopped responding: its last poll site and last heartbeat epoch.
  out << "T" << s.id << ": "
      << (s.exited        ? "exited"
          : s.quarantined ? "quarantined"
          : s.blocked     ? "blocked"
                          : "running")
      << " last_poll=" << s.last_poll << " heartbeat=" << s.heartbeat
      << " release=" << s.release_counter << " epoch=" << s.status_epoch
      << " pending=" << s.pending_requests()
      << " (tickets=" << s.request_tickets
      << " watermark=" << s.response_watermark << ")";
}

}  // namespace

std::string CoordStallDiagnostic::to_string() const {
  std::ostringstream out;
  out << "[watchdog] coordination stall: T" << requester << " waiting on T"
      << owner << " (ticket " << ticket << ", " << stalled_epochs
      << " epochs without owner progress, " << waited_epochs
      << " epochs total)\n  owner ";
  append_sample(out, owner_sample);
  out << "\n  all threads:";
  for (const ThreadLivenessSample& s : threads) {
    out << "\n    ";
    append_sample(out, s);
  }
  return out.str();
}

}  // namespace ht

