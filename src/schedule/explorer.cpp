#include "schedule/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/transition_checker.hpp"
#include "analysis/transition_model.hpp"
#include "common/assert.hpp"
#include "resilience/quarantine.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sync.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/ideal_tracker.hpp"
#include "tracking/optimistic_tracker.hpp"
#include "tracking/pessimistic_tracker.hpp"
#include "tracking/tracked_var.hpp"

namespace ht::schedule {

// ==== names ==================================================================

const char* family_name(Family f) {
  switch (f) {
    case Family::kPessimistic: return "pessimistic";
    case Family::kOptimistic: return "optimistic";
    case Family::kHybrid: return "hybrid";
    case Family::kIdeal: return "ideal";
  }
  return "?";
}

std::optional<Family> family_from_name(const std::string& name) {
  if (name == "pessimistic" || name == "pess") return Family::kPessimistic;
  if (name == "optimistic" || name == "opt") return Family::kOptimistic;
  if (name == "hybrid") return Family::kHybrid;
  if (name == "ideal") return Family::kIdeal;
  return std::nullopt;
}

const char* run_status_name(VirtualScheduler::RunStatus s) {
  switch (s) {
    case VirtualScheduler::RunStatus::kRunning: return "running";
    case VirtualScheduler::RunStatus::kComplete: return "complete";
    case VirtualScheduler::RunStatus::kDeadlock: return "deadlock";
    case VirtualScheduler::RunStatus::kStepLimit: return "step-limit";
    case VirtualScheduler::RunStatus::kPruned: return "pruned";
  }
  return "?";
}

std::string trace_to_string(const std::vector<Slot>& trace) {
  std::string s;
  s.reserve(trace.size() * 2);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i != 0) s += ' ';
    s += std::to_string(trace[i]);
  }
  return s;
}

std::string ScheduleViolation::to_string() const {
  std::ostringstream os;
  os << what << "\n  schedule #" << schedule_index;
  if (seed != 0) os << " (seed " << seed << ")";
  os << "\n  trace: " << trace_to_string(trace);
  return os.str();
}

// ==== StatePairOracle ========================================================

namespace {

analysis::TrackerFamily to_analysis(Family f) {
  switch (f) {
    case Family::kPessimistic: return analysis::TrackerFamily::kPessAlone;
    case Family::kOptimistic: return analysis::TrackerFamily::kOptimistic;
    case Family::kHybrid: return analysis::TrackerFamily::kHybrid;
    case Family::kIdeal: return analysis::TrackerFamily::kIdeal;
  }
  return analysis::TrackerFamily::kHybrid;
}

}  // namespace

StatePairOracle::StatePairOracle(Family f) : family_(f) {
  using Matrix = std::array<std::array<bool, kKinds>, kKinds>;
  // Access edges: identity (fast paths, reentrant rows, kind-preserving
  // ownership handoffs, Int -> Int across a multi-round coordination wait)
  // plus every rule edge, with via-Int rules additionally split around a
  // park inside the requester's coordination wait.
  Matrix access{};
  // Unlock edges: identity plus the deferred-unlock flush rows. A flush can
  // piggyback on any step — served while responding inside the step's own
  // coordination wait (before its access lands) and/or at the trailing
  // safe-point poll (after it) — so one step's net edge on an object is
  // (unlock?; access?; unlock?) composed.
  Matrix unlock{};
  for (std::size_t k = 0; k < kKinds; ++k) {
    access[k][k] = true;
    unlock[k][k] = true;
  }
  const auto add = [](Matrix& m, StateKind a, StateKind b) {
    m[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
  };
  for (const analysis::TransitionRule& r :
       analysis::transition_rules(to_analysis(f))) {
    if (r.outcome.kind != analysis::OutcomeKind::kTransition) continue;
    if (r.access == analysis::AccessKind::kUnlock) {
      add(unlock, r.from, r.outcome.to);
      continue;
    }
    add(access, r.from, r.outcome.to);
    if (r.outcome.begins_coordination) {
      add(access, r.from, StateKind::kInt);
      add(access, StateKind::kInt, r.outcome.to);
    }
  }
  const auto compose = [](const Matrix& first, const Matrix& second) {
    Matrix z{};
    for (std::size_t i = 0; i < kKinds; ++i) {
      for (std::size_t k = 0; k < kKinds; ++k) {
        if (!first[i][k]) continue;
        for (std::size_t j = 0; j < kKinds; ++j) {
          if (second[k][j]) z[i][j] = true;
        }
      }
    }
    return z;
  };
  allowed_ = compose(unlock, compose(access, unlock));
}

void StatePairOracle::forbid(StateKind from, StateKind to) {
  allowed_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)] =
      false;
}

void StatePairOracle::widen_for_quarantine() {
  const auto allow = [&](StateKind a, StateKind b) {
    allowed_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
  };
  // A quarantined victim can own exactly the locked kinds and Int. A seizure
  // walks victim-state -> Int(seizer) -> landing, and the seizer's very next
  // action in the same step may re-acquire the landed state — so from any
  // seizable source, any landing or re-acquired locked kind (or a park
  // inside the seizer's own follow-up coordination, hence Int) is a legal
  // net per-step edge.
  constexpr StateKind kSeizable[] = {
      StateKind::kWrExWLock, StateKind::kWrExRLock, StateKind::kRdExRLock,
      StateKind::kRdShRLock, StateKind::kInt};
  constexpr StateKind kSeized[] = {
      StateKind::kInt,       StateKind::kWrExPess,  StateKind::kRdExPess,
      StateKind::kRdShPess,  StateKind::kWrExOpt,   StateKind::kWrExWLock,
      StateKind::kWrExRLock, StateKind::kRdExRLock, StateKind::kRdShRLock};
  for (StateKind a : kSeizable) {
    for (StateKind b : kSeized) allow(a, b);
  }
  // Abandoned coordination: the victim's IntGuard restores Int back to the
  // conflict's from state when it self-parks mid-wait, so Int -> from is net
  // visible for every rule that begins a coordination.
  for (const analysis::TransitionRule& r :
       analysis::transition_rules(to_analysis(family_))) {
    if (r.outcome.kind != analysis::OutcomeKind::kTransition) continue;
    if (r.outcome.begins_coordination) allow(StateKind::kInt, r.from);
  }
}

void StatePairOracle::observe(const StateChange& c) {
  const auto f = static_cast<std::size_t>(c.from.kind());
  const auto t = static_cast<std::size_t>(c.to.kind());
  if (f < kKinds && t < kKinds && allowed_[f][t]) return;
  ++violations_;
  if (first_.empty()) {
    std::ostringstream os;
    os << "illegal kind succession on obj " << c.obj << " during slot "
       << c.slot << "'s step: " << c.from.to_string() << " -> "
       << c.to.to_string();
    first_ = os.str();
  }
}

void StatePairOracle::reset() {
  violations_ = 0;
  first_.clear();
}

// ==== worker pool ============================================================

namespace detail {

// Persistent OS threads reused across the thousands of re-executions a DFS
// performs; thread creation would otherwise dominate exploration time.
class WorkerPool {
 public:
  explicit WorkerPool(int n) {
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { worker(i); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> g(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Runs job(slot) on every worker and waits for all of them to return.
  void run_all(const std::function<void(int)>& job) {
    std::unique_lock<std::mutex> g(mu_);
    job_ = &job;
    remaining_ = static_cast<int>(threads_.size());
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(g, [&] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker(int slot) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> g(mu_);
    for (;;) {
      cv_.wait(g, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      const std::function<void(int)>* job = job_;
      g.unlock();
      (*job)(slot);
      g.lock();
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  const std::function<void(int)>* job_ = nullptr;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace detail

// ==== program executor =======================================================

namespace {

bool is_access(OpKind k) {
  return k == OpKind::kLoad || k == OpKind::kStore || k == OpKind::kStoreReg;
}

struct RunWorld {
  const Program* prog = nullptr;
  const RunConfig* rc = nullptr;
  Family family = Family::kHybrid;
  Runtime* rt = nullptr;
  VirtualScheduler* sched = nullptr;
  RaceDetector* detector = nullptr;
  std::vector<TrackedVar<std::uint64_t>>* vars = nullptr;
  std::vector<RaceCheckedMeta>* rmeta = nullptr;
  std::deque<ProgramLock>* locks = nullptr;
  std::vector<std::uint64_t>* load_sum = nullptr;
  std::atomic<std::uint64_t>* op_seq = nullptr;
};

// One worker's whole run: attach, register as ThreadId == slot, execute one
// op per grant with footprint detection, detach. ScheduleAborted unwinds a
// cancelled run; any program locks still held are abandoned so the next
// run's fresh world is clean.
template <typename Tracker>
void run_thread(const RunWorld& w, Tracker& tracker, Slot slot) {
  VirtualScheduler& sched = *w.sched;
  sched.attach(slot);
  std::vector<int> held;
  try {
    ThreadContext& ctx = w.rt->register_thread(static_cast<ThreadId>(slot));
    tracker.attach_thread(ctx);  // installs the deferred-unlock flush hook
    if (w.rc->race_detect) w.detector->attach_thread(ctx);
    for (int o = 0; o < w.prog->objects; ++o) {
      const ObjInit init = w.prog->obj_init(o);
      if (init.owner != slot) continue;
      TrackedVar<std::uint64_t>& v = (*w.vars)[static_cast<std::size_t>(o)];
      v.init(tracker, ctx, 0);
      if (init.pess && w.family == Family::kHybrid) {
        // Start in the pessimistic flavor without first driving the adaptive
        // policy through a transfer (the Table 3 deferred-unlock corners).
        v.meta().reset(StateWord::wr_ex_pess(ctx.id));
      }
    }
    sched.setup_done(slot);

    std::uint64_t reg = 0;
    for (const Op& op : w.prog->threads[static_cast<std::size_t>(slot)]) {
      const std::uint64_t parks0 = sched.parks(slot);
      const std::uint64_t coord0 = ctx.stats.coordination_rounds;
      const std::uint64_t resp0 = ctx.stats.responding_safepoints;
      StateWord pre{};
      if (is_access(op.kind)) {
        pre = (*w.vars)[static_cast<std::size_t>(op.obj)].meta().load_state();
      }
      switch (op.kind) {
        case OpKind::kLoad: {
          TrackedVar<std::uint64_t>& v =
              (*w.vars)[static_cast<std::size_t>(op.obj)];
          if (w.rc->race_detect) {
            w.detector->on_read(ctx,
                                (*w.rmeta)[static_cast<std::size_t>(op.obj)]);
          }
          reg = v.load(tracker, ctx);
          // Order-sensitive checksum: two schedules that read different
          // values are different executions even with equal final state.
          (*w.load_sum)[static_cast<std::size_t>(slot)] =
              (*w.load_sum)[static_cast<std::size_t>(slot)] *
                  1099511628211ULL +
              reg + 1;
          break;
        }
        case OpKind::kStore:
        case OpKind::kStoreReg: {
          TrackedVar<std::uint64_t>& v =
              (*w.vars)[static_cast<std::size_t>(op.obj)];
          if (w.rc->race_detect) {
            w.detector->on_write(ctx,
                                 (*w.rmeta)[static_cast<std::size_t>(op.obj)]);
          }
          v.store(tracker, ctx,
                  op.kind == OpKind::kStore ? op.value : reg + op.value);
          break;
        }
        case OpKind::kPsro:
          w.rt->psro(ctx);
          break;
        case OpKind::kBlockWindow:
          w.rt->begin_blocking(ctx);
          point();  // conflicting accesses coordinate with us implicitly
          w.rt->end_blocking(ctx);
          break;
        case OpKind::kLockAcquire: {
          ProgramLock& l = (*w.locks)[static_cast<std::size_t>(op.lock)];
          l.acquire(ctx);
          if (w.rc->race_detect) w.detector->on_acquire(ctx, &l);
          held.push_back(op.lock);
          break;
        }
        case OpKind::kLockRelease: {
          ProgramLock& l = (*w.locks)[static_cast<std::size_t>(op.lock)];
          if (w.rc->race_detect) w.detector->on_release(ctx, &l);
          // Not held once release starts: it frees the mutex even when it
          // throws (a quarantined thread parks at the PSRO).
          held.erase(std::find(held.begin(), held.end(), op.lock));
          l.release(ctx);
          break;
        }
        case OpKind::kQuarantine:
          // Lease expiry by fiat: under virtual time the watchdog's
          // wall-clock escalation is meaningless, so programs quarantine
          // directly and exploration decides where in the victim's sequence
          // the blow lands.
          w.rt->quarantine_thread(ctx, static_cast<ThreadId>(op.value));
          break;
      }
      if (w.rc->on_op) {
        // Completed op, observed while this thread still holds the virtual
        // CPU: observer calls are mutually exclusive and globally ordered,
        // so the relaxed fetch_add yields a gap-free serialization index.
        w.rc->on_op(OpStep{
            w.op_seq->fetch_add(1, std::memory_order_relaxed), slot, op});
      }
      w.rt->poll(ctx);  // responding safe point between ops

      // Footprint: the step is confined to its object iff it provably never
      // interacted with any other thread or global — no intermediate park
      // (contended wait), no coordination round, no response served at the
      // poll, and no fresh RdSh epoch drawn from the global counter.
      StepAnnotation ann;
      if (is_access(op.kind)) {
        const StateWord post =
            (*w.vars)[static_cast<std::size_t>(op.obj)].meta().load_state();
        const bool parked = sched.parks(slot) != parks0;
        const bool coordinated = ctx.stats.coordination_rounds != coord0;
        const bool responded = ctx.stats.responding_safepoints != resp0;
        const bool fresh_epoch =
            post.is_rd_sh() &&
            (!pre.is_rd_sh() || post.counter() != pre.counter());
        ann.confined = !parked && !coordinated && !responded && !fresh_epoch;
        ann.obj = op.obj;
      }
      sched.annotated_point(slot, ann);
    }
    w.rt->unregister_thread(ctx);  // exit flush: thread death is a PSRO
    sched.detach(slot);
  } catch (const ThreadQuarantined&) {
    // The victim's legitimate end: it stays *registered* (quarantined, not
    // exited — implicit coordination against it must keep succeeding) but
    // its schedule slot is done. Anything it still owned is reclaimed by
    // the eager sweep or by survivors' lazy seizures.
    for (int li : held) (*w.locks)[static_cast<std::size_t>(li)].abandon();
    sched.detach(slot);
  } catch (const ScheduleAborted&) {
    for (int li : held) (*w.locks)[static_cast<std::size_t>(li)].abandon();
    sched.detach_aborted(slot);
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename MakeTracker>
RunResult run_core(detail::WorkerPool& pool, const Program& prog,
                   Family family,
                   const RunConfig& rc, Strategy& strategy,
                   const std::function<void(const StateChange&)>& observe,
                   MakeTracker make) {
  const int nthreads = prog.nthreads();

  // Fresh world per execution: stateless model checking re-creates runtime,
  // tracker, and data every run instead of restoring snapshots.
  FaultInjector injector(rc.faults != nullptr ? *rc.faults : FaultConfig{});
  std::vector<TrackedVar<std::uint64_t>> vars(
      static_cast<std::size_t>(prog.objects));
  // Eager ownership reclamation for OpKind::kQuarantine: the sweep walks
  // this run's object population. Bound before Runtime copies its config.
  resilience::QuarantineSweep sweep(
      [&vars](const std::function<void(ObjectMeta&)>& fn) {
        for (TrackedVar<std::uint64_t>& v : vars) fn(v.meta());
      });
  // Optimistic tracking never goes pessimistic and the ideal tracker
  // asserts on pessimistic kinds; abandoned states must land back in their
  // own state family there.
  sweep.set_land_pessimistic(family == Family::kPessimistic ||
                             family == Family::kHybrid);
  RuntimeConfig rtc;
  rtc.max_threads = static_cast<std::size_t>(nthreads);
  // The virtual scheduler owns stall detection; the watchdog's wall-clock
  // heuristics are meaningless under virtual time.
  rtc.watchdog.enabled = false;
  rtc.resilience.on_quarantine = std::ref(sweep);
  if (rc.faults != nullptr) rtc.fault_injector = &injector;
  Runtime rt(rtc);
  auto tracker = make(rt);

  std::vector<RaceCheckedMeta> rmeta(static_cast<std::size_t>(prog.objects));
  std::deque<ProgramLock> locks(static_cast<std::size_t>(prog.locks));
  RaceDetector detector(static_cast<std::size_t>(nthreads));
  std::vector<std::uint64_t> load_sum(static_cast<std::size_t>(nthreads), 0);
  std::atomic<std::uint64_t> op_seq{0};

  const std::uint64_t checker0 = analysis::transition_violations();

  // Per-object baselines diffed after every step to derive StateChanges.
  std::vector<std::uint64_t> baseline(static_cast<std::size_t>(prog.objects),
                                      0);
  VirtualScheduler::Config scfg;
  scfg.nthreads = nthreads;
  scfg.max_steps = rc.max_steps;
  scfg.deadlock_rounds = rc.deadlock_rounds;
  scfg.on_run_start = [&] {
    for (std::size_t o = 0; o < baseline.size(); ++o) {
      baseline[o] =
          vars[o].meta().load_state(std::memory_order_relaxed).raw();
    }
  };
  scfg.on_step = [&](Slot s) {
    // Runs with no thread holding the virtual CPU: a quiescent snapshot.
    for (std::size_t o = 0; o < baseline.size(); ++o) {
      const std::uint64_t now =
          vars[o].meta().load_state(std::memory_order_relaxed).raw();
      if (now == baseline[o]) continue;
      if (observe) {
        observe(StateChange{static_cast<int>(o), s, StateWord(baseline[o]),
                            StateWord(now)});
      }
      baseline[o] = now;
    }
  };
  VirtualScheduler sched(std::move(scfg), strategy);

  RunWorld w;
  w.prog = &prog;
  w.rc = &rc;
  w.family = family;
  w.rt = &rt;
  w.sched = &sched;
  w.detector = &detector;
  w.vars = &vars;
  w.rmeta = &rmeta;
  w.locks = &locks;
  w.load_sum = &load_sum;
  w.op_seq = &op_seq;

  pool.run_all([&](int slot) { run_thread(w, tracker, slot); });

  RunResult r;
  r.status = sched.status();
  r.steps = sched.steps();
  r.trace = sched.trace();
  r.decisions = sched.decisions();
  r.checker_violations = analysis::transition_violations() - checker0;
  r.faults_fired = rc.faults != nullptr ? injector.total_fired() : 0;
  r.quarantined = rt.quarantined_count();
  r.objects_seized = sweep.objects_seized();
  r.races = detector.total_report(static_cast<ThreadId>(nthreads));
  for (std::size_t o = 0; o < rmeta.size() && o < 64; ++o) {
    if (rmeta[o].raced()) r.racy_object_mask |= 1ULL << o;
  }
  r.final_states.reserve(vars.size());
  r.final_values.reserve(vars.size());
  std::uint64_t h = 1469598103934665603ULL;
  for (TrackedVar<std::uint64_t>& v : vars) {
    r.final_states.push_back(v.meta().load_state());
    r.final_values.push_back(v.raw_load());
    h = fnv1a(h, r.final_states.back().raw());
    h = fnv1a(h, r.final_values.back());
  }
  for (std::uint64_t s : load_sum) h = fnv1a(h, s);
  for (Slot s : r.trace) h = fnv1a(h, static_cast<std::uint64_t>(s));
  h = fnv1a(h, r.steps);
  h = fnv1a(h, static_cast<std::uint64_t>(r.status));
  r.digest = h;
  return r;
}

}  // namespace

// ==== Explorer ===============================================================

Explorer::Explorer(Family family, int nthreads)
    : family_(family),
      nthreads_(nthreads),
      oracle_(family),
      pool_(std::make_unique<detail::WorkerPool>(nthreads)) {
  HT_ASSERT(nthreads >= 1, "explorer needs at least one thread");
  run_config_.family = family;
}

Explorer::~Explorer() = default;

RunResult Explorer::run_once(const Program& program, Strategy& strategy) {
  HT_ASSERT(program.nthreads() == nthreads_,
            "program thread count != explorer thread count");
  // Programs that quarantine threads produce seizure edges the base
  // successor relation rejects; admit them once, automatically, so generic
  // drivers (the exhaustive suite iterates every builtin) need no wiring.
  if (!widened_for_quarantine_ && program.has_quarantine()) {
    oracle_.widen_for_quarantine();
    widened_for_quarantine_ = true;
  }
  oracle_.reset();
  const auto observe = [this](const StateChange& c) {
    oracle_.observe(c);
    if (run_config_.on_state_change) run_config_.on_state_change(c);
  };
  switch (family_) {
    case Family::kHybrid: {
      HybridConfig hc;
      // Small inertia/cutoffs so short explorer programs can actually cross
      // the adaptive opt<->pess boundary (the defaults are tuned for long
      // benchmark runs and would pin every 4-op program optimistic).
      hc.policy.cutoff_confl = 2;
      hc.policy.inertia = 8;
      hc.policy.k_confl = 4;
      return run_core(*pool_, program, family_, run_config_, strategy,
                      observe,
                      [&](Runtime& rt) { return HybridTracker<>(rt, hc); });
    }
    case Family::kOptimistic:
      return run_core(*pool_, program, family_, run_config_, strategy,
                      observe,
                      [](Runtime& rt) { return OptimisticTracker<>(rt); });
    case Family::kPessimistic:
      return run_core(*pool_, program, family_, run_config_, strategy,
                      observe,
                      [](Runtime& rt) { return PessimisticTracker<>(rt); });
    case Family::kIdeal:
      return run_core(*pool_, program, family_, run_config_, strategy,
                      observe,
                      [](Runtime& rt) { return IdealTracker<>(rt); });
  }
  HT_ASSERT(false, "unknown family");
  throw ScheduleAborted{};  // unreachable
}

std::string Explorer::check_run(const RunResult& r) const {
  if (check_policy_.require_complete && !r.complete()) {
    return std::string("schedule did not run to completion: ") +
           run_status_name(r.status);
  }
  if (oracle_.violations() != 0) {
    return "state-pair oracle: " + oracle_.first_violation();
  }
  if (check_policy_.require_zero_checker_violations &&
      r.checker_violations != 0) {
    return "shadow transition checker flagged " +
           std::to_string(r.checker_violations) + " transition(s)";
  }
  if (check_policy_.require_quiescent && r.complete()) {
    for (std::size_t o = 0; o < r.final_states.size(); ++o) {
      const StateWord s = r.final_states[o];
      if (!s.is_optimistic() && !s.is_pess_unlocked()) {
        return "object " + std::to_string(o) +
               " not quiescent after all threads exited: " + s.to_string();
      }
    }
  }
  if (check_policy_.require_zero_races && r.races.total() != 0) {
    return "race detector reported " + std::to_string(r.races.total()) +
           " race(s) in a lock-synchronized program";
  }
  if (check_policy_.extra) return check_policy_.extra(r);
  return "";
}

// ==== exhaustive DFS with sleep sets =========================================

namespace {

// One node on the DFS stack, persistent across re-executions: the eligible
// set observed there, the sleep set inherited on entry (Godefroid), the
// alternatives whose subtrees are already explored (with the footprints
// their first steps turned out to have), and the current choice.
struct Frame {
  std::vector<Slot> eligible;
  std::vector<std::pair<Slot, Footprint>> sleep;
  std::vector<std::pair<Slot, Footprint>> explored;
  Slot chosen = -1;
  Footprint chosen_fp{};
};

bool contains_slot(const std::vector<std::pair<Slot, Footprint>>& xs,
                   Slot s) {
  for (const auto& [slot, fp] : xs) {
    if (slot == s) return true;
  }
  return false;
}

// Replays the committed prefix, then extends the stack one frame per new
// decision, skipping choices in the sleep set. Sleep sets prune schedules
// that only reorder provably independent (distinct-object-confined) steps:
// after t's subtree is explored at a node, t sleeps in every sibling subtree
// until a dependent step wakes it, because executing the sibling first and t
// second reaches an already-covered equivalence class.
class DfsStrategy final : public Strategy {
 public:
  DfsStrategy(std::vector<Frame>& frames, bool sleep_sets)
      : frames_(frames), sleep_sets_(sleep_sets) {}

  std::optional<Slot> pick(const std::vector<Slot>& eligible,
                           const std::vector<Decision>& history) override {
    const std::size_t depth = history.size();
    if (depth < frames_.size()) {
      Frame& f = frames_[depth];
      if (f.eligible != eligible) {
        diverged_ = true;  // re-execution must be deterministic
        return std::nullopt;
      }
      return f.chosen;
    }
    Frame f;
    f.eligible = eligible;
    if (sleep_sets_ && depth > 0) {
      // Inherit sleepers independent of the step just executed; dependent
      // ones wake up (their reordering against that step matters).
      const Frame& parent = frames_[depth - 1];
      const Footprint& step = history[depth - 1].footprint;
      const auto inherit =
          [&](const std::vector<std::pair<Slot, Footprint>>& xs) {
            for (const auto& [slot, fp] : xs) {
              if (independent_steps(fp, step)) f.sleep.push_back({slot, fp});
            }
          };
      inherit(parent.sleep);
      inherit(parent.explored);
    }
    std::optional<Slot> choice;
    for (Slot s : eligible) {
      if (!contains_slot(f.sleep, s)) {
        choice = s;
        break;
      }
    }
    f.chosen = choice.value_or(-1);
    frames_.push_back(std::move(f));
    return choice;  // nullopt: every choice sleeps -> prune this execution
  }

  bool diverged() const { return diverged_; }

 private:
  std::vector<Frame>& frames_;
  bool sleep_sets_;
  bool diverged_ = false;
};

// Backtracks to the deepest frame with an untried non-sleeping alternative;
// false means the tree is exhausted.
bool advance(std::vector<Frame>& frames) {
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.chosen >= 0) f.explored.push_back({f.chosen, f.chosen_fp});
    Slot next = -1;
    for (Slot s : f.eligible) {
      if (!contains_slot(f.sleep, s) && !contains_slot(f.explored, s)) {
        next = s;
        break;
      }
    }
    if (next >= 0) {
      f.chosen = next;
      f.chosen_fp = Footprint{};
      return true;
    }
    frames.pop_back();
  }
  return false;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ExploreOutcome Explorer::explore_exhaustive(const Program& program,
                                            std::uint64_t max_schedules,
                                            bool sleep_sets) {
  ExploreOutcome out;
  std::vector<Frame> frames;
  while (out.stats.schedules < max_schedules) {
    DfsStrategy strat(frames, sleep_sets);
    RunResult r = run_once(program, strat);
    ++out.stats.schedules;
    // Record what each frame's current choice turned out to touch; the
    // footprints feed the sleep sets of sibling subtrees.
    for (std::size_t d = 0; d < frames.size() && d < r.decisions.size();
         ++d) {
      if (frames[d].chosen == r.decisions[d].chosen) {
        frames[d].chosen_fp = r.decisions[d].footprint;
      }
    }
    if (strat.diverged()) {
      out.violation = ScheduleViolation{
          "nondeterministic re-execution: eligible set changed across "
          "identical schedule prefixes",
          out.stats.schedules - 1, 0, r.trace};
      return out;
    }
    if (r.status == VirtualScheduler::RunStatus::kPruned) {
      ++out.stats.pruned;
    } else {
      if (r.status == VirtualScheduler::RunStatus::kDeadlock) {
        ++out.stats.deadlocks;
      }
      if (r.status == VirtualScheduler::RunStatus::kStepLimit) {
        ++out.stats.truncated;
      }
      std::string err = check_run(r);
      if (!err.empty()) {
        out.violation = ScheduleViolation{std::move(err),
                                          out.stats.schedules - 1, 0, r.trace};
        return out;
      }
    }
    if (!advance(frames)) {
      out.stats.complete = true;
      break;
    }
  }
  return out;
}

ExploreOutcome Explorer::explore_fuzz(const Program& program,
                                      std::uint64_t seed,
                                      std::uint64_t schedules,
                                      int preemption_bound) {
  ExploreOutcome out;
  for (std::uint64_t i = 0; i < schedules; ++i) {
    const std::uint64_t run_seed = splitmix64(seed + i);
    FuzzStrategy strat(run_seed, preemption_bound);
    RunResult r = run_once(program, strat);
    ++out.stats.schedules;
    if (r.status == VirtualScheduler::RunStatus::kDeadlock) {
      ++out.stats.deadlocks;
    }
    if (r.status == VirtualScheduler::RunStatus::kStepLimit) {
      ++out.stats.truncated;
    }
    std::string err = check_run(r);
    if (!err.empty()) {
      out.violation =
          ScheduleViolation{std::move(err), i, run_seed, r.trace};
      return out;
    }
  }
  return out;
}

RunResult Explorer::replay(const Program& program,
                           const std::vector<Slot>& choices) {
  ReplayStrategy strat(choices);
  RunResult r = run_once(program, strat);
  r.replay_diverged = strat.diverged();
  return r;
}

}  // namespace ht::schedule
