// Self-healing coordination (DESIGN.md §11): backoff escalation against a
// fake clock, watchdog diagnostics content, the quarantine state machine
// (terminal status, waiter release, victim self-parking at every safe-point
// flavor), ownership seizure landings, the QuarantineSweep wiring, recorder
// sealing, stream-writer retry hardening — and the acceptance scenario: a run with a permanently stuck
// thread completes under the kQuarantine policy (and demonstrably fail-fasts
// without it) with a loadable, lint-clean recording.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace_lint.hpp"
#include "common/spin.hpp"
#include "faultinject/fault_injector.hpp"
#include "recorder/recorder.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"
#include "resilience/quarantine.hpp"
#include "resilience/seizure.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sync.hpp"
#include "test_util.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "tracking/tracked_var.hpp"

namespace ht {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --- backoff escalation (fake clock) -------------------------------------------

// plan() exposes each wait step without performing it, so the whole
// escalation — spins, yields, doubling sleeps up to the cap — is checked
// against a fake clock the test advances by hand. clock_reads counts the
// readings, so a test can show that spinning never reads the clock.
std::uint64_t fake_now_ns = 0;
int clock_reads = 0;
std::uint64_t fake_clock() {
  ++clock_reads;
  return fake_now_ns;
}
constexpr std::uint64_t kUs = 1000;
constexpr std::uint64_t kWindow = Backoff::kSilenceWindowNs;

TEST(BackoffEscalation, SpinsThenYieldsThenDoublingSleepsUpToCap) {
  fake_now_ns = 0;
  Backoff b(/*spin_rounds=*/2, /*max_sleep_us=*/160, /*jitter_seed=*/0,
            fake_clock);

  Backoff::Step s = b.plan();
  EXPECT_EQ(s.kind, Backoff::StepKind::kSpin);
  EXPECT_EQ(s.spins, 3);  // 2^2 - 1 pauses, within one grain
  EXPECT_FALSE(b.yielding());

  // The silence window starts at the first yield and lasts kWindow.
  for (std::uint64_t t = 0; t < kWindow; t += kWindow / 4) {
    fake_now_ns = t;
    EXPECT_FALSE(b.sleeping());
    s = b.plan();
    EXPECT_EQ(s.kind, Backoff::StepKind::kYield) << "at " << t << " ns";
    EXPECT_TRUE(b.yielding());
  }
  fake_now_ns = kWindow;

  // Sleep ticks double from kMinSleepUs and clamp at the cap; with jitter
  // disabled the virtual clock advances by exactly the doubling series.
  const std::uint64_t sleep_start = fake_now_ns;
  const int expected[] = {20, 40, 80, 160, 160, 160};
  for (int us : expected) {
    s = b.plan();
    EXPECT_EQ(s.kind, Backoff::StepKind::kSleep);
    EXPECT_TRUE(b.sleeping());
    EXPECT_EQ(s.sleep_us, us);
    fake_now_ns += static_cast<std::uint64_t>(s.sleep_us) * kUs;
  }
  EXPECT_EQ(fake_now_ns - sleep_start, (20u + 40 + 80 + 160 + 160 + 160) * kUs);

  // reset() rearms the full ladder.
  b.reset();
  s = b.plan();
  EXPECT_EQ(s.kind, Backoff::StepKind::kSpin);
  EXPECT_EQ(s.spins, 3);
}

// Jittered sleeps stay within ±25% of the unjittered tick, and the sequence
// is deterministic in the seed (two equal seeds plan identical schedules, a
// different seed diverges somewhere — the de-lockstep property).
TEST(BackoffEscalation, SleepJitterIsBoundedAndDeterministicInSeed) {
  fake_now_ns = 0;
  Backoff a(0, 256, /*jitter_seed=*/12345, fake_clock);
  Backoff b(0, 256, /*jitter_seed=*/12345, fake_clock);
  Backoff c(0, 256, /*jitter_seed=*/54321, fake_clock);
  // No spin phase: the first step yields and starts the silence window.
  for (Backoff* x : {&a, &b, &c}) {
    ASSERT_EQ(x->plan().kind, Backoff::StepKind::kYield);
  }
  fake_now_ns = kWindow;
  int base = Backoff::kMinSleepUs;
  bool diverged = false;
  for (int i = 0; i < 32; ++i) {
    const Backoff::Step sa = a.plan();
    const Backoff::Step sb = b.plan();
    const Backoff::Step sc = c.plan();
    ASSERT_EQ(sa.kind, Backoff::StepKind::kSleep);
    EXPECT_EQ(sa.sleep_us, sb.sleep_us) << "same seed diverged at step " << i;
    EXPECT_GE(sa.sleep_us, base - base / 4) << "step " << i;
    EXPECT_LE(sa.sleep_us, base + base / 4) << "step " << i;
    if (sa.sleep_us != sc.sleep_us) diverged = true;
    if (base < 256) base = base * 2 > 256 ? 256 : base * 2;
  }
  EXPECT_TRUE(diverged) << "different seeds planned identical jitter";
}

// keep_awake() reports progress of the awaited thread: a sleeping wait goes
// back to yielding, and a later frozen stretch yields for a whole window
// again before its first sleep, which starts the ladder over at
// kMinSleepUs.
TEST(BackoffEscalation, KeepAwakeHoldsTheYieldPhaseAndRestartsTheSleeps) {
  fake_now_ns = 0;
  Backoff b(/*spin_rounds=*/2, /*max_sleep_us=*/160, /*jitter_seed=*/0,
            fake_clock);
  b.keep_awake();  // still spinning: unchanged
  Backoff::Step s = b.plan();
  EXPECT_EQ(s.kind, Backoff::StepKind::kSpin);
  EXPECT_EQ(s.spins, 3);
  EXPECT_EQ(b.plan().kind, Backoff::StepKind::kYield);  // window starts at 0
  fake_now_ns = kWindow;
  ASSERT_EQ(b.plan().sleep_us, 20);
  ASSERT_TRUE(b.sleeping());
  EXPECT_EQ(b.plan().sleep_us, 40);

  b.keep_awake();
  EXPECT_TRUE(b.yielding());
  EXPECT_FALSE(b.sleeping());
  for (std::uint64_t t = kWindow; t < 2 * kWindow; t += kWindow / 4) {
    fake_now_ns = t;
    s = b.plan();
    EXPECT_EQ(s.kind, Backoff::StepKind::kYield) << "at " << t << " ns";
  }
  fake_now_ns = 2 * kWindow;
  s = b.plan();
  EXPECT_EQ(s.kind, Backoff::StepKind::kSleep);
  EXPECT_EQ(s.sleep_us, Backoff::kMinSleepUs);
  EXPECT_EQ(b.plan().sleep_us, 40);
}

// An awaited thread that keeps moving is never slept on, however long the
// wait: here a second of 1 us yields, with progress every 0.4 windows.
TEST(BackoffEscalation, MovingOwnerIsNeverSleptOn) {
  fake_now_ns = 0;
  Backoff b(Backoff::kDefaultSpinRounds, Backoff::kDefaultMaxSleepUs,
            /*jitter_seed=*/7, fake_clock);
  const std::uint64_t progress_every = kWindow * 2 / 5;
  std::uint64_t last_progress = 0;
  int sleeps = 0;
  for (; fake_now_ns < 1'000'000'000ull; fake_now_ns += kUs) {
    if (b.plan().kind == Backoff::StepKind::kSleep) ++sleeps;
    if (fake_now_ns - last_progress >= progress_every) {
      last_progress = fake_now_ns;
      b.keep_awake();
    }
  }
  EXPECT_EQ(sleeps, 0);
  EXPECT_TRUE(b.yielding());
}

// A frozen owner: the wait spins for the spin phase (127 pauses in steps of
// at most kSpinGrain, no clock reading), yields until the owner has been
// silent for the whole window, then sleeps with doubling ticks up to the
// cap. A step count does not end the yield phase, only the clock does.
TEST(BackoffEscalation, FrozenOwnerSpinsThenYieldsForTheWindowThenSleeps) {
  fake_now_ns = 0;
  clock_reads = 0;
  Backoff b(Backoff::kDefaultSpinRounds, Backoff::kDefaultMaxSleepUs,
            /*jitter_seed=*/0, fake_clock);
  int spun = 0;
  Backoff::Step s = b.plan();
  for (; s.kind == Backoff::StepKind::kSpin; s = b.plan()) {
    EXPECT_GE(s.spins, 1);
    EXPECT_LE(s.spins, Backoff::kSpinGrain);
    spun += s.spins;
    EXPECT_EQ(clock_reads, 0);
    fake_now_ns += 100;  // spinning does not look at the clock
  }
  EXPECT_EQ(spun, (1 << Backoff::kDefaultSpinRounds) - 1);
  ASSERT_EQ(s.kind, Backoff::StepKind::kYield);
  const std::uint64_t silent_since = fake_now_ns;

  // 100k yields 1 ns apart stay inside the window: still yielding.
  for (int i = 0; i < 100'000; ++i) {
    ++fake_now_ns;
    ASSERT_EQ(b.plan().kind, Backoff::StepKind::kYield) << "yield " << i;
  }
  fake_now_ns = silent_since + kWindow - 1;
  EXPECT_EQ(b.plan().kind, Backoff::StepKind::kYield);
  fake_now_ns = silent_since + kWindow;
  int tick = Backoff::kMinSleepUs;
  for (int i = 0; i < 8; ++i) {
    s = b.plan();
    ASSERT_EQ(s.kind, Backoff::StepKind::kSleep) << "sleep " << i;
    EXPECT_EQ(s.sleep_us, tick) << "sleep " << i;
    tick = tick * 2 > Backoff::kDefaultMaxSleepUs ? Backoff::kDefaultMaxSleepUs
                                                  : tick * 2;
    fake_now_ns += static_cast<std::uint64_t>(s.sleep_us) * kUs;
  }
  EXPECT_EQ(s.sleep_us, Backoff::kDefaultMaxSleepUs);
}

// keep_awake() restarts the silence window at the latest step: the wait
// yields for a whole window after it, however long it had been silent.
TEST(BackoffEscalation, KeepAwakeRestartsTheSilenceWindow) {
  fake_now_ns = 0;
  Backoff b(/*spin_rounds=*/0, Backoff::kDefaultMaxSleepUs,
            /*jitter_seed=*/0, fake_clock);
  ASSERT_EQ(b.plan().kind, Backoff::StepKind::kYield);  // window starts at 0
  fake_now_ns = kWindow - 1;
  ASSERT_EQ(b.plan().kind, Backoff::StepKind::kYield);
  b.keep_awake();  // progress seen after the step at kWindow - 1
  fake_now_ns = 2 * kWindow - 2;
  EXPECT_EQ(b.plan().kind, Backoff::StepKind::kYield);
  EXPECT_FALSE(b.sleeping());
  fake_now_ns = 2 * kWindow - 1;
  const Backoff::Step s = b.plan();
  EXPECT_EQ(s.kind, Backoff::StepKind::kSleep);
  EXPECT_EQ(s.sleep_us, Backoff::kMinSleepUs);
}

// --- watchdog diagnostics ------------------------------------------------------

// The stall diagnostic must carry the stalled thread's liveness fingerprint:
// its last poll site, its last heartbeat epoch, and its ThreadStatus — both
// structured and in the rendered dump.
TEST(WatchdogDiagnostics, CarriesHeartbeatPollSiteAndStatus) {
  RuntimeConfig cfg;
  cfg.watchdog.stall_epochs = 128;
  cfg.watchdog.on_stall = WatchdogConfig::OnStall::kFailFast;
  cfg.watchdog.sink = [](const CoordStallDiagnostic&) {};
  Runtime rt(cfg);
  ThreadContext& self = rt.register_thread();
  ThreadContext& owner = rt.register_thread();
  for (int i = 0; i < 3; ++i) rt.poll(owner);  // then silent forever

  bool threw = false;
  try {
    rt.coordinate(self, owner.id);
  } catch (const CoordinationStalled& e) {
    threw = true;
    const ThreadLivenessSample& s = e.diagnostic.owner_sample;
    EXPECT_EQ(s.last_poll, 3u);
    EXPECT_GE(s.heartbeat, 3u);
    EXPECT_FALSE(s.blocked);
    EXPECT_FALSE(s.quarantined);
    EXPECT_FALSE(s.exited);
    const std::string text = e.diagnostic.to_string();
    EXPECT_NE(text.find("running"), std::string::npos);
    EXPECT_NE(text.find("last_poll=3"), std::string::npos);
    EXPECT_NE(text.find("heartbeat="), std::string::npos);
  }
  EXPECT_TRUE(threw);
}

// --- quarantine state machine --------------------------------------------------

TEST(Quarantine, FlipIsTerminalReleasesWaitersAndShowsInSamples) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();

  EXPECT_TRUE(rt.quarantine_thread(self, victim.id));
  EXPECT_TRUE(rt.thread_quarantined(victim.id));
  EXPECT_TRUE(rt.has_quarantined());
  EXPECT_EQ(rt.quarantined_count(), 1u);
  EXPECT_FALSE(rt.quarantine_thread(self, victim.id));  // already terminal
  EXPECT_EQ(rt.quarantined_count(), 1u);

  // Quarantined subsumes Blocked: coordination succeeds implicitly, without
  // the victim ever responding.
  const Runtime::CoordResult r = rt.coordinate(self, victim.id);
  EXPECT_TRUE(r.implicit);

  const ThreadLivenessSample s = rt.sample_thread(victim.id);
  EXPECT_TRUE(s.quarantined);
  EXPECT_TRUE(s.blocked);  // the quarantine word carries the blocked bit
}

TEST(Quarantine, ExitedThreadsAreNotQuarantinable) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();
  rt.unregister_thread(victim);
  EXPECT_FALSE(rt.quarantine_thread(self, victim.id));
  EXPECT_EQ(rt.quarantined_count(), 0u);
}

// The victim observes its own quarantine at every safe-point flavor and
// parks by unwinding, without flushing the states survivors now own.
TEST(Quarantine, VictimParksAtPollBlockingEntryWakeupAndSlowPaths) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();

  ThreadContext& at_poll = rt.register_thread();
  ASSERT_TRUE(rt.quarantine_thread(self, at_poll.id));
  EXPECT_THROW(rt.poll(at_poll), ThreadQuarantined);
  EXPECT_TRUE(at_poll.quarantined_self);

  ThreadContext& at_entry = rt.register_thread();
  ASSERT_TRUE(rt.quarantine_thread(self, at_entry.id));
  EXPECT_THROW(rt.begin_blocking(at_entry), ThreadQuarantined);

  // Parked victim: the quarantine lands on top of BLOCKED; the late wake-up
  // must self-park instead of CASing back to running.
  ThreadContext& parked = rt.register_thread();
  rt.begin_blocking(parked);
  ASSERT_TRUE(rt.quarantine_thread(self, parked.id));
  EXPECT_THROW(rt.end_blocking(parked), ThreadQuarantined);

  ThreadContext& in_slow_path = rt.register_thread();
  ASSERT_TRUE(rt.quarantine_thread(self, in_slow_path.id));
  EXPECT_THROW(rt.check_self_quarantine(in_slow_path), ThreadQuarantined);

  // Non-quarantined threads pass the slow-path check untouched.
  rt.check_self_quarantine(self);
}

// A victim quarantined while it holds a program lock parks at the release
// PSRO: no bump, no response, its buffered locks dropped rather than
// flushed (survivors own those states now), and the mutex freed so another
// thread can take the lock.
TEST(Quarantine, VictimHoldingAProgramLockParksAtItsRelease) {
  Runtime rt;
  HybridTracker<> tracker(rt);
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();
  tracker.attach_thread(self);
  tracker.attach_thread(victim);
  ProgramLock lock;
  lock.acquire(victim);
  ObjectMeta m;  // a deferred unlock the release would flush
  m.reset(StateWord::wr_ex_wlock(victim.id));
  victim.lock_buffer.push_back(&m);

  ASSERT_TRUE(rt.quarantine_thread(self, victim.id));
  victim.requester_side.request_tickets.fetch_add(1);  // a late requester
  const std::uint64_t release = victim.release_counter_relaxed();
  const std::uint64_t responses = victim.stats.responding_safepoints;
  EXPECT_THROW(lock.release(victim), ThreadQuarantined);
  EXPECT_TRUE(victim.quarantined_self);
  EXPECT_EQ(victim.release_counter_relaxed(), release) << "the victim bumped";
  EXPECT_EQ(victim.stats.responding_safepoints, responses)
      << "the victim responded";
  EXPECT_TRUE(victim.lock_buffer.empty());
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExWLock, victim.id))
      << "the victim flushed a buffered lock";

  lock.acquire(self);  // the mutex is free
  lock.release(self);
}

// ProgramLock::Scope frees the mutex however a victim parks: at a poll
// inside the scope (the destructor runs while unwinding and must not throw
// again), or at the release PSRO when the scope ends (the destructor
// throws ThreadQuarantined).
TEST(Quarantine, ScopedLockIsFreedWhereverTheVictimParks) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ProgramLock lock;

  ThreadContext& at_poll = rt.register_thread();
  EXPECT_THROW(
      {
        ProgramLock::Scope s(lock, at_poll);
        EXPECT_TRUE(rt.quarantine_thread(self, at_poll.id));
        rt.poll(at_poll);
      },
      ThreadQuarantined);

  ThreadContext& at_release = rt.register_thread();
  EXPECT_THROW(
      {
        ProgramLock::Scope s(lock, at_release);
        EXPECT_TRUE(rt.quarantine_thread(self, at_release.id));
      },
      ThreadQuarantined);

  lock.acquire(self);  // the mutex is free
  lock.release(self);
}

// --- ownership seizure ---------------------------------------------------------

TEST(Seizure, VictimOwnedStatesLandOnTheirUnlockedFlavors) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();
  ASSERT_TRUE(rt.quarantine_thread(self, victim.id));

  ObjectMeta m;

  m.reset(StateWord::wr_ex_wlock(victim.id));
  EXPECT_TRUE(resilience::seize_object(self, m, victim.id));
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExPess, victim.id));

  m.reset(StateWord::wr_ex_rlock(victim.id));
  EXPECT_TRUE(resilience::seize_object(self, m, victim.id));
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExPess, victim.id));

  m.reset(StateWord::rd_ex_rlock(victim.id));
  EXPECT_TRUE(resilience::seize_object(self, m, victim.id));
  EXPECT_TRUE(testing::state_is(m, StateKind::kRdExPess, victim.id));

  // An abandoned coordination intermediate is replaced in a single CAS.
  m.reset(StateWord::intermediate(victim.id));
  EXPECT_TRUE(resilience::seize_object(self, m, victim.id));
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExPess, victim.id));

  // Under the pure optimistic tracker the landing must stay optimistic.
  m.reset(StateWord::intermediate(victim.id));
  EXPECT_TRUE(
      resilience::seize_object(self, m, victim.id, /*land_pessimistic=*/false));
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExOpt, victim.id));
}

TEST(Seizure, LeavesForeignAndUnlockedStatesAlone) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();
  ThreadContext& other = rt.register_thread();
  ASSERT_TRUE(rt.quarantine_thread(self, victim.id));

  ObjectMeta m;
  // Unlocked states are accessible to every survivor — nothing to seize.
  m.reset(StateWord::wr_ex_pess(victim.id));
  EXPECT_FALSE(resilience::seize_object(self, m, victim.id));
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExPess, victim.id));
  m.reset(StateWord::wr_ex_opt(victim.id));
  EXPECT_FALSE(resilience::seize_object(self, m, victim.id));
  // Locks held by OTHER threads are not the victim's to lose.
  m.reset(StateWord::wr_ex_wlock(other.id));
  EXPECT_FALSE(resilience::seize_object(self, m, victim.id));
  EXPECT_TRUE(testing::state_is(m, StateKind::kWrExWLock, other.id));
  // Anonymous read shares are excluded from eager seizure (footnote 4).
  m.reset(StateWord::rd_sh_rlock(7, 2));
  EXPECT_FALSE(resilience::seize_object(self, m, victim.id));
}

TEST(QuarantineSweep, SweepsSealsAndNotifiesThroughTheRuntimeHook) {
  std::vector<ObjectMeta> metas(3);
  resilience::QuarantineSweep sweep(
      [&metas](const std::function<void(ObjectMeta&)>& fn) {
        for (ObjectMeta& m : metas) fn(m);
      });
  std::vector<ThreadId> sealed;
  sweep.set_seal([&](ThreadId v) { sealed.push_back(v); });

  RuntimeConfig cfg;
  cfg.resilience.on_quarantine = std::ref(sweep);
  Runtime rt(cfg);
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();

  metas[0].reset(StateWord::wr_ex_wlock(victim.id));
  metas[1].reset(StateWord::wr_ex_opt(victim.id));  // unlocked: not seized
  metas[2].reset(StateWord::intermediate(victim.id));

  ASSERT_TRUE(rt.quarantine_thread(self, victim.id));
  EXPECT_EQ(sweep.sweeps(), 1u);
  EXPECT_EQ(sweep.objects_seized(), 2u);
  EXPECT_TRUE(testing::state_is(metas[0], StateKind::kWrExPess, victim.id));
  EXPECT_TRUE(testing::state_is(metas[1], StateKind::kWrExOpt, victim.id));
  EXPECT_TRUE(testing::state_is(metas[2], StateKind::kWrExPess, victim.id));
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0], victim.id);
}

// --- recorder sealing and stream hardening ------------------------------------

TEST(RecorderSeal, QuarantineFreezesTheVictimLogAndDropsLateAppends) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();
  DependenceRecorder rec(rt);
  rec.attach_thread(victim);

  victim.point_index = 1;
  rec.edge(victim, self.id, 1);
  ASSERT_EQ(rec.log(victim.id).events.size(), 1u);

  rec.on_quarantine(victim.id);
  EXPECT_TRUE(rec.sealed(victim.id));
  EXPECT_FALSE(rec.sealed(self.id));

  // A not-yet-parked victim racing past the seal appends nothing, through
  // either the edge sink or the response-log hook.
  victim.point_index = 2;
  rec.edge(victim, self.id, 2);
  victim.run_resp_log_hook();
  EXPECT_EQ(rec.log(victim.id).events.size(), 1u);

  const Recording r = rec.take_recording(2);
  EXPECT_TRUE(validate_recording(r).ok());
  EXPECT_TRUE(analysis::lint_recording(r).ok());
}

// Sealing with a stream writer attached flushes the victim's frozen log to
// disk at a v2 chunk boundary immediately: even if the degraded run then
// crashes (writer destroyed without finish()), the victim's events are in
// the salvageable prefix.
TEST(RecorderSeal, SealedChunksSurviveACrashAfterQuarantine) {
  const std::string path = temp_path("ht_resilience_seal_crash.bin");
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  ThreadContext& victim = rt.register_thread();
  {
    DependenceRecorder rec(rt);
    RecordingStreamWriter writer(path, 2);
    rec.set_stream_writer(&writer);
    victim.point_index = 1;
    rec.edge(victim, self.id, 3);
    victim.point_index = 2;
    rec.edge(victim, self.id, 5);
    rec.on_quarantine(victim.id);
    // Crash: no finish_stream, writer destroyed trailer-less.
  }
  const RecordingLoadResult r = load_recording_ex(path);
  EXPECT_NE(r.error, RecordingLoadError::kNone);  // partial file
  ASSERT_TRUE(r.recording.has_value());
  EXPECT_TRUE(r.partial);
  ASSERT_EQ(r.recording->threads.size(), 2u);
  const ThreadLog& log = r.recording->threads[victim.id];
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.events[1].value, 5u);
  EXPECT_TRUE(analysis::lint_recording(*r.recording, /*salvaged=*/true).ok());
  std::remove(path.c_str());
}

// Transient injected write tears are retried and the stream completes; the
// io_failure_cap models a device that recovers after a bounded error burst.
TEST(RecordingRetry, TransientShortWritesAreRetriedToCompletion) {
  const std::string path = temp_path("ht_resilience_retry.bin");
  FaultConfig fc;
  fc.seed = 3;
  fc.enable(FaultSite::kIoShortWrite, 100'000);  // every probe fires...
  fc.io_failure_cap = 2;                         // ...but only twice in total
  FaultInjector inj(fc);

  RecordingStreamWriter w(path, 1, &inj);
  std::vector<LogEvent> events;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    events.push_back(LogEvent{i, LogEventType::kResponse, kNoThread, i});
  }
  EXPECT_TRUE(w.append(0, events.data(), events.size()));
  EXPECT_TRUE(w.finish());
  EXPECT_TRUE(w.ok());
  EXPECT_GE(inj.fired(FaultSite::kIoShortWrite), 1u);

  const RecordingLoadResult r = load_recording_ex(path);
  EXPECT_TRUE(r.complete()) << recording_load_error_name(r.error);
  ASSERT_TRUE(r.recording.has_value());
  EXPECT_EQ(r.recording->threads.at(0).events.size(), 10u);
  std::remove(path.c_str());
}

// With retrying disabled (the pre-§11 one-shot semantics) the same fault
// schedule latches the writer failed on the first tear.
TEST(RecordingRetry, SingleAttemptLatchesOnFirstTear) {
  const std::string path = temp_path("ht_resilience_noretry.bin");
  // The header is written by the constructor (before retrying can be
  // disabled), so search the seeded schedules for one where the header's
  // probe stays quiet and the first torn write lands on an append — there
  // the single-attempt writer must latch failed immediately.
  bool latched = false;
  for (std::uint64_t seed = 1; seed <= 100 && !latched; ++seed) {
    FaultConfig fc;
    fc.seed = seed;
    fc.enable(FaultSite::kIoShortWrite, 30'000);
    fc.io_failure_cap = 1;
    FaultInjector inj(fc);
    RecordingStreamWriter w(path, 1, &inj);
    if (inj.fired(FaultSite::kIoShortWrite) > 0) continue;  // header tore
    ASSERT_TRUE(w.ok());
    w.set_max_write_attempts(1);
    LogEvent e{1, LogEventType::kResponse, kNoThread, 1};
    if (!w.append(0, &e, 1)) {
      latched = true;
      EXPECT_FALSE(w.ok());
      EXPECT_FALSE(w.append(0, &e, 1));  // latched: everything after no-ops
      EXPECT_FALSE(w.finish());
    }
  }
  EXPECT_TRUE(latched) << "no schedule tore an append within 100 seeds";
  std::remove(path.c_str());
}

// --- acceptance: a stuck thread cannot take the run down -----------------------

struct StuckThreadRun {
  RuntimeConfig cfg;
  std::vector<TrackedVar<std::uint64_t>> vars{2};
  resilience::QuarantineSweep sweep;

  StuckThreadRun(WatchdogConfig::OnStall policy, std::uint64_t stall_epochs) {
    cfg.watchdog.on_stall = policy;
    cfg.watchdog.stall_epochs = stall_epochs;
    cfg.watchdog.sink = [](const CoordStallDiagnostic&) {};
    sweep.set_enumerator([this](const std::function<void(ObjectMeta&)>& fn) {
      for (TrackedVar<std::uint64_t>& v : vars) fn(v.meta());
    });
    cfg.resilience.on_quarantine = std::ref(sweep);
  }
};

// The victim write-locks a pessimistic object (deferred unlock) and then
// never reaches a safe point again. Under kQuarantine the survivor's
// contended store stalls, the watchdog quarantines the victim, the sweep
// seizes the lock, and the run completes with a loadable, lint-clean
// recording whose victim log is sealed.
TEST(SelfHealing, StuckThreadIsQuarantinedAndTheRunCompletes) {
  StuckThreadRun run(WatchdogConfig::OnStall::kQuarantine,
                     /*stall_epochs=*/200);
  Runtime rt(run.cfg);
  DependenceRecorder rec(rt);
  run.sweep.set_seal([&rec](ThreadId v) { rec.on_quarantine(v); });
  const std::string path = temp_path("ht_resilience_stuck.bin");
  RecordingStreamWriter writer(path, 2);
  rec.set_stream_writer(&writer);
  HybridTracker<false, DependenceRecorder> trk(rt, HybridConfig{}, &rec);

  ThreadContext& self = rt.register_thread();
  trk.attach_thread(self);
  rec.attach_thread(self);

  std::atomic<ThreadId> victim_id{kNoThread};
  std::atomic<bool> locked{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> victim_parked{false};
  std::thread victim([&] {
    ThreadContext& ctx = rt.register_thread();
    trk.attach_thread(ctx);
    rec.attach_thread(ctx);
    victim_id.store(ctx.id);
    run.vars[0].init(trk, ctx);
    run.vars[0].meta().reset(StateWord::wr_ex_pess(ctx.id));
    run.vars[0].store(trk, ctx, 7);  // write lock, unlock deferred forever
    locked.store(true);
    while (!stop.load(std::memory_order_relaxed)) std::this_thread::yield();
    // First safe point after the storm: the victim observes its quarantine
    // and parks instead of flushing the (already seized) lock.
    try {
      rt.poll(ctx);
    } catch (const ThreadQuarantined& q) {
      EXPECT_EQ(q.tid, ctx.id);
      victim_parked.store(true);
    }
  });
  while (!locked.load()) std::this_thread::yield();
  ASSERT_TRUE(testing::state_is(run.vars[0].meta(), StateKind::kWrExWLock,
                                victim_id.load()));

  run.vars[1].init(trk, self);
  run.vars[0].store(trk, self, 9);  // contends on the stuck holder's lock
  EXPECT_EQ(run.vars[0].load(trk, self), 9u);

  EXPECT_EQ(rt.quarantined_count(), 1u);
  EXPECT_TRUE(rt.thread_quarantined(victim_id.load()));
  EXPECT_EQ(run.sweep.sweeps(), 1u);
  EXPECT_GE(run.sweep.objects_seized(), 1u);
  EXPECT_TRUE(rec.sealed(victim_id.load()));

  stop.store(true);
  victim.join();
  EXPECT_TRUE(victim_parked.load());

  rt.psro(self);  // flush the survivor's own deferred locks
  rt.unregister_thread(self);

  EXPECT_TRUE(rec.finish_stream(2));
  EXPECT_TRUE(writer.ok());
  const Recording recd = rec.take_recording(2);
  EXPECT_TRUE(validate_recording(recd).ok());
  const analysis::LintResult lint = analysis::lint_recording(recd);
  EXPECT_TRUE(lint.ok()) << lint.to_string();
  const FileCheckResult file = check_recording_file(path);
  EXPECT_TRUE(file.ok()) << file.to_string();
  std::remove(path.c_str());
}

// Negative control: the identical stuck-thread scenario without the healing
// policy fail-fasts instead of completing — the quarantine path is what
// saves the run, not luck.
TEST(SelfHealing, WithoutQuarantineTheSameRunFailsFast) {
  StuckThreadRun run(WatchdogConfig::OnStall::kFailFast,
                     /*stall_epochs=*/200);
  Runtime rt(run.cfg);
  HybridTracker<> trk(rt, HybridConfig{});

  ThreadContext& self = rt.register_thread();
  trk.attach_thread(self);

  std::atomic<ThreadId> victim_id{kNoThread};
  std::atomic<bool> locked{false};
  std::atomic<bool> stop{false};
  std::thread victim([&] {
    ThreadContext& ctx = rt.register_thread();
    trk.attach_thread(ctx);
    victim_id.store(ctx.id);
    run.vars[0].init(trk, ctx);
    run.vars[0].meta().reset(StateWord::wr_ex_pess(ctx.id));
    run.vars[0].store(trk, ctx, 7);
    locked.store(true);
    while (!stop.load(std::memory_order_relaxed)) std::this_thread::yield();
    rt.psro(ctx);  // revive; release the lock normally
    rt.unregister_thread(ctx);
  });
  while (!locked.load()) std::this_thread::yield();

  EXPECT_THROW(run.vars[0].store(trk, self, 9), CoordinationStalled);
  EXPECT_EQ(rt.quarantined_count(), 0u);

  stop.store(true);
  victim.join();
  rt.unregister_thread(self);
}

}  // namespace
}  // namespace ht
