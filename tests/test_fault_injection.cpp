// Fault injection and the hardening it exists to test: the coordination
// watchdog (stall detection + structured diagnostics + fail-fast policy)
// and the crash-tolerant v2 recording format (injected short writes / torn
// files load their longest valid prefix).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "faultinject/fault_injector.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"
#include "runtime/runtime.hpp"

namespace ht {
namespace {

// --- injector unit behavior ----------------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.enable(FaultSite::kPollSkip, 10'000).enable(FaultSite::kCoordStall, 500);
  cfg.stall_polls = 8;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 2'000; ++i) {
    EXPECT_EQ(a.at_safe_point(3), b.at_safe_point(3)) << "probe " << i;
  }
  EXPECT_EQ(a.total_fired(), b.total_fired());
  EXPECT_GT(a.total_fired(), 0u);
}

TEST(FaultInjector, ThreadSlotsDrawIndependentStreams) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.enable(FaultSite::kPollSkip, 10'000);
  FaultInjector inj(cfg);
  bool diverged = false;
  FaultInjector other(cfg);
  for (int i = 0; i < 2'000 && !diverged; ++i) {
    diverged = inj.at_safe_point(0) != other.at_safe_point(1);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, DeathIsPermanent) {
  FaultConfig cfg;
  cfg.enable(FaultSite::kThreadDeath, 100'000);  // fires on the first probe
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.thread_dead(5));
  EXPECT_TRUE(inj.at_safe_point(5));
  EXPECT_TRUE(inj.thread_dead(5));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(inj.at_safe_point(5));
  EXPECT_EQ(inj.fired(FaultSite::kThreadDeath), 1u);  // dead threads stay dead
  EXPECT_TRUE(inj.thread_suppressed(5));
  EXPECT_FALSE(inj.thread_dead(6));
}

TEST(FaultInjector, StallWindowIsBounded) {
  FaultConfig cfg;
  cfg.enable(FaultSite::kCoordStall, 100'000);
  cfg.stall_polls = 16;
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.at_safe_point(0));  // window opens
  EXPECT_TRUE(inj.thread_suppressed(0));
  for (std::uint32_t i = 0; i < cfg.stall_polls; ++i) {
    EXPECT_TRUE(inj.at_safe_point(0));
  }
  // The window has drained; the thread is live again (until the next probe
  // fires, which with a 100% rate is immediately).
  EXPECT_FALSE(inj.thread_suppressed(0));
  EXPECT_TRUE(inj.at_safe_point(0));
  EXPECT_TRUE(inj.thread_suppressed(0));
  EXPECT_EQ(inj.fired(FaultSite::kCoordStall), 2u);
}

// --- watchdog ------------------------------------------------------------------

// The stall window is wall time, not a step count: a thousand steps 1 us
// apart inside a four-epoch window do not fire it, the step that completes
// the window fires it exactly once, and the next window starts there. A
// single long step (a waiter descheduled for 10 ms) counts as one epoch.
TEST(Watchdog, StallWindowIsWallTimeNotStepCount) {
  constexpr std::uint64_t kEpoch = StallClock::kEpochNs;
  constexpr std::uint64_t kWindowEpochs = 4;
  StallClock lease;
  lease.renew(0);
  int fired = 0;
  std::uint64_t fired_at = 0;
  std::uint64_t t = 0;
  for (; t < 2 * kWindowEpochs * kEpoch; t += 1000) {
    if (lease.expired(t, kWindowEpochs)) {
      ++fired;
      if (fired_at == 0) fired_at = t;
    }
    if (t < kWindowEpochs * kEpoch) {
      ASSERT_EQ(fired, 0) << "at " << t << " ns";
    }
  }
  EXPECT_EQ(fired_at, kWindowEpochs * kEpoch);
  EXPECT_EQ(fired, 1);  // the second window ends at t == 2 * 4 epochs
  EXPECT_TRUE(lease.expired(t, kWindowEpochs));

  // Owner progress restarts the window; one 10 ms step is one epoch.
  lease.renew(t);
  t += 10'000'000;
  for (std::uint64_t i = 1; i < kWindowEpochs; ++i, t += kEpoch) {
    EXPECT_FALSE(lease.expired(t, kWindowEpochs)) << "epoch " << i;
  }
  EXPECT_TRUE(lease.expired(t, kWindowEpochs));
}

// A second context registered on the test thread and simply never polled is
// the purest silent owner: running status, frozen fingerprint.
TEST(Watchdog, FailFastThrowsWithDiagnostic) {
  RuntimeConfig cfg;
  cfg.watchdog.stall_epochs = 128;
  cfg.watchdog.on_stall = WatchdogConfig::OnStall::kFailFast;
  std::vector<CoordStallDiagnostic> dumps;
  cfg.watchdog.sink = [&](const CoordStallDiagnostic& d) {
    dumps.push_back(d);
  };
  Runtime rt(cfg);
  ThreadContext& self = rt.register_thread();
  ThreadContext& owner = rt.register_thread();  // never polls, never blocks

  bool threw = false;
  try {
    rt.coordinate(self, owner.id);
  } catch (const CoordinationStalled& e) {
    threw = true;
    EXPECT_EQ(e.diagnostic.requester, self.id);
    EXPECT_EQ(e.diagnostic.owner, owner.id);
    EXPECT_EQ(e.diagnostic.ticket, 1u);
    EXPECT_EQ(e.diagnostic.stalled_epochs, cfg.watchdog.stall_epochs);
    EXPECT_GE(e.diagnostic.waited_epochs, cfg.watchdog.stall_epochs);
    EXPECT_FALSE(e.diagnostic.owner_sample.blocked);
    EXPECT_FALSE(e.diagnostic.owner_sample.exited);
    EXPECT_EQ(e.diagnostic.owner_sample.pending_requests(), 1u);
    EXPECT_EQ(e.diagnostic.threads.size(), 2u);
    const std::string text = e.diagnostic.to_string();
    EXPECT_NE(text.find("watchdog"), std::string::npos);
    EXPECT_NE(text.find("coordination stall"), std::string::npos);
  }
  EXPECT_TRUE(threw);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].owner, owner.id);
}

// The acceptance scenario: a real thread whose safe points are suppressed by
// an injected stall (it keeps executing, never reaches an observable poll).
// The watchdog must detect and diagnose it within the configured bound.
TEST(Watchdog, DetectsInjectedStallWithinBound) {
  FaultConfig fc;
  fc.enable(FaultSite::kCoordStall, 100'000);  // stall from the first poll on
  fc.stall_polls = 1'000'000;
  FaultInjector inj(fc);

  RuntimeConfig cfg;
  cfg.fault_injector = &inj;
  cfg.watchdog.stall_epochs = 150;
  cfg.watchdog.on_stall = WatchdogConfig::OnStall::kFailFast;
  std::atomic<int> dump_count{0};
  cfg.watchdog.sink = [&](const CoordStallDiagnostic&) { ++dump_count; };
  Runtime rt(cfg);

  ThreadContext& self = rt.register_thread();
  std::atomic<ThreadId> owner_id{kNoThread};
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    ThreadContext& ctx = rt.register_thread();
    owner_id.store(ctx.id);
    while (!stop.load(std::memory_order_relaxed)) {
      rt.poll(ctx);  // suppressed: the injected stall swallows every poll
      std::this_thread::yield();
    }
    rt.unregister_thread(ctx);
  });
  while (owner_id.load() == kNoThread) std::this_thread::yield();

  bool threw = false;
  try {
    rt.coordinate(self, owner_id.load());
  } catch (const CoordinationStalled& e) {
    threw = true;
    // Detection happened at exactly the configured bound of silent epochs.
    EXPECT_EQ(e.diagnostic.stalled_epochs, cfg.watchdog.stall_epochs);
    EXPECT_EQ(e.diagnostic.owner, owner_id.load());
    EXPECT_FALSE(e.diagnostic.owner_sample.blocked);
    EXPECT_GE(e.diagnostic.owner_sample.pending_requests(), 1u);
  }
  stop.store(true);
  owner.join();
  EXPECT_TRUE(threw);
  EXPECT_EQ(dump_count.load(), 1);
  EXPECT_GE(inj.fired(FaultSite::kCoordStall), 1u);
  EXPECT_TRUE(inj.thread_suppressed(owner_id.load()));
}

// kContinue: the stall is diagnosed but the wait survives it and completes
// once the owner revives.
TEST(Watchdog, ContinuePolicyRecoversWhenOwnerRevives) {
  RuntimeConfig cfg;
  cfg.watchdog.stall_epochs = 100;
  cfg.watchdog.on_stall = WatchdogConfig::OnStall::kContinue;
  cfg.watchdog.max_dumps = 5;
  std::atomic<int> dump_count{0};
  cfg.watchdog.sink = [&](const CoordStallDiagnostic&) { ++dump_count; };
  Runtime rt(cfg);

  ThreadContext& self = rt.register_thread();
  std::atomic<ThreadId> owner_id{kNoThread};
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    ThreadContext& ctx = rt.register_thread();
    owner_id.store(ctx.id);
    // Stall (no safe points at all) until the watchdog has complained once,
    // then revive and answer the pending request.
    while (dump_count.load() == 0) std::this_thread::yield();
    rt.poll(ctx);
    while (!stop.load(std::memory_order_relaxed)) std::this_thread::yield();
    rt.unregister_thread(ctx);
  });
  while (owner_id.load() == kNoThread) std::this_thread::yield();

  const Runtime::CoordResult r = rt.coordinate(self, owner_id.load());
  EXPECT_FALSE(r.implicit);
  EXPECT_GE(dump_count.load(), 1);
  stop.store(true);
  owner.join();
}

// A fail-fast wait abandons its ticket; the abandoned ticket is harmless,
// because the owner's next safe point answers it.
TEST(Watchdog, FailFastAbandonedTicketIsAnsweredByNextSafePoint) {
  RuntimeConfig cfg;
  cfg.watchdog.stall_epochs = 64;
  cfg.watchdog.on_stall = WatchdogConfig::OnStall::kFailFast;
  cfg.watchdog.sink = [](const CoordStallDiagnostic&) {};
  Runtime rt(cfg);
  ThreadContext& self = rt.register_thread();
  ThreadContext& owner = rt.register_thread();  // silent

  EXPECT_THROW(rt.coordinate(self, owner.id), CoordinationStalled);
  EXPECT_EQ(rt.sample_thread(owner.id).pending_requests(), 1u);
  rt.poll(owner);
  EXPECT_EQ(rt.sample_thread(owner.id).pending_requests(), 0u);
}

// --- crash-tolerant recordings -------------------------------------------------

Recording big_recording() {
  Recording r;
  r.threads.resize(3);
  auto fill = [](ThreadLog& log, std::size_t n, std::uint64_t salt,
                 ThreadId src) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool resp = i % 5 == 0;
      log.events.push_back(LogEvent{
          salt + i, resp ? LogEventType::kResponse : LogEventType::kEdge,
          resp ? kNoThread : src, salt * 3 + i});
    }
  };
  fill(r.threads[0], 1'200, 10, 1);  // 3 chunks at 512 events/chunk
  fill(r.threads[1], 700, 5'000'000, 2);
  // thread 2 stays empty
  return r;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

// Every thread's loaded log must be a prefix of the original's.
void expect_prefix_of(const Recording& loaded, const Recording& orig) {
  ASSERT_EQ(loaded.threads.size(), orig.threads.size());
  for (std::size_t t = 0; t < orig.threads.size(); ++t) {
    const auto& le = loaded.threads[t].events;
    const auto& oe = orig.threads[t].events;
    ASSERT_LE(le.size(), oe.size()) << "thread " << t;
    EXPECT_TRUE(std::equal(le.begin(), le.end(), oe.begin()))
        << "thread " << t << " is not a prefix";
  }
}

TEST(FaultRecordingIo, TruncationAtAnyOffsetLoadsLongestValidPrefix) {
  const Recording orig = big_recording();
  const std::string path = temp_path("ht_fi_trunc_sweep.bin");
  ASSERT_TRUE(save_recording(orig, path));
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 30'000u);

  int salvaged_with_chunks = 0;
  for (std::size_t cut = 0; cut < bytes.size(); cut += 97) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    const RecordingLoadResult r = load_recording_ex(path);
    EXPECT_FALSE(r.complete()) << "cut=" << cut;
    if (r.recording.has_value()) {
      EXPECT_TRUE(r.partial) << "cut=" << cut;
      expect_prefix_of(*r.recording, orig);
      if (r.chunks_loaded > 0) ++salvaged_with_chunks;
    }
  }
  // Most cuts past the first chunk salvage real data.
  EXPECT_GT(salvaged_with_chunks, 100);

  // Sanity: the untruncated file still loads completely and exactly.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const RecordingLoadResult full = load_recording_ex(path);
  ASSERT_TRUE(full.complete()) << full.to_string();
  expect_prefix_of(orig, *full.recording);  // equal sizes => equality
  expect_prefix_of(*full.recording, orig);
  std::remove(path.c_str());
}

TEST(FaultRecordingIo, WriterCrashWithoutFinishLeavesLoadablePrefix) {
  const std::string path = temp_path("ht_fi_crash.bin");
  const Recording orig = big_recording();
  {
    RecordingStreamWriter w(path, 3);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.append(0, orig.threads[0].events.data(), 100));
    ASSERT_TRUE(w.append(1, orig.threads[1].events.data(), 50));
    // No finish(): the destructor models a crash, leaving no trailer.
  }
  const RecordingLoadResult r = load_recording_ex(path);
  ASSERT_TRUE(r.recording.has_value());
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.error, RecordingLoadError::kTruncated);
  EXPECT_EQ(r.chunks_loaded, 2u);
  EXPECT_EQ(r.recording->threads[0].events.size(), 100u);
  EXPECT_EQ(r.recording->threads[1].events.size(), 50u);
  expect_prefix_of(*r.recording, orig);
  // check_recording_file reports the reason and validates the salvage.
  const FileCheckResult fc = check_recording_file(path);
  EXPECT_FALSE(fc.ok());
  EXPECT_TRUE(fc.structure.ok());
  EXPECT_NE(fc.to_string().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FaultRecordingIo, InjectedShortWritesLeaveLoadablePrefixes) {
  const Recording orig = big_recording();
  const std::string path = temp_path("ht_fi_shortwrite.bin");
  int failures = 0;
  int salvaged_with_chunks = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FaultConfig fc;
    fc.seed = seed;
    fc.enable(FaultSite::kIoShortWrite, 20'000);
    FaultInjector inj(fc);
    if (save_recording(orig, path, &inj)) continue;  // no fault drawn
    ++failures;
    EXPECT_GE(inj.fired(FaultSite::kIoShortWrite), 1u);
    const RecordingLoadResult r = load_recording_ex(path);
    EXPECT_NE(r.error, RecordingLoadError::kNone) << "seed " << seed;
    if (r.recording.has_value()) {
      expect_prefix_of(*r.recording, orig);
      if (r.chunks_loaded > 0) ++salvaged_with_chunks;
    }
  }
  EXPECT_GE(failures, 1);
  EXPECT_GE(salvaged_with_chunks, 1);
  std::remove(path.c_str());
}

TEST(FaultRecordingIo, InjectedOpenFailureIsReportedNotFatal) {
  const Recording orig = big_recording();
  const std::string path = temp_path("ht_fi_openfail.bin");
  ASSERT_TRUE(save_recording(orig, path));

  FaultConfig fc;
  fc.enable(FaultSite::kIoOpenFail, 100'000);
  FaultInjector inj(fc);
  EXPECT_FALSE(save_recording(orig, temp_path("ht_fi_openfail2.bin"), &inj));
  const RecordingLoadResult r = load_recording_ex(path, &inj);
  EXPECT_FALSE(r.recording.has_value());
  EXPECT_EQ(r.error, RecordingLoadError::kIo);
  EXPECT_GE(inj.fired(FaultSite::kIoOpenFail), 2u);
  std::remove(path.c_str());
}

TEST(FaultRecordingIo, InjectedReadFailureSalvagesAndReports) {
  const Recording orig = big_recording();
  const std::string path = temp_path("ht_fi_readfail.bin");
  ASSERT_TRUE(save_recording(orig, path));

  FaultConfig fc;
  fc.enable(FaultSite::kIoReadFail, 100'000);  // fails before the first chunk
  FaultInjector inj(fc);
  const RecordingLoadResult r = load_recording_ex(path, &inj);
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.error, RecordingLoadError::kIo);
  ASSERT_TRUE(r.recording.has_value());  // header was read: empty prefix
  EXPECT_TRUE(r.partial);
  expect_prefix_of(*r.recording, orig);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ht
