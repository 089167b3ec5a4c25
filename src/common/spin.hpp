// Spin-wait backoff for cross-thread waits.
//
// Coordination in this system is a cross-thread round trip: the requester
// waits until the remote thread reaches a safe point. On a multi-core host
// the remote thread usually runs on another core and answers within a few
// microseconds, so the backoff first spins for about one such round trip,
// in grains of a few pauses so the caller re-checks its condition often.
// The spin is bounded: when threads outnumber cores, the thread being
// waited for may need this very CPU, so the backoff then escalates to
// std::this_thread::yield(), which keeps the "explicit coordination costs a
// round trip, not a quantum" property of the paper intact.
//
// Yielding has its own failure mode: when the waited-on thread is stalled
// (not merely descheduled), every yield is immediately rescheduled back and
// the waiter burns a full core indefinitely — a yield storm. So once the
// awaited thread has been silent for a fixed window of wall time the
// backoff escalates again to short sleep_for ticks, doubling up to a cap,
// and a stalled-owner wait costs wakeups per second, not a core. The
// window is time, not a step count: a waiter is itself a safe point that
// must keep answering requests (Fig 1 line 18), and a sleeping waiter
// answers nobody and wakes late, so it must not fall asleep after a burst
// of cheap yields while the thread it waits on is merely slow. Silence
// starts when the wait first cedes the CPU; a waiter that can see the
// awaited thread progress calls keep_awake() to start it over.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

// ThreadSanitizer annotation layer. TSan models std::atomic natively, but
// the happens-before edges this system *means* — a responding safe point
// releases, the requester that observed the response acquires — are spread
// across counter loads it would have to infer. Annotating the sync objects
// directly keeps TSan's model aligned with ours even if an implementation
// migrates off std::atomic (e.g. to a futex or custom spin lock), and makes
// the sanitize-labeled test tier diagnose races at the right abstraction
// level. Compiles away entirely outside -fsanitize=thread builds.
#if defined(__SANITIZE_THREAD__)
#define HT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HT_TSAN 1
#endif
#endif

#ifdef HT_TSAN
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
}
#define HT_TSAN_ACQUIRE(addr) \
  __tsan_acquire(const_cast<void*>(static_cast<const void*>(addr)))
#define HT_TSAN_RELEASE(addr) \
  __tsan_release(const_cast<void*>(static_cast<const void*>(addr)))
#else
#define HT_TSAN_ACQUIRE(addr) ((void)(addr))
#define HT_TSAN_RELEASE(addr) ((void)(addr))
#endif

namespace ht {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // Fallback: compiler barrier only.
  asm volatile("" ::: "memory");
#endif
}

// Monotonic wall clock in nanoseconds: Backoff's default time source.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Backoff {
 public:
  // One planned wait step: what pause() would do next. Exposed so the
  // escalation sequence (spin -> yield -> doubling jittered sleeps) is unit
  // testable against a fake clock without actually sleeping.
  enum class StepKind { kSpin, kYield, kSleep };
  struct Step {
    StepKind kind = StepKind::kSpin;
    int spins = 0;     // kSpin only
    int sleep_us = 0;  // kSleep only (jitter already applied)
  };
  using Clock = std::uint64_t (*)();  // monotonic nanoseconds

  // spin_rounds: the spin phase is 2^spin_rounds - 1 pauses, planned in
  // steps of at most kSpinGrain pauses. The default 7 rounds spin 127
  // pauses (about 3 us at ~25 ns a pause), about one multi-core round trip.
  // The spin phase never reads the clock.
  // max_sleep_us: cap for the doubling sleep tick (lease re-request period).
  // jitter_seed: nonzero enables ±25% deterministic jitter on each sleep so
  // multiple coordinators whose leases expired together don't re-request in
  // lockstep; zero disables jitter (exact doubling).
  // clock: the time source of the silence window; tests pass a fake one.
  explicit Backoff(int spin_rounds = kDefaultSpinRounds,
                   int max_sleep_us = kDefaultMaxSleepUs,
                   std::uint32_t jitter_seed = 0, Clock clock = steady_now_ns)
      : spin_pauses_((1 << spin_rounds) - 1),
        max_sleep_us_(max_sleep_us < kMinSleepUs ? kMinSleepUs : max_sleep_us),
        rng_(jitter_seed),
        clock_(clock) {}

  // Computes the next wait step and advances the escalation state, without
  // performing the wait. pause() == execute(plan()).
  Step plan() {
    if (spun_ < spin_pauses_) {
      Step s;
      s.spins = spin_pauses_ - spun_ < kSpinGrain ? spin_pauses_ - spun_
                                                  : kSpinGrain;
      spun_ += s.spins;
      return s;
    }
    return plan_ceding();
  }

  static void execute(const Step& s) {
    if (s.kind == StepKind::kSpin) {
      for (int i = 0; i < s.spins; ++i) cpu_relax();
    } else {
      cede(s);
    }
  }

  void pause() { execute(plan()); }

  void reset() {
    spun_ = 0;
    ceding_ = false;
    sleep_us_ = kMinSleepUs;
  }

  // The awaited thread showed progress: the silence window starts over at
  // the latest step, so the wait sleeps only after a whole window without
  // progress, and its first sleep is kMinSleepUs again. A wait still in its
  // spin phase is unchanged.
  void keep_awake() {
    quiet_since_ = now_;
    sleep_us_ = kMinSleepUs;
  }

  // True once the backoff has escalated to ceding the CPU (yield or sleep).
  bool yielding() const { return ceding_; }

  // True once the awaited thread has been silent for the whole window as of
  // the latest step: waits are sleep ticks from here.
  bool sleeping() const {
    return ceding_ && now_ - quiet_since_ >= kSilenceWindowNs;
  }

  // Clock reading of the latest yield or sleep step (0 while spinning).
  std::uint64_t now() const { return now_; }

  static constexpr int kDefaultSpinRounds = 7;
  // Two rounds (3 pauses), for waits where threads outnumber CPUs: there
  // the awaited thread may need this very CPU.
  static constexpr int kOversubscribedSpinRounds = 2;
  // Pauses per spin step: how often a spinning waiter re-checks.
  static constexpr int kSpinGrain = 4;
  // Silence before the first sleep tick: about 1,200 yield steps of a
  // coordination wait on an idle core, and several scheduler quanta on a
  // busy one.
  static constexpr std::uint64_t kSilenceWindowNs = 500'000;
  static constexpr int kMinSleepUs = 20;
  static constexpr int kDefaultMaxSleepUs = 256;

 private:
  // The yield and sleep steps stay out of line, so a wait loop inlined into
  // a hot path (the pessimistic contended lock) carries only its spin.
  [[gnu::noinline]] Step plan_ceding() {
    Step s;
    now_ = clock_();
    if (!ceding_) {
      ceding_ = true;
      quiet_since_ = now_;
    }
    if (!sleeping()) {
      s.kind = StepKind::kYield;
      return s;
    }
    s.kind = StepKind::kSleep;
    s.sleep_us = jittered(sleep_us_);
    if (sleep_us_ < max_sleep_us_) {
      sleep_us_ *= 2;
      if (sleep_us_ > max_sleep_us_) sleep_us_ = max_sleep_us_;
    }
    return s;
  }

  [[gnu::noinline]] static void cede(const Step& s) {
    if (s.kind == StepKind::kYield) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(s.sleep_us));
    }
  }

  // xorshift32; returns sleep_us ±25% when jitter is enabled. Deterministic
  // in the seed, so tests can predict the full escalation sequence.
  int jittered(int sleep_us) {
    if (rng_ == 0) return sleep_us;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 17;
    rng_ ^= rng_ << 5;
    // Map into [-25%, +25%]: quarter = sleep_us/4, offset in [0, 2*quarter].
    const int quarter = sleep_us / 4;
    if (quarter == 0) return sleep_us;
    const int offset = static_cast<int>(rng_ % (2u * quarter + 1u));
    return sleep_us - quarter + offset;
  }

  int spun_ = 0;
  int spin_pauses_;
  bool ceding_ = false;
  std::uint64_t now_ = 0;
  std::uint64_t quiet_since_ = 0;
  int sleep_us_ = kMinSleepUs;
  int max_sleep_us_;
  std::uint32_t rng_;
  Clock clock_;
};

}  // namespace ht
