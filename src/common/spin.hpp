// Spin-wait backoff for cross-thread waits.
//
// Coordination in this system is a cross-thread round trip: the requester
// waits until the remote thread reaches a safe point. On a multi-core host
// the remote thread usually runs on another core and answers within a few
// microseconds, so the backoff first spins for about one such round trip.
// The spin is bounded: when threads outnumber cores, the thread being
// waited for may need this very CPU, so the backoff then escalates to
// std::this_thread::yield(), which keeps the "explicit coordination costs a
// round trip, not a quantum" property of the paper intact.
//
// Yielding has its own failure mode: when the waited-on thread is stalled
// (not merely descheduled), every yield is immediately rescheduled back and
// the waiter burns a full core indefinitely — a yield storm. After a yield
// budget the backoff escalates again to short sleep_for ticks, doubling up
// to a cap, so a stalled-owner wait costs wakeups per second, not a core.
// A waiter that can see the awaited thread progress calls keep_awake(): a
// sleeping waiter answers nobody and wakes late, so sleeps are kept for
// threads that are really frozen.
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

  // spins_before_yield: how many pause-loop rounds before ceding the CPU.
  // Round i spins 2^i pauses, so the default 7 rounds spin 127 pauses
  // (about 3 us at ~25 ns a pause), about one multi-core round trip.
  // yields_before_sleep: how many yield rounds before escalating to sleep
  // ticks. Large enough that every healthy wait (the owner responds within
  // a few scheduling quanta) finishes while still yielding; responses are
  // then observed with sub-quantum latency and sleeps only trigger against
  // genuinely stalled owners.
  // max_sleep_us: cap for the doubling sleep tick (lease re-request period).
  // jitter_seed: nonzero enables ±25% deterministic jitter on each sleep so
  // multiple coordinators whose leases expired together don't re-request in
  // lockstep; zero disables jitter (exact doubling, as before).
  explicit Backoff(int spins_before_yield = kDefaultSpinRounds,
                   int yields_before_sleep = kDefaultYieldsBeforeSleep,
                   int max_sleep_us = kDefaultMaxSleepUs,
                   std::uint32_t jitter_seed = 0)
      : limit_(spins_before_yield),
        sleep_after_(spins_before_yield + yields_before_sleep),
        max_sleep_us_(max_sleep_us < kMinSleepUs ? kMinSleepUs : max_sleep_us),
        rng_(jitter_seed) {}

  // Computes the next wait step and advances the escalation state, without
  // performing the wait. pause() == execute(plan()).
  Step plan() {
    Step s;
    if (count_ < limit_) {
      s.kind = StepKind::kSpin;
      s.spins = 1 << count_;
      ++count_;
    } else if (count_ < sleep_after_) {
      s.kind = StepKind::kYield;
      ++count_;
    } else {
      s.kind = StepKind::kSleep;
      s.sleep_us = jittered(sleep_us_);
      if (sleep_us_ < max_sleep_us_) {
        sleep_us_ *= 2;
        if (sleep_us_ > max_sleep_us_) sleep_us_ = max_sleep_us_;
      }
    }
    return s;
  }

  static void execute(const Step& s) {
    switch (s.kind) {
      case StepKind::kSpin:
        for (int i = 0; i < s.spins; ++i) cpu_relax();
        break;
      case StepKind::kYield:
        std::this_thread::yield();
        break;
      case StepKind::kSleep:
        std::this_thread::sleep_for(std::chrono::microseconds(s.sleep_us));
        break;
    }
  }

  void pause() { execute(plan()); }

  void reset() {
    count_ = 0;
    sleep_us_ = kMinSleepUs;
  }

  // The awaited thread showed progress: a wait that has ceded the CPU goes
  // back to the start of its yield budget, so it sleeps only after a whole
  // budget of yields sees no progress, and its first sleep is kMinSleepUs
  // again. A wait still in its spin phase is unchanged.
  void keep_awake() {
    if (count_ > limit_) count_ = limit_;
    sleep_us_ = kMinSleepUs;
  }

  // True once the backoff has escalated to ceding the CPU (yield or sleep).
  bool yielding() const { return count_ >= limit_; }

  // True once the yield budget is exhausted and waits are sleep ticks.
  bool sleeping() const { return count_ >= sleep_after_; }

  static constexpr int kDefaultSpinRounds = 7;
  // Two rounds (3 pauses), for waits where threads outnumber CPUs: there
  // the awaited thread may need this very CPU.
  static constexpr int kOversubscribedSpinRounds = 2;
  static constexpr int kDefaultYieldsBeforeSleep = 64;
  static constexpr int kMinSleepUs = 20;
  static constexpr int kDefaultMaxSleepUs = 256;

 private:
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

  int count_ = 0;
  int limit_;
  int sleep_after_;
  int sleep_us_ = kMinSleepUs;
  int max_sleep_us_;
  std::uint32_t rng_;
};

}  // namespace ht
