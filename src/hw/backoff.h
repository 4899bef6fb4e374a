// Backoff for contended CAS retry loops (HwMemory::install/rmw) and the
// oversubscribed pool's idle workers.
//
// One behaviour, tuned by constants in the Synch-framework style
// (MIN_BAK/MAX_BAK) rather than policy classes. The spin window persists
// across operations and tracks the observed CAS-failure rate:
// multiplicative increase (×2, clamped to kMaxSpins) on each failure,
// additive decrease (−kDecreaseStep, clamped to kMinSpins) on each
// success. A wait spins while the window is below kYieldSpins and yields
// the timeslice at or above it. Once the window has been saturated at
// kMaxSpins for more than park_threshold consecutive failures, the
// thread parks on the register's ParkSpot futex word instead of burning
// a timeslice; successful writers wake parked threads, and a bounded
// park timeout means progress never depends on the wakeup arriving (see
// Waiter). EXPERIMENTS.md §E11 records why this is the only tier kept.
//
// The backoff object is per-thread (no shared state); the park/wake
// rendezvous goes through a per-register ParkSpot and a Waiter, which
// tests stub out to drive the park path deterministically.
#ifndef LLSC_HW_BACKOFF_H_
#define LLSC_HW_BACKOFF_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "util/spin.h"

namespace llsc {

// The one backoff behaviour; kept because perfbench/ names it, and
// nothing branches on it.
enum class BackoffPolicy : int { kAdaptiveParking };

// Window bounds, in cpu_relax() pauses.
inline constexpr std::uint32_t kMinSpins = 4;
inline constexpr std::uint32_t kMaxSpins = 1024;
// Windows at or above this spin count yield the CPU instead of spinning.
inline constexpr std::uint32_t kYieldSpins = 256;
// How much a successful CAS narrows the window.
inline constexpr std::uint32_t kDecreaseStep = 32;

// How a thread blocks once backoff escalates past spinning/yielding.
// The default (system()) parks on a futex on Linux and falls back to a
// short sleep elsewhere. Implementations must be wait-bounded: wait()
// may return spuriously and MUST return after a bounded timeout even if
// no wake ever arrives — callers re-check and retry, so a missed wake
// costs latency, never progress.
class Waiter {
 public:
  virtual ~Waiter() = default;
  // Block while word == expected (or until timeout/spurious return).
  virtual void wait(std::atomic<std::uint32_t>& word,
                    std::uint32_t expected) = 0;
  // Wake every thread blocked in wait() on `word`.
  virtual void wake_all(std::atomic<std::uint32_t>& word) = 0;

  // Process-wide default: FutexWaiter on Linux, TimedSleepWaiter elsewhere.
  static Waiter& system();
};

// Per-register park rendezvous. Writers install their value, then bump
// `seq` and wake — but only when `waiters` is non-zero; parkers register
// in `waiters`, re-snapshot `seq`, RE-CHECK the register word they failed
// against, and only then wait. The re-check closes the lost-wakeup
// window: a writer that installed before the parker's `waiters` increment
// may legitimately skip the seq bump (it saw waiters == 0), but that same
// install is what the parker's re-check observes, so the parker returns
// to its retry loop instead of sleeping out the Waiter timeout. A writer
// that installs after the increment observes waiters != 0 (both sides use
// seq_cst) and issues the wake.
struct ParkSpot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> waiters{0};
};

struct BackoffOptions {
  // Kept because perfbench/ sets it; nothing reads it.
  BackoffPolicy policy = BackoffPolicy::kAdaptiveParking;
  // Consecutive failures at a saturated (== kMaxSpins) window before the
  // thread parks instead of yielding. The retry loops use the default;
  // the pool's idle loop parks sooner.
  std::uint32_t park_threshold = 4;
  // nullptr selects Waiter::system(); tests inject a stub.
  Waiter* waiter = nullptr;
};

// Counters one Backoff instance accumulated (per thread; aggregate via
// HwMemory::backoff_stats()).
struct BackoffStats {
  std::uint64_t cas_failures = 0;
  std::uint64_t cas_successes = 0;
  std::uint64_t spin_pauses = 0;  // backoff waits served by spinning
  std::uint64_t yields = 0;       // ... by yielding the timeslice
  std::uint64_t parks = 0;        // ... by parking on a ParkSpot
  // Parks cut short by the pre-wait register re-check: the word changed
  // between the CAS failure and the park, so the thread skipped the wait
  // entirely instead of riding out the Waiter timeout.
  std::uint64_t park_skips = 0;
  // Parked threads woken by this thread's writes; charged by the storage
  // layer (HwMemory::backoff_stats), so a lone Backoff leaves it 0.
  std::uint64_t wakes = 0;

  double failure_rate() const {
    const std::uint64_t attempts = cas_failures + cas_successes;
    return attempts == 0
               ? 0.0
               : static_cast<double>(cas_failures) /
                     static_cast<double>(attempts);
  }
};

// Kept because perfbench/ names it; nothing in src/ reads it.
using HwBackoffStats = BackoffStats;

class Backoff {
 public:
  explicit Backoff(const BackoffOptions& options = {});

  // Called once at the top of each retry loop: resets the saturation
  // streak; the window carries over from the previous operation.
  void begin_op() { saturated_streak_ = 0; }

  // Called after a failed CAS: wait once (spin, yield, or park on `spot`
  // depending on the window and the saturation streak), then widen the
  // window — multiplicative increase clamped to kMaxSpins. `spot` may be
  // null (no parking tier available at this call site). When parking,
  // `word` is the atomic the caller's CAS failed against and `observed`
  // the value it saw: after registering in `waiters` the parker re-reads
  // `word` and skips the wait if it moved (see ParkSpot). A null `word`
  // skips the re-check and leans on the Waiter timeout alone.
  void on_failure(ParkSpot* spot = nullptr,
                  const std::atomic<std::uint64_t>* word = nullptr,
                  std::uint64_t observed = 0);

  // Called after the retry loop's CAS lands: narrows the window (additive
  // decrease clamped to kMinSpins).
  void on_success();

  std::uint32_t window() const { return window_; }
  const BackoffStats& stats() const { return stats_; }

 private:
  void park(ParkSpot& spot, const std::atomic<std::uint64_t>* word,
            std::uint64_t observed);

  std::uint32_t park_threshold_;
  Waiter* waiter_;
  std::uint32_t window_ = kMinSpins;
  // Consecutive on_failure calls with the window already at kMaxSpins;
  // crossing park_threshold engages the parking tier.
  std::uint32_t saturated_streak_ = 0;
  BackoffStats stats_;
};

inline Backoff::Backoff(const BackoffOptions& options)
    : park_threshold_(options.park_threshold),
      waiter_(options.waiter != nullptr ? options.waiter
                                        : &Waiter::system()) {}

inline void Backoff::on_failure(ParkSpot* spot,
                                const std::atomic<std::uint64_t>* word,
                                std::uint64_t observed) {
  ++stats_.cas_failures;
  const bool saturated = window_ >= kMaxSpins;
  saturated_streak_ = saturated ? saturated_streak_ + 1 : 0;
  if (spot != nullptr && saturated_streak_ > park_threshold_) {
    ++stats_.parks;
    park(*spot, word, observed);
  } else if (window_ >= kYieldSpins) {
    ++stats_.yields;
    std::this_thread::yield();
  } else {
    ++stats_.spin_pauses;
    for (std::uint32_t i = 0; i < window_; ++i) cpu_relax();
  }
  // Multiplicative increase, clamped.
  window_ = std::min(window_ * 2, kMaxSpins);
}

inline void Backoff::on_success() {
  ++stats_.cas_successes;
  saturated_streak_ = 0;
  // Additive decrease, clamped at the floor.
  window_ = window_ > kMinSpins + kDecreaseStep ? window_ - kDecreaseStep
                                                : kMinSpins;
}

inline void Backoff::park(ParkSpot& spot,
                          const std::atomic<std::uint64_t>* word,
                          std::uint64_t observed) {
  // Order matters, twice over. (1) Register as a waiter BEFORE
  // snapshotting seq, so a writer that bumps seq after our snapshot is
  // guaranteed to observe waiters != 0 and issue the wake. (2) Re-check
  // the contended word AFTER registering: a writer that installed before
  // our increment saw waiters == 0 and skipped its seq bump, so the only
  // trace of its write is the word itself — seeing it changed here means
  // a retry will observe new state, and sleeping would trade that for a
  // full Waiter timeout. Both sides are seq_cst, so one of the two
  // signals (changed word, or seq bump + wake) is always visible.
  spot.waiters.fetch_add(1, std::memory_order_seq_cst);
  const std::uint32_t seen = spot.seq.load(std::memory_order_seq_cst);
  if (word != nullptr &&
      word->load(std::memory_order_seq_cst) != observed) {
    ++stats_.park_skips;
    spot.waiters.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  waiter_->wait(spot.seq, seen);
  spot.waiters.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace llsc

#endif  // LLSC_HW_BACKOFF_H_
