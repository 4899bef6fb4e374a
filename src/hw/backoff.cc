#include "hw/backoff.h"

#include <chrono>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>
#endif

namespace llsc {

namespace {

// Upper bound on one park. Parking is a latency/CPU-burn optimization —
// the retry loops stay lock-free — so a missed wake (the documented
// ParkSpot race) only ever costs this much before the thread re-checks.
constexpr long kParkTimeoutNs = 1'000'000;  // 1 ms

#if defined(__linux__)

// futex(2)-backed parking: wait while *word == expected, woken by
// wake_all or the timeout. EAGAIN (word already changed), EINTR, and
// ETIMEDOUT are all fine — the caller re-checks in its retry loop.
class FutexWaiter final : public Waiter {
 public:
  void wait(std::atomic<std::uint32_t>& word,
            std::uint32_t expected) override {
    timespec timeout{};
    timeout.tv_sec = 0;
    timeout.tv_nsec = kParkTimeoutNs;
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_PRIVATE, expected, &timeout, nullptr, 0);
  }

  void wake_all(std::atomic<std::uint32_t>& word) override {
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
  }
};

using SystemWaiter = FutexWaiter;

#else

// Portable fallback: a short sleep stands in for the futex wait
// (std::atomic::wait has no timeout, which the Waiter contract requires);
// wake_all is then best-effort via notify_all for platforms whose
// libstdc++ implements atomic waiting with a futex table anyway.
class TimedSleepWaiter final : public Waiter {
 public:
  void wait(std::atomic<std::uint32_t>& word,
            std::uint32_t expected) override {
    if (word.load(std::memory_order_acquire) != expected) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(kParkTimeoutNs));
  }

  void wake_all(std::atomic<std::uint32_t>& word) override {
    word.notify_all();
  }
};

using SystemWaiter = TimedSleepWaiter;

#endif

}  // namespace

Waiter& Waiter::system() {
  static SystemWaiter waiter;
  return waiter;
}

}  // namespace llsc
