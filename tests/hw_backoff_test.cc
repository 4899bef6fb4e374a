// Backoff: exact window sequences against the tuning constants, the
// park/unpark tier driven through a stubbed Waiter, and counter
// accounting.
#include "hw/backoff.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hw/hw_memory.h"
#include "memory/rmw.h"

namespace llsc {
namespace {

// Records every wait/wake instead of blocking, so the parking tier can be
// driven deterministically from one thread.
class StubWaiter final : public Waiter {
 public:
  void wait(std::atomic<std::uint32_t>& word, std::uint32_t expected) override {
    ++waits;
    last_expected = expected;
    last_word = &word;
  }
  void wake_all(std::atomic<std::uint32_t>& word) override {
    ++wakes;
    last_word = &word;
  }

  int waits = 0;
  int wakes = 0;
  std::uint32_t last_expected = 0;
  std::atomic<std::uint32_t>* last_word = nullptr;
};

BackoffOptions parking(Waiter* waiter, std::uint32_t park_threshold) {
  BackoffOptions o;
  o.waiter = waiter;
  o.park_threshold = park_threshold;
  return o;
}

// Failures (with no ParkSpot, so none parks) that walk a fresh window
// 4 → 1024.
constexpr int kFailuresToSaturate = 8;

void saturate(Backoff& b) {
  for (int i = 0; i < kFailuresToSaturate; ++i) b.on_failure();
  ASSERT_EQ(b.window(), kMaxSpins);
}

TEST(HwBackoffTest, WindowDoublesToTheCapAndNeverExceedsIt) {
  Backoff b;
  b.begin_op();
  EXPECT_EQ(b.window(), kMinSpins);
  std::vector<std::uint32_t> seen;
  for (int i = 0; i < kFailuresToSaturate + 3; ++i) {
    b.on_failure();
    seen.push_back(b.window());
  }
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{8, 16, 32, 64, 128, 256, 512,
                                              1024, 1024, 1024, 1024}));
}

TEST(HwBackoffTest, WindowPersistsAcrossOperations) {
  Backoff b;
  b.begin_op();
  for (int i = 0; i < 6; ++i) b.on_failure();  // 8,16,...,256
  EXPECT_EQ(b.window(), 256u);
  b.on_success();  // additive decrease by kDecreaseStep
  b.begin_op();
  EXPECT_EQ(b.window(), 256u - kDecreaseStep);  // carried into the next op
}

TEST(HwBackoffTest, EachSuccessNarrowsTheWindowDownToTheFloor) {
  Backoff b;
  b.begin_op();
  for (int i = 0; i < 4; ++i) b.on_failure();  // 8,16,32,64
  ASSERT_EQ(b.window(), 64u);
  std::vector<std::uint32_t> down;
  for (int i = 0; i < 3; ++i) {
    b.on_success();
    down.push_back(b.window());
  }
  // 64 − 32 = 32, then 32 − 32 would cross the floor: clamp to 4.
  EXPECT_EQ(down, (std::vector<std::uint32_t>{32, kMinSpins, kMinSpins}));

  // From the cap it takes (1024 − 4) / 32 rounded up successes to land
  // on the floor, one step of 32 at a time.
  saturate(b);
  std::uint32_t steps = 0;
  while (b.window() > kMinSpins) {
    const std::uint32_t before = b.window();
    b.on_success();
    ++steps;
    EXPECT_TRUE(b.window() == before - kDecreaseStep ||
                b.window() == kMinSpins);
  }
  EXPECT_EQ(steps, (kMaxSpins - kMinSpins + kDecreaseStep - 1) / kDecreaseStep);
}

TEST(HwBackoffTest, WindowsFromTheYieldThresholdUpYield) {
  Backoff b;
  b.begin_op();
  // Windows waited on: 4..128 spin (6), then 256, 512, 1024, 1024 yield.
  for (int i = 0; i < 10; ++i) b.on_failure();
  EXPECT_EQ(b.stats().spin_pauses, 6u);
  EXPECT_EQ(b.stats().yields, 4u);
  EXPECT_EQ(b.stats().parks, 0u);
  static_assert(kYieldSpins == 256);
}

TEST(HwBackoffTest, ParkingEngagesOnlyAfterSaturatedStreak) {
  StubWaiter waiter;
  Backoff b(parking(&waiter, 3));
  ParkSpot spot;
  b.begin_op();
  // The window reaches the cap after 8 failures; the saturation streak
  // then has to exceed park_threshold before the first park.
  for (int i = 0; i < kFailuresToSaturate + 3; ++i) b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 0);
  b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 1);
  EXPECT_EQ(b.stats().parks, 1u);
  EXPECT_EQ(waiter.last_word, &spot.seq);
  // Once saturated, every further failure parks...
  b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 2);
  // ...until a success resets the streak.
  b.on_success();
  b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 2);
  // ...as does the start of a new operation.
  for (int i = 0; i < 4; ++i) b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 3);
  b.begin_op();
  b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 3);
  // The waiters count must be balanced after every park.
  EXPECT_EQ(spot.waiters.load(), 0u);
}

// The lost-wakeup window (the service-mode latency cliff): the parker
// fails its CAS seeing `observed`, then a writer installs a new value
// and — correctly, per the writer protocol — skips the seq bump and wake
// because `waiters` is still 0, and only then does the parker park. The
// writer runs on its own thread and completes (join) before the park, so
// this is exactly the interleaving the old ordering lost: it would call
// Waiter::wait and sleep out the full timeout. The fixed park re-checks
// the word after registering in `waiters` and must skip the wait.
TEST(HwBackoffTest, ParkRechecksWordSoAWakelessWriterIsNeverMissed) {
  StubWaiter waiter;  // records waits: a recorded wait IS the lost wakeup
  // Saturated window, threshold 0: the next failure at a spot parks.
  Backoff b(parking(&waiter, 0));
  saturate(b);
  ParkSpot spot;
  std::atomic<std::uint64_t> word{7};
  const std::uint64_t observed =
      word.load(std::memory_order_seq_cst);  // the failed CAS's snapshot
  b.begin_op();
  std::thread writer([&] {
    word.store(8, std::memory_order_seq_cst);  // install a new value
    // Writer-side wake protocol (HwMemory::wake_waiters): no
    // registered waiters, so no seq bump and no wake — legal, and the
    // half of the race the parker's re-check exists to cover.
    if (spot.waiters.load(std::memory_order_seq_cst) != 0) {
      spot.seq.fetch_add(1, std::memory_order_seq_cst);
      waiter.wake_all(spot.seq);
    }
  });
  writer.join();  // the write and skipped wake land before the park
  b.on_failure(&spot, &word, observed);
  EXPECT_EQ(waiter.waits, 0);  // old ordering: 1 (slept on a stale word)
  EXPECT_EQ(b.stats().parks, 1u);
  EXPECT_EQ(b.stats().park_skips, 1u);
  EXPECT_EQ(spot.waiters.load(), 0u);  // balanced on the skip path too
}

// The complement: when the word has NOT moved, the re-check must not turn
// parking into a spin loop — the parker registers and waits as before.
TEST(HwBackoffTest, ParkStillWaitsWhenWordIsUnchanged) {
  StubWaiter waiter;
  Backoff b(parking(&waiter, 0));
  saturate(b);
  ParkSpot spot;
  std::atomic<std::uint64_t> word{7};
  b.begin_op();
  b.on_failure(&spot, &word, word.load());
  EXPECT_EQ(waiter.waits, 1);
  EXPECT_EQ(b.stats().parks, 1u);
  EXPECT_EQ(b.stats().park_skips, 0u);
  EXPECT_EQ(spot.waiters.load(), 0u);
}

TEST(HwBackoffTest, ParkingNeverEngagesWithoutASpot) {
  StubWaiter waiter;
  Backoff b(parking(&waiter, 0));
  b.begin_op();
  for (int i = 0; i < 2 * kFailuresToSaturate; ++i) b.on_failure(nullptr);
  EXPECT_EQ(waiter.waits, 0);
  EXPECT_EQ(b.stats().parks, 0u);
}

TEST(HwBackoffTest, StatsCountEveryTierAndFailureRate) {
  StubWaiter waiter;
  Backoff b(parking(&waiter, 2));
  ParkSpot spot;
  b.begin_op();
  // Windows walked: 4..128 (spin tier, 6), 256, 512 (yield), then
  // saturated at 1024 — the first two saturated failures still yield
  // (streak 1, 2 not above park_threshold = 2), the next two park.
  for (int i = 0; i < 12; ++i) b.on_failure(&spot);
  const BackoffStats& s = b.stats();
  EXPECT_EQ(s.cas_failures, 12u);
  EXPECT_EQ(s.spin_pauses, 6u);
  EXPECT_EQ(s.yields, 4u);
  EXPECT_EQ(s.parks, 2u);
  b.on_success();
  EXPECT_EQ(b.stats().cas_successes, 1u);
  EXPECT_DOUBLE_EQ(b.stats().failure_rate(), 12.0 / 13.0);

  Backoff idle;
  EXPECT_DOUBLE_EQ(idle.stats().failure_rate(), 0.0);
}

// End-to-end through HwMemory: a contended rmw loop with a stubbed
// waiter records parks on the loser and wakes from
// the winner. Single-threaded here — contention is simulated by the stub
// never blocking — so the assertion is about the plumbing (options reach
// the per-thread Backoff, stats aggregate, wake fires when a waiter is
// registered), not about scheduling.
TEST(HwBackoffTest, HwMemoryAggregatesStatsAndWakesRegisteredWaiters) {
  StubWaiter waiter;
  BackoffOptions o;
  o.waiter = &waiter;
  HwMemory mem(2, 2, o);
  // Uncontended installs: successes accumulate, no failures, no wakes
  // (nobody is registered in any ParkSpot).
  for (int i = 0; i < 10; ++i) {
    (void)mem.swap(0, 0, Value::of_u64(static_cast<std::uint64_t>(i)));
  }
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  (void)mem.rmw(1, 0, *inc);
  HwBackoffStats s = mem.backoff_stats();
  EXPECT_EQ(s.cas_successes, 11u);
  EXPECT_EQ(s.cas_failures, 0u);
  EXPECT_EQ(s.parks, 0u);
  EXPECT_EQ(s.wakes, 0u);
  EXPECT_EQ(waiter.wakes, 0);
  EXPECT_DOUBLE_EQ(s.failure_rate(), 0.0);
}

}  // namespace
}  // namespace llsc
