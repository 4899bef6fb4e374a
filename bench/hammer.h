// The single-register fetch&add hammer behind E11, E14 and E19.
//
// The purest retry-loop workload the backend has: `threads` processes each
// perform `ops` fetch&add rmw operations on register 0 of one HwMemory, so
// every operation is one trip through the CAS retry loop and the measured
// rate is the backoff's, the storage's and the reclaimer's, not an
// algorithm's. The final register value audits exactness.
//
// The value width picks the storage path (memory/storage_policy.h):
//   * kNarrow — counts from 0, so every write stays an inline word and the
//     run allocates no node;
//   * kWide   — counts from above kInlineMaxU64, so every write installs a
//     node and retires the one it replaces (the first replaces the inline
//     nil word), the path E11 and E19 were recorded on.
// With `stalled_peer`, one extra process parks inside an rmw on register 1
// for the whole measured interval, keeping its hazard word published on
// that register's node (register 1 takes a wide value first: an inline
// word publishes no hazard).
#ifndef LLSC_BENCH_HAMMER_H_
#define LLSC_BENCH_HAMMER_H_

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "hw/hw_memory.h"
#include "memory/rmw.h"
#include "memory/storage_policy.h"
#include "util/check.h"

namespace llsc {

enum class ValueWidth { kNarrow, kWide };

struct HammerResult {
  double wall_seconds = 0.0;
  BackoffStats backoff;
  RegisterWidthStats width;
  ReclaimStats reclaim;
  int slots = 0;  // the run's hazard slot count
};

inline HammerResult hammer_one_register(ValueWidth width, int threads,
                                        int ops, bool stalled_peer = false) {
  const std::uint64_t base = width == ValueWidth::kWide ? kInlineMaxU64 : 0;
  const int procs = threads + (stalled_peer ? 1 : 0);
  HwMemory mem(2, procs);
  const auto inc = make_rmw("inc", [base](const Value& v) {
    return Value::of_u64(v.is_nil() ? base + 1 : v.as_u64() + 1);
  });

  std::atomic<bool> peer_entered{false};
  std::atomic<bool> peer_release{false};
  const auto stall = make_rmw("stall", [&](const Value&) {
    peer_entered.store(true, std::memory_order_release);
    while (!peer_release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return Value::of_u64(1);
  });
  std::thread peer;
  if (stalled_peer) {
    (void)mem.swap(threads, 1, Value::of_u64(kInlineMaxU64 + 1));
    peer = std::thread([&] { (void)mem.rmw(threads, 1, *stall); });
    while (!peer_entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  std::barrier sync(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int i = 0; i < ops; ++i) (void)mem.rmw(t, 0, *inc);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  sync.arrive_and_wait();
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  // Stats are read while a peer is still stalled: the high water of a run
  // whose stall never ended.
  HammerResult out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.backoff = mem.backoff_stats();
  out.width = mem.width_stats();
  out.reclaim = mem.reclaim_stats();
  out.slots = mem.reclaimer().num_slots();
  if (stalled_peer) {
    peer_release.store(true, std::memory_order_release);
    peer.join();
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(ops);
  LLSC_CHECK(mem.peek_value(0).as_u64() == base + total,
             "lost or duplicated rmw increments");
  return out;
}

}  // namespace llsc

#endif  // LLSC_BENCH_HAMMER_H_
