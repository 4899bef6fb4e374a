// E19 — node reclamation under the Reclaimer seam (hw/reclaim.h):
// three-epoch batches vs per-slot hazard pointers.
//
// The E14 storage hammer (single boxed register, fetch&add rmw retry
// loop) re-run with the reclaimer as the only variable, across three
// executor shapes:
//
//   * Hammer          — raw HwMemory, one OS thread per process. The
//     no-fault baseline: epochs should win modestly on throughput (an
//     epoch entry is one uncontended store; a hazard protect is a
//     publish + re-validate round-trip, and max_stall_spins records its
//     worst retry tail under contention).
//   * Hammer/StalledPeer — one extra process parks *inside* an rmw (its
//     RmwFunction blocks until the hammer finishes), which keeps it in
//     the reclaimer critical section for the whole run. This is the leg
//     the seam exists for: the epoch column's node_high_water grows with
//     the entire churn (the pinned epoch leaks every retired node) while
//     the hazard column's stays a small constant (scan threshold + 1 per
//     slot) — same workload, same fault, opposite memory behavior.
//   * Oversub          — M = 16·N coroutine processes on N carrier
//     threads (OversubscribedExecutor, which yields after every shared
//     op) so the hazard reclaimer's carrier-bound slots (N hazard words,
//     not M) are on the measured path, protections surviving coroutine
//     migration.
//
// Reported per case: hw_ops_per_sec, reclaimer_id (ReclaimPolicy enum:
// 0 = epoch, 1 = hazard), policy_id (storage), nodes_retired,
// nodes_reclaimed, node_high_water (the memory-growth headline),
// max_stall_spins (the reclamation-stall tail), scan_passes, and
// stalled_peer (0/1). tools/bench_to_csv.py --check validates the schema
// and the retired ≥ reclaimed invariant.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "hw/hw_memory.h"
#include "hw/oversub_executor.h"
#include "memory/rmw.h"
#include "util/check.h"

namespace llsc {
namespace {

std::shared_ptr<const RmwFunction> fetch_add1() {
  return make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
}

struct HammerResult {
  double ops_per_second = 0.0;
  ReclaimStats reclaim;
};

// The E14 hammer with an optional stalled peer: `threads` processes
// fetch&add register 0; when `stalled_peer`, process `threads` blocks
// inside an rmw on register 1 until the hammer threads finish, pinning
// its reclaimer critical section across the whole measured interval.
HammerResult hammer(ReclaimPolicy reclaimer, int threads, int ops,
                    bool stalled_peer) {
  const int procs = threads + (stalled_peer ? 1 : 0);
  HwMemory mem(2, procs, {}, StoragePolicy::kBoxed, reclaimer);
  const auto inc = fetch_add1();

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
  // Stats are read while the peer still pins its critical section — that
  // IS the measurement: the high water of a run whose stall never ended.
  HammerResult out;
  out.reclaim = mem.reclaim_stats();
  if (stalled_peer) {
    peer_release.store(true, std::memory_order_release);
    peer.join();
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(ops);
  LLSC_CHECK(mem.peek_value(0).as_u64() == total,
             "lost or duplicated rmw increments");
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  out.ops_per_second = wall > 0 ? static_cast<double>(total) / wall : 0.0;
  return out;
}

void report_e19(benchmark::State& state, int threads,
                double ops_per_second, const ReclaimStats& reclaim,
                bool stalled_peer) {
  state.counters["n_threads"] = threads;
  state.counters["reclaimer_id"] = static_cast<double>(reclaim.policy);
  state.counters["policy_id"] =
      static_cast<double>(StoragePolicy::kBoxed);
  state.counters["hw_ops_per_sec"] = ops_per_second;
  state.counters["nodes_retired"] =
      static_cast<double>(reclaim.nodes_retired);
  state.counters["nodes_reclaimed"] =
      static_cast<double>(reclaim.nodes_freed);
  state.counters["node_high_water"] =
      static_cast<double>(reclaim.node_high_water);
  state.counters["max_stall_spins"] =
      static_cast<double>(reclaim.max_stall_spins);
  state.counters["scan_passes"] = static_cast<double>(reclaim.scan_passes);
  state.counters["stalled_peer"] = stalled_peer ? 1.0 : 0.0;
  LLSC_CHECK(reclaim.nodes_freed <= reclaim.nodes_retired,
             "freed more nodes than were retired");
}

void run_hammer(benchmark::State& state, ReclaimPolicy reclaimer,
                bool stalled_peer) {
  const int threads = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  HammerResult r;
  for (auto _ : state) {
    r = hammer(reclaimer, threads, ops, stalled_peer);
  }
  report_e19(state, threads, r.ops_per_second, r.reclaim, stalled_peer);
}

void BM_E19_Hammer_Epoch(benchmark::State& state) {
  run_hammer(state, ReclaimPolicy::kEpoch, /*stalled_peer=*/false);
}
void BM_E19_Hammer_Hazard(benchmark::State& state) {
  run_hammer(state, ReclaimPolicy::kHazard, /*stalled_peer=*/false);
}
void BM_E19_Hammer_Epoch_StalledPeer(benchmark::State& state) {
  run_hammer(state, ReclaimPolicy::kEpoch, /*stalled_peer=*/true);
}
void BM_E19_Hammer_Hazard_StalledPeer(benchmark::State& state) {
  run_hammer(state, ReclaimPolicy::kHazard, /*stalled_peer=*/true);
}

// --- oversubscribed leg: M = 16·N coroutines on N carriers ---------------

SimTask counter_body(ProcCtx ctx, std::shared_ptr<const RmwFunction> inc,
                     int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    const Value old = co_await ctx.rmw(0, inc);
    sum += old.is_nil() ? 0 : old.as_u64();
  }
  co_return Value::of_u64(sum);
}

void run_oversub(benchmark::State& state, ReclaimPolicy reclaimer) {
  const int num_threads = static_cast<int>(state.range(0));
  const int m = 16 * num_threads;
  const int ops = static_cast<int>(state.range(1));
  const auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  HwRunResult run;
  for (auto _ : state) {
    OversubRunOptions options;
    options.seed = 19;
    options.num_threads = num_threads;
    options.storage = StoragePolicy::kBoxed;
    options.reclaimer = reclaimer;
    OversubscribedExecutor exec(options);
    run = exec.run(m, body);
    LLSC_CHECK(run.ok, "oversubscribed reclamation run did not terminate");
  }
  const double ops_per_second =
      run.wall_seconds > 0
          ? static_cast<double>(run.total_shared_ops) / run.wall_seconds
          : 0.0;
  report_e19(state, num_threads, ops_per_second, run.reclaim,
             /*stalled_peer=*/false);
  state.counters["oversub_factor"] = 16;
}

void BM_E19_Oversub_Epoch(benchmark::State& state) {
  run_oversub(state, ReclaimPolicy::kEpoch);
}
void BM_E19_Oversub_Hazard(benchmark::State& state) {
  run_oversub(state, ReclaimPolicy::kHazard);
}

void e19_hammer_sweep(benchmark::internal::Benchmark* b) {
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2, cores};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const int threads : counts) {
    b->Args({threads, /*ops_per_thread=*/2000});
  }
}

void e19_oversub_sweep(benchmark::internal::Benchmark* b) {
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> counts{2, std::max(2, std::min(4, cores))};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const int n : counts) {
    b->Args({n, /*ops_per_proc=*/50});
  }
}

BENCHMARK(BM_E19_Hammer_Epoch)->Apply(e19_hammer_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Hammer_Hazard)->Apply(e19_hammer_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Hammer_Epoch_StalledPeer)->Apply(e19_hammer_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Hammer_Hazard_StalledPeer)->Apply(e19_hammer_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Oversub_Epoch)->Apply(e19_oversub_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Oversub_Hazard)->Apply(e19_oversub_sweep)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llsc
