// E19 — node reclamation by hazard pointers (hw/reclaim.h).
//
// The single-register fetch&add hammer (hammer.h) with wide values, so
// every write installs a node and retires its predecessor, in three
// executor shapes:
//
//   * Hammer          — raw HwMemory, one OS thread per process, no
//     fault; max_stall_spins records the worst publish/re-validate retry
//     tail of a protected load under contention.
//   * Hammer/StalledPeer — one extra process parks *inside* an rmw (its
//     RmwFunction blocks until the hammer finishes), keeping its hazard
//     word published for the whole run. It protects nothing the hammer
//     retires, so every retired node stays reclaimable.
//   * Oversub          — M = 16·N coroutine processes on N carrier
//     threads (OversubscribedExecutor, which yields after every shared
//     op), so the carrier-bound slots (N hazard words, not M) are on the
//     measured path, protections surviving coroutine migration. Its
//     counter also counts from above kInlineMaxU64.
//
// Every case LLSC_CHECKs node_high_water <= slots × scan threshold
// (Reclaimer::max_unreclaimed), so the smoke run asserts the E19 bound.
// Reported per case: hw_ops_per_sec, nodes_retired,
// nodes_reclaimed, node_high_water (the memory-growth headline),
// max_stall_spins (the reclamation-stall tail), scan_passes, and
// stalled_peer (0/1). tools/bench_to_csv.py --check validates the schema
// and the retired ≥ reclaimed invariant.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "hammer.h"
#include "hw/oversub_executor.h"
#include "memory/rmw.h"
#include "util/check.h"

namespace llsc {
namespace {

// `slots` is the run's hazard slot count: processes for the raw hammer,
// carriers for the oversubscribed leg.
void report_e19(benchmark::State& state, int threads,
                double ops_per_second, const ReclaimStats& reclaim,
                int slots, bool stalled_peer) {
  state.counters["n_threads"] = threads;
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
  LLSC_CHECK(reclaim.node_high_water <= Reclaimer::max_unreclaimed(slots),
             "unreclaimed nodes exceed slots x scan threshold");
}

void run_hammer(benchmark::State& state, bool stalled_peer) {
  const int threads = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  HammerResult r;
  for (auto _ : state) {
    r = hammer_one_register(ValueWidth::kWide, threads, ops, stalled_peer);
  }
  const double total = static_cast<double>(threads) * ops;
  report_e19(state, threads,
             r.wall_seconds > 0 ? total / r.wall_seconds : 0.0, r.reclaim,
             r.slots, stalled_peer);
}

void BM_E19_Hammer(benchmark::State& state) {
  run_hammer(state, /*stalled_peer=*/false);
}
void BM_E19_Hammer_StalledPeer(benchmark::State& state) {
  run_hammer(state, /*stalled_peer=*/true);
}

// --- oversubscribed leg: M = 16·N coroutines on N carriers ---------------

SimTask counter_body(ProcCtx ctx, std::shared_ptr<const RmwFunction> inc,
                     int ops) {
  for (int k = 0; k < ops; ++k) (void)co_await ctx.rmw(0, inc);
  co_return Value{};
}

void BM_E19_Oversub(benchmark::State& state) {
  const int num_threads = static_cast<int>(state.range(0));
  const int m = 16 * num_threads;
  const int ops = static_cast<int>(state.range(1));
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? kInlineMaxU64 + 1 : v.as_u64() + 1);
  });
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  HwRunResult run;
  for (auto _ : state) {
    OversubRunOptions options;
    options.seed = 19;
    options.num_threads = num_threads;
    OversubscribedExecutor exec(options);
    run = exec.run(m, body);
    LLSC_CHECK(run.ok, "oversubscribed reclamation run did not terminate");
  }
  const double ops_per_second =
      run.wall_seconds > 0
          ? static_cast<double>(run.total_shared_ops) / run.wall_seconds
          : 0.0;
  report_e19(state, num_threads, ops_per_second, run.reclaim, num_threads,
             /*stalled_peer=*/false);
  state.counters["oversub_factor"] = 16;
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

BENCHMARK(BM_E19_Hammer)->Apply(e19_hammer_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Hammer_StalledPeer)->Apply(e19_hammer_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E19_Oversub)->Apply(e19_oversub_sweep)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llsc
