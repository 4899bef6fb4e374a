// E10 — hw backend throughput: the universal constructions running on real
// threads (HwExecutor over HwMemory) vs the single-threaded simulator.
//
// Reported per case: ops/sec across all processes, p50/p99 per-operation
// latency, and the observed worst per-op shared-access cost (which must
// stay within the analytic worst case — wait-freedom on metal). The
// `*_Simulator` benchmarks run the identical workload body through System
// under round-robin as the contrast column.
//
// Expected shape: hw ops/sec scales with thread count up to the core
// count; on a single-core host hw and simulator throughput are comparable
// (the hw column then mainly demonstrates correctness under preemptive
// interleavings, not speedup — see EXPERIMENTS.md E10 for the recorded
// caveat). shared_ops_per_uc_op grows ~log2(n) for Group-Update and ~n for
// the single-register construction on BOTH platforms.
// E11 rides along below: BM_HwBackoff runs the retry-loop backoff
// (hw/backoff.h) on the single-register rmw hammer (hammer.h) with wide
// values across thread counts, including an oversubscribed point
// (threads = 2 × cores) where the parking tier engages.
// E14: BM_E14_* compares the two register forms (memory/storage_policy.h)
// — inline 64-bit tagged words vs versioned nodes — by hammering narrow vs
// wide values, and runs the count-based wakeup algorithm via HwExecutor.
// E15 (bottom): BM_E15_* pits the flat-combining universal construction
// (universal/combining.h) against the single-register helping baseline
// and the raw LL/SC DirectFetchAdd on real threads, reporting ops/sec and
// — for combining — the mean batch size per successful install. Combining
// and direct are lock-free, not wait-free, so E15 deliberately does NOT
// reuse E10's shared_ops-vs-analytic-worst-case assertion; exactness is
// audited through the response sum alone.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "direct/direct.h"
#include "hammer.h"
#include "hw/hw_executor.h"
#include "wakeup/algorithms.h"
#include "objects/arith.h"
#include "universal/combining.h"
#include "universal/group_update.h"
#include "universal/single_register.h"
#include "util/check.h"

namespace llsc {
namespace {

enum class Which { kGroupUpdate, kSingleRegister };

std::unique_ptr<UniversalConstruction> make_uc(Which which, int n) {
  const ObjectFactory factory = [] {
    return std::make_unique<FetchAddObject>(64, 0);
  };
  if (which == Which::kGroupUpdate) {
    return std::make_unique<GroupUpdateUC>(n, factory);
  }
  return std::make_unique<SingleRegisterUC>(n, factory);
}

void check_and_report(benchmark::State& state, const UcThroughput& t,
                      std::uint64_t analytic_worst_case) {
  // Every fetch&increment response is a distinct counter value — the sum
  // is schedule-independent, so this catches lost/duplicated operations.
  LLSC_CHECK(t.response_sum ==
                 t.total_uc_ops * (t.total_uc_ops - 1) / 2,
             "fetch&increment responses are wrong");
  state.counters["n_threads"] = t.n;
  state.counters["uc_ops_per_sec"] = t.ops_per_second;
  state.counters["latency_p50_ns"] = static_cast<double>(t.latency.p50_ns());
  state.counters["latency_p99_ns"] = static_cast<double>(t.latency.p99_ns());
  state.counters["shared_ops_per_uc_op"] = t.shared_ops_per_uc_op;
  state.counters["analytic_worst_case"] =
      static_cast<double>(analytic_worst_case);
  LLSC_CHECK(t.shared_ops_per_uc_op <=
                 static_cast<double>(analytic_worst_case),
             "a process exceeded the analytic worst case");
}

void run_hw(benchmark::State& state, Which which) {
  const int n = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  UcThroughput t;
  std::uint64_t worst = 0;
  for (auto _ : state) {
    auto uc = make_uc(which, n);
    worst = uc->worst_case_shared_ops();
    HwExecutor exec;
    t = run_uc_on_hw(exec, *uc, n, ops, make_op);
  }
  check_and_report(state, t, worst);
}

void run_sim(benchmark::State& state, Which which) {
  const int n = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  UcThroughput t;
  std::uint64_t worst = 0;
  for (auto _ : state) {
    auto uc = make_uc(which, n);
    worst = uc->worst_case_shared_ops();
    t = run_uc_on_simulator(*uc, n, ops, make_op);
  }
  check_and_report(state, t, worst);
}

void BM_GroupUpdate_Hw(benchmark::State& state) {
  run_hw(state, Which::kGroupUpdate);
}
void BM_GroupUpdate_Simulator(benchmark::State& state) {
  run_sim(state, Which::kGroupUpdate);
}
void BM_SingleRegister_Hw(benchmark::State& state) {
  run_hw(state, Which::kSingleRegister);
}
void BM_SingleRegister_Simulator(benchmark::State& state) {
  run_sim(state, Which::kSingleRegister);
}

void thread_sweep(benchmark::internal::Benchmark* b) {
  for (const int n : {1, 2, 4, 8, 16}) {
    b->Args({n, /*ops_per_process=*/64});
  }
}

// hw_ops_per_sec is total ops over total wall time across every iteration
// (one iteration's rate swings several-fold with scheduling); the other
// counters are the last iteration's.
void BM_HwBackoff(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  HammerResult r;
  double wall = 0.0;
  std::uint64_t total_ops = 0;
  for (auto _ : state) {
    r = hammer_one_register(ValueWidth::kWide, threads, ops);
    wall += r.wall_seconds;
    total_ops += static_cast<std::uint64_t>(threads) *
                 static_cast<std::uint64_t>(ops);
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  state.counters["n_threads"] = threads;
  state.counters["oversubscribed"] =
      threads > static_cast<int>(cores) ? 1.0 : 0.0;
  state.counters["hw_ops_per_sec"] =
      wall > 0 ? static_cast<double>(total_ops) / wall : 0.0;
  state.counters["cas_failure_rate"] = r.backoff.failure_rate();
  state.counters["spin_pauses"] = static_cast<double>(r.backoff.spin_pauses);
  state.counters["yields"] = static_cast<double>(r.backoff.yields);
  state.counters["parks"] = static_cast<double>(r.backoff.parks);
  state.counters["wakes"] = static_cast<double>(r.backoff.wakes);
}

// Low contention (1), moderate (2), saturation (cores), and an
// oversubscribed point (2 × cores) where threads outnumber cores and
// spinning burns timeslices the contending writers need.
void backoff_sweep(benchmark::internal::Benchmark* b) {
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2, cores, 2 * cores};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const int threads : counts) {
    b->Args({threads, /*ops_per_thread=*/2000});
  }
}

// --- E14: inline words vs nodes -----------------------------------------
//
//   * StorageHammer — the E11 single-register fetch&add hammer (default
//     backoff) with narrow values, where every write is one CAS of an
//     inline word, and with wide values, where every write allocates a
//     node and retires its predecessor. Narrow counts fit a 47-bit payload
//     and each run writes its fresh register fewer than 65,535 times, so
//     narrow runs must report zero node allocations and zero overflows,
//     and wide runs one node per write — checked, not assumed.
//   * Wakeup — the count-based wakeup algorithm (backoff_counter_wakeup)
//     on HwExecutor: small counts through the full executor stack, so
//     again no node.

void report_e14(benchmark::State& state, int threads, double ops_per_second,
                const RegisterWidthStats& width,
                const ReclaimStats& reclaim) {
  state.counters["n_threads"] = threads;
  state.counters["hw_ops_per_sec"] = ops_per_second;
  state.counters["overflow_events"] =
      static_cast<double>(width.overflow_events);
  state.counters["nodes_allocated"] =
      static_cast<double>(reclaim.nodes_allocated);
}

void run_storage_hammer(benchmark::State& state, ValueWidth width) {
  const int threads = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  HammerResult r;
  for (auto _ : state) {
    r = hammer_one_register(width, threads, ops);
  }
  const double total = static_cast<double>(threads) * ops;
  report_e14(state, threads,
             r.wall_seconds > 0 ? total / r.wall_seconds : 0.0, r.width,
             r.reclaim);
  const std::uint64_t node_writes =
      width == ValueWidth::kWide ? r.width.writes_inspected : 0;
  LLSC_CHECK(r.reclaim.nodes_allocated == node_writes &&
                 r.width.overflow_events == node_writes,
             "node allocations or overflows do not match the value width");
}

void BM_E14_StorageHammer_Narrow(benchmark::State& state) {
  run_storage_hammer(state, ValueWidth::kNarrow);
}
void BM_E14_StorageHammer_Wide(benchmark::State& state) {
  run_storage_hammer(state, ValueWidth::kWide);
}

void BM_E14_Wakeup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ProcBody body = backoff_counter_wakeup();
  HwRunResult run;
  for (auto _ : state) {
    HwRunOptions opts;
    opts.seed = 21;
    HwExecutor exec(opts);
    run = exec.run(n, body);
    LLSC_CHECK(run.ok, "wakeup run did not terminate cleanly");
  }
  const double ops_per_second =
      run.wall_seconds > 0
          ? static_cast<double>(run.total_shared_ops) / run.wall_seconds
          : 0.0;
  report_e14(state, n, ops_per_second, run.width, run.reclaim);
  LLSC_CHECK(run.reclaim.nodes_allocated == 0,
             "the wakeup counts took a node");
}

void e14_hammer_sweep(benchmark::internal::Benchmark* b) {
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2, cores};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const int threads : counts) {
    b->Args({threads, /*ops_per_thread=*/2000});
  }
}

void e14_wakeup_sweep(benchmark::internal::Benchmark* b) {
  for (const int n : {2, 4, 8}) {
    b->Args({n});
  }
}

// --- E15: flat-combining vs helping vs raw LL/SC on real threads ---------
//
// Every thread performs `ops` fetch&increment operations through one of
// three implementations of the same object:
//
//   * Combining     — CombiningUniversal in its strict (unbounded-retry)
//     mode: announce + toggle, one winner applies the whole pending batch
//     and CAS-installs state + responses, losers adopt.
//   * SingleRegister — the classic one-register helping construction
//     (every process re-applies every announced op).
//   * DirectFetchAdd — the oblivious-free LL/SC retry loop; the
//     "hardware" price of the operation, no universality overhead.
//
// The batching thesis: under contention a single combining install
// retires several operations, so its ops/sec should beat SingleRegister
// from n >= 8 while mean_batch_size climbs past 1. Combining and direct
// are lock-free (per-attempt cost bounded, total cost not), so unlike
// E10 no shared-ops-vs-worst-case bound is asserted here — correctness
// is the response-sum audit only. Both constructions' structured payloads
// demote their registers on the first write and then take a node per
// install (toggle words stay inline by design; see universal/combining.h).

enum class E15Which { kCombining, kSingleRegister, kDirect };

void run_e15(benchmark::State& state, E15Which which) {
  const int n = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  const ObjectFactory factory = [] {
    return std::make_unique<FetchAddObject>(64, 0);
  };
  UcThroughput t;
  CombiningStats cstats;
  for (auto _ : state) {
    std::unique_ptr<UniversalConstruction> uc;
    CombiningUniversal* combining = nullptr;
    switch (which) {
      case E15Which::kCombining: {
        auto c = std::make_unique<CombiningUniversal>(n, factory);
        combining = c.get();
        uc = std::move(c);
        break;
      }
      case E15Which::kSingleRegister:
        uc = std::make_unique<SingleRegisterUC>(n, factory);
        break;
      case E15Which::kDirect:
        uc = std::make_unique<DirectFetchAdd>();
        break;
    }
    HwExecutor exec;
    t = run_uc_on_hw(exec, *uc, n, ops, make_op);
    if (combining != nullptr) cstats = combining->stats();
  }
  LLSC_CHECK(t.response_sum == t.total_uc_ops * (t.total_uc_ops - 1) / 2,
             "fetch&increment responses are wrong");
  state.counters["n_threads"] = n;
  state.counters["uc_ops_per_sec"] = t.ops_per_second;
  state.counters["latency_p50_ns"] = static_cast<double>(t.latency.p50_ns());
  state.counters["latency_p99_ns"] = static_cast<double>(t.latency.p99_ns());
  state.counters["shared_ops_per_uc_op"] = t.shared_ops_per_uc_op;
  if (which == E15Which::kCombining) {
    // A zero-batch run (every op adopted, or crash-stop before the first
    // winner install) has no meaningful mean: report batches = 0 and OMIT
    // mean_batch_size rather than emit 0/NaN that --check would reject
    // (tools/bench_to_csv.py accepts exactly this shape).
    if (cstats.installs > 0) {
      state.counters["mean_batch_size"] = cstats.mean_batch_size();
    }
    state.counters["batches"] = static_cast<double>(cstats.installs);
    state.counters["adopted"] = static_cast<double>(cstats.adopted);
  }
}

void BM_E15_Combining(benchmark::State& state) {
  run_e15(state, E15Which::kCombining);
}
void BM_E15_SingleRegister(benchmark::State& state) {
  run_e15(state, E15Which::kSingleRegister);
}
void BM_E15_DirectFetchAdd(benchmark::State& state) {
  run_e15(state, E15Which::kDirect);
}

// The batching contrast column. On a single-core host real threads rarely
// overlap mid-protocol (each ~1us operation completes within its
// timeslice), so the hw legs above report mean_batch_size barely over 1 —
// the same host caveat E10 records for its throughput columns. Under the
// simulator's round-robin schedule every process is mid-operation at
// once, which is the regime the batching argument is about: the winner's
// snapshot sees all n toggles flipped and one install retires ~n
// operations.
void BM_E15_Combining_Simulator(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  UcThroughput t;
  CombiningStats cstats;
  for (auto _ : state) {
    CombiningUniversal uc(n, [] {
      return std::make_unique<FetchAddObject>(64, 0);
    });
    t = run_uc_on_simulator(uc, n, ops, make_op);
    cstats = uc.stats();
  }
  LLSC_CHECK(t.response_sum == t.total_uc_ops * (t.total_uc_ops - 1) / 2,
             "fetch&increment responses are wrong");
  state.counters["n_threads"] = n;
  state.counters["uc_ops_per_sec"] = t.ops_per_second;
  state.counters["shared_ops_per_uc_op"] = t.shared_ops_per_uc_op;
  // Same zero-batch contract as run_e15: omit the mean when no winner
  // ever installed.
  if (cstats.installs > 0) {
    state.counters["mean_batch_size"] = cstats.mean_batch_size();
  }
  state.counters["batches"] = static_cast<double>(cstats.installs);
  state.counters["adopted"] = static_cast<double>(cstats.adopted);
}

void e15_sweep(benchmark::internal::Benchmark* b) {
  for (const int n : {1, 2, 4, 8, 16}) {
    b->Args({n, /*ops_per_process=*/256});
  }
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_GroupUpdate_Hw)
    ->Apply(llsc::thread_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_GroupUpdate_Simulator)
    ->Apply(llsc::thread_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_SingleRegister_Hw)
    ->Apply(llsc::thread_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_SingleRegister_Simulator)
    ->Apply(llsc::thread_sweep)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_HwBackoff)
    ->Apply(llsc::backoff_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E14_StorageHammer_Narrow)
    ->Apply(llsc::e14_hammer_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E14_StorageHammer_Wide)
    ->Apply(llsc::e14_hammer_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E14_Wakeup)
    ->Apply(llsc::e14_wakeup_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_Combining)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_SingleRegister)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_DirectFetchAdd)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_Combining_Simulator)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond);
