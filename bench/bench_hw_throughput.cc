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
// (hw/backoff.h) on a raw single-register rmw hammer across thread counts,
// including an oversubscribed point (threads = 2 × cores) where the
// parking tier engages.
// E14: BM_E14_* compares the register-storage policies
// (memory/storage_policy.h) — boxed versioned nodes vs inline 64-bit
// tagged words — on the same single-register retry loop and on the
// count-based wakeup algorithm via HwExecutor.
// E15 (bottom): BM_E15_* pits the flat-combining universal construction
// (universal/combining.h) against the single-register helping baseline
// and the raw LL/SC DirectFetchAdd on real threads, reporting ops/sec and
// — for combining — the mean batch size per successful install. Combining
// and direct are lock-free, not wait-free, so E15 deliberately does NOT
// reuse E10's shared_ops-vs-analytic-worst-case assertion; exactness is
// audited through the response sum alone.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "direct/direct.h"
#include "hw/hw_executor.h"
#include "memory/rmw.h"
#include "memory/storage_policy.h"
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

// --- E11 / E14: one single-register fetch&add hammer ----------------------
//
// The purest retry-loop workload the backend has: every thread performs
// `ops` fetch&add rmw operations on ONE register, so each operation is one
// trip through HwMemory's CAS retry loop and the measured rate is the
// backoff's and the storage's, not an algorithm's. The final register value
// audits exactness. E11 (BM_HwBackoff) runs it on boxed storage; E14
// (BM_E14_StorageHammer_*) once per storage policy.

struct HammerResult {
  double wall_seconds = 0.0;
  BackoffStats backoff;
  RegisterWidthStats width;
  ReclaimStats reclaim;
};

HammerResult hammer_one_register(StoragePolicy policy, int threads, int ops) {
  HwMemory mem(1, threads, {}, policy);
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
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
  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(ops);
  LLSC_CHECK(mem.peek_value(0).as_u64() == total,
             "lost or duplicated rmw increments");
  HammerResult out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.backoff = mem.backoff_stats();
  out.width = mem.width_stats();
  out.reclaim = mem.reclaim_stats();
  return out;
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
    r = hammer_one_register(StoragePolicy::kBoxed, threads, ops);
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

// --- E14: register-storage policy comparison -----------------------------
//
// Two workloads, each run once per StoragePolicy so the policy is the
// only variable:
//
//   * StorageHammer — the E11 single-register fetch&add hammer (default
//     backoff), the hot path where the boxed policy pays one
//     Node allocation per completed install and the inline policy pays
//     none. All counts fit a 47-bit payload and each run writes its fresh
//     register fewer than 65,535 times, so inline runs must report zero
//     node allocations and zero overflows — checked, not assumed.
//   * Wakeup — the count-based wakeup algorithm (backoff_counter_wakeup)
//     on HwExecutor with HwRunOptions::storage set, i.e. the policy seam
//     exercised through the full executor stack rather than raw HwMemory.
//
// policy_id follows the StoragePolicy enum: 0 = boxed, 1 = inline.

void report_e14(benchmark::State& state, int threads, double ops_per_second,
                const RegisterWidthStats& width,
                const ReclaimStats& reclaim) {
  state.counters["n_threads"] = threads;
  state.counters["policy_id"] = static_cast<double>(width.policy);
  state.counters["hw_ops_per_sec"] = ops_per_second;
  state.counters["overflow_events"] =
      static_cast<double>(width.overflow_events);
  state.counters["nodes_allocated"] =
      static_cast<double>(reclaim.nodes_allocated);
  if (width.policy != StoragePolicy::kBoxed) {
    // The headline claim: the inline hot path is allocation-free on
    // counter workloads. Enforced here so a regression fails the bench
    // run, not just skews a column.
    LLSC_CHECK(reclaim.nodes_allocated == 0,
               "inline storage allocated nodes on an all-small workload");
    LLSC_CHECK(width.overflow_events == 0,
               "unexpected overflow on an all-small workload");
  }
}

void run_storage_hammer(benchmark::State& state, StoragePolicy policy) {
  const int threads = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  HammerResult r;
  for (auto _ : state) {
    r = hammer_one_register(policy, threads, ops);
  }
  const double total = static_cast<double>(threads) * ops;
  report_e14(state, threads,
             r.wall_seconds > 0 ? total / r.wall_seconds : 0.0, r.width,
             r.reclaim);
}

void BM_E14_StorageHammer_Boxed(benchmark::State& state) {
  run_storage_hammer(state, StoragePolicy::kBoxed);
}
void BM_E14_StorageHammer_Inline(benchmark::State& state) {
  run_storage_hammer(state, StoragePolicy::kInline);
}

void run_storage_wakeup(benchmark::State& state, StoragePolicy policy) {
  const int n = static_cast<int>(state.range(0));
  const ProcBody body = backoff_counter_wakeup();
  HwRunResult run;
  for (auto _ : state) {
    HwRunOptions opts;
    opts.seed = 21;
    opts.storage = policy;
    HwExecutor exec(opts);
    run = exec.run(n, body);
    LLSC_CHECK(run.ok, "wakeup run did not terminate cleanly");
  }
  const double ops_per_second =
      run.wall_seconds > 0
          ? static_cast<double>(run.total_shared_ops) / run.wall_seconds
          : 0.0;
  report_e14(state, n, ops_per_second, run.width, run.reclaim);
}

void BM_E14_Wakeup_Boxed(benchmark::State& state) {
  run_storage_wakeup(state, StoragePolicy::kBoxed);
}
void BM_E14_Wakeup_Inline(benchmark::State& state) {
  run_storage_wakeup(state, StoragePolicy::kInline);
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
// is the response-sum audit only. The *_Inline legs re-run combining and
// single-register under StoragePolicy::kInline, where both constructions'
// structured payloads exercise the demote-on-overflow path on every
// install (toggle words stay inline by design; see universal/combining.h).

enum class E15Which { kCombining, kSingleRegister, kDirect };

void run_e15(benchmark::State& state, E15Which which, StoragePolicy policy) {
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
    HwRunOptions opts;
    opts.storage = policy;
    opts.register_groups = uc->register_groups();
    HwExecutor exec(opts);
    t = run_uc_on_hw(exec, *uc, n, ops, make_op);
    if (combining != nullptr) cstats = combining->stats();
  }
  LLSC_CHECK(t.response_sum == t.total_uc_ops * (t.total_uc_ops - 1) / 2,
             "fetch&increment responses are wrong");
  state.counters["n_threads"] = n;
  state.counters["policy_id"] = static_cast<double>(policy);
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

void BM_E15_Combining_Boxed(benchmark::State& state) {
  run_e15(state, E15Which::kCombining, StoragePolicy::kBoxed);
}
void BM_E15_Combining_Inline(benchmark::State& state) {
  run_e15(state, E15Which::kCombining, StoragePolicy::kInline);
}
void BM_E15_SingleRegister_Boxed(benchmark::State& state) {
  run_e15(state, E15Which::kSingleRegister, StoragePolicy::kBoxed);
}
void BM_E15_SingleRegister_Inline(benchmark::State& state) {
  run_e15(state, E15Which::kSingleRegister, StoragePolicy::kInline);
}
void BM_E15_DirectFetchAdd_Boxed(benchmark::State& state) {
  run_e15(state, E15Which::kDirect, StoragePolicy::kBoxed);
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
  state.counters["policy_id"] = static_cast<double>(StoragePolicy::kBoxed);
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
BENCHMARK(llsc::BM_E14_StorageHammer_Boxed)
    ->Apply(llsc::e14_hammer_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E14_StorageHammer_Inline)
    ->Apply(llsc::e14_hammer_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E14_Wakeup_Boxed)
    ->Apply(llsc::e14_wakeup_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E14_Wakeup_Inline)
    ->Apply(llsc::e14_wakeup_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_Combining_Boxed)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_Combining_Inline)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_SingleRegister_Boxed)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_SingleRegister_Inline)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_DirectFetchAdd_Boxed)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E15_Combining_Simulator)
    ->Apply(llsc::e15_sweep)
    ->Unit(benchmark::kMillisecond);
