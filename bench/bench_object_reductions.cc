// E3 — Theorem 6.2 / Corollary 6.1. Each of the eight object reductions
// solves wakeup with at most k operations on one implemented object; run
// through the oblivious Group-Update construction under the Fig. 2
// adversary, the winner's shared-memory cost must be >= (1/k)·log_4 n.
//
// Expected shape: every row's `winner_ops` is far above `corollary_bound`
// (the implementation pays Θ(log n) per implemented operation), and the
// wakeup specification holds for every type.
#include <benchmark/benchmark.h>

#include "core/adversary.h"
#include "universal/group_update.h"
#include "util/check.h"
#include "util/str.h"
#include "wakeup/reductions.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

void run_reduction(benchmark::State& state, const std::string& name, int k) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t winner_ops = 0;
  for (auto _ : state) {
    GroupUpdateUC uc(n, reduction_object_factory(name, n));
    System sys(n, reduction_wakeup_body(name, uc));
    AdversaryOptions opts;
    opts.record_snapshots = false;
    const RunLog log = run_adversary(sys, opts);
    LLSC_CHECK(log.all_terminated, "reduction run did not terminate");
    const WakeupCheckResult check = check_wakeup_run(sys);
    LLSC_CHECK(check.ok, "wakeup violated by reduction " + name);
    winner_ops = ~std::uint64_t{0};
    for (ProcId p = 0; p < n; ++p) {
      const Process& proc = sys.process(p);
      if (proc.done() && proc.result().as_u64() == 1) {
        winner_ops = std::min(winner_ops, proc.shared_ops());
      }
    }
  }
  const double bound = log4(static_cast<double>(n)) / k;
  LLSC_CHECK(static_cast<double>(winner_ops) >= bound,
             "Corollary 6.1 violated");
  state.counters["n"] = n;
  state.counters["k_ops_on_object"] = k;
  state.counters["winner_ops"] = static_cast<double>(winner_ops);
  state.counters["corollary_bound"] = bound;
}

}  // namespace
}  // namespace llsc

// One benchmark per object type of Theorem 6.2.
#define LLSC_REDUCTION_BENCH(fn, name, k)                        \
  static void fn(benchmark::State& state) {                      \
    ::llsc::run_reduction(state, name, k);                       \
  }                                                              \
  BENCHMARK(fn)->RangeMultiplier(4)->Range(4, 256)->Unit(        \
      benchmark::kMillisecond)

LLSC_REDUCTION_BENCH(BM_FetchIncrement, "fetch&increment", 1);
LLSC_REDUCTION_BENCH(BM_FetchAnd, "fetch&and", 1);
LLSC_REDUCTION_BENCH(BM_FetchOr, "fetch&or", 1);
LLSC_REDUCTION_BENCH(BM_FetchXor, "fetch&xor", 1);
LLSC_REDUCTION_BENCH(BM_FetchComplement, "fetch&complement", 1);
LLSC_REDUCTION_BENCH(BM_FetchMultiply, "fetch&multiply", 1);
LLSC_REDUCTION_BENCH(BM_Queue, "queue", 1);
LLSC_REDUCTION_BENCH(BM_Stack, "stack", 1);
LLSC_REDUCTION_BENCH(BM_PriorityQueue, "priority-queue", 1);
LLSC_REDUCTION_BENCH(BM_ReadIncrement, "read+increment", 2);
