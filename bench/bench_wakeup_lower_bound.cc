// E1 — Theorem 6.1. For each wakeup algorithm and each n, run the Fig. 2
// adversary and report the shared-memory operations the 1-returner was
// forced to perform, next to the paper's log_4 n bound.
//
// Expected shape: `winner_ops` >= `log4_n` for every row (the adversary
// cannot be beaten); tournament rows grow like c·log2(n), naive-counter
// rows grow linearly — the gap between an optimal and a naive solution.
#include <benchmark/benchmark.h>

#include "core/lower_bound.h"
#include "util/check.h"
#include "util/str.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

void run_case(benchmark::State& state, const ProcBody& body) {
  const int n = static_cast<int>(state.range(0));
  WakeupLowerBoundReport report;
  for (auto _ : state) {
    report = analyze_wakeup_run(body, n);
    benchmark::DoNotOptimize(report.winner_ops);
  }
  LLSC_CHECK(report.terminated, "adversary run did not terminate");
  LLSC_CHECK(report.bound_met, "Theorem 6.1 violated by a correct algorithm");
  state.counters["n"] = n;
  state.counters["winner_ops"] = static_cast<double>(report.winner_ops);
  state.counters["log4_n"] = report.log4_n;
  state.counters["max_ops"] = static_cast<double>(report.max_ops);
  state.counters["rounds"] = report.rounds;
  state.counters["ratio_vs_bound"] =
      report.log4_n > 0 ? static_cast<double>(report.winner_ops) / report.log4_n
                        : 0.0;
}

void BM_Tournament(benchmark::State& state) {
  run_case(state, tournament_wakeup());
}
void BM_NaiveCounter(benchmark::State& state) {
  run_case(state, counter_wakeup());
}
void BM_SwapMoveMix(benchmark::State& state) {
  run_case(state, swap_mix_wakeup());
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_Tournament)
    ->RangeMultiplier(2)
    ->Range(2, 65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_NaiveCounter)
    ->RangeMultiplier(4)
    ->Range(2, 512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_SwapMoveMix)
    ->RangeMultiplier(2)
    ->Range(2, 1024)
    ->Unit(benchmark::kMillisecond);
