// E4 — the randomized bound (Theorem 6.1 with coin tosses + Lemma 3.1).
// Monte-Carlo over i.i.d. toss assignments: the randomized tournament
// terminates with probability 1 and its EXPECTED winner cost must stay
// >= log_4 n; the flaky variant terminates with probability c < 1 and its
// expected cost must stay >= c·log_4 n.
//
// The samples run through the sharded parallel driver (hw/mc_driver.h),
// which reproduces the serial estimator bit-for-bit — `mc_workers` reports
// the shard count, and on a multi-core box the wall time divides by it.
//
// Expected shape: `mean_winner_ops` tracks c·log2(n)-ish growth and
// `min_winner_ops` never dips below `log4_n`; for the flaky algorithm,
// `termination_rate` ≈ (1 - 1/4)^n and the Lemma 3.1 product bound holds.
#include <benchmark/benchmark.h>

#include "hw/mc_driver.h"
#include "util/check.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

void BM_RandomizedTournament(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ParallelMcResult result;
  for (auto _ : state) {
    result = estimate_expected_complexity_parallel(
        randomized_tournament_wakeup(), n, /*samples=*/16, /*seed=*/12345);
  }
  const ExpectedComplexityEstimate& est = result.estimate;
  LLSC_CHECK(est.bound_met, "randomized lower bound violated");
  state.counters["n"] = n;
  state.counters["termination_rate_c"] = est.termination_rate;
  state.counters["mean_winner_ops"] = est.mean_winner_ops;
  state.counters["min_winner_ops"] = static_cast<double>(est.min_winner_ops);
  state.counters["bound_c_log4_n"] = est.bound;
  state.counters["spec_violations"] = est.spec_violations;
  state.counters["mc_workers"] = result.num_workers;
}

void BM_BackoffCounter(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ParallelMcResult result;
  for (auto _ : state) {
    result = estimate_expected_complexity_parallel(
        backoff_counter_wakeup(), n, /*samples=*/12, /*seed=*/31);
  }
  const ExpectedComplexityEstimate& est = result.estimate;
  LLSC_CHECK(est.bound_met, "randomized lower bound violated");
  state.counters["n"] = n;
  state.counters["mean_winner_ops"] = est.mean_winner_ops;
  state.counters["min_winner_ops"] = static_cast<double>(est.min_winner_ops);
  state.counters["mean_max_ops"] = est.mean_max_ops;
  state.counters["bound_c_log4_n"] = est.bound;
  state.counters["spec_violations"] = est.spec_violations;
  state.counters["mc_workers"] = result.num_workers;
}

void BM_FlakyWakeup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ParallelMcResult result;
  AdversaryOptions adversary;
  adversary.max_rounds = 400;  // non-terminating samples stop here
  for (auto _ : state) {
    result = estimate_expected_complexity_parallel(
        flaky_wakeup(4), n, /*samples=*/24, /*seed=*/999,
        {.adversary = adversary});
  }
  const ExpectedComplexityEstimate& est = result.estimate;
  LLSC_CHECK(est.bound_met, "Lemma 3.1 bound violated");
  state.counters["n"] = n;
  state.counters["termination_rate_c"] = est.termination_rate;
  state.counters["mean_winner_ops"] = est.mean_winner_ops;
  state.counters["expected_cost"] = est.termination_rate * est.mean_winner_ops;
  state.counters["bound_c_log4_n"] = est.bound;
  state.counters["spec_violations"] = est.spec_violations;
  state.counters["mc_workers"] = result.num_workers;
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_RandomizedTournament)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_BackoffCounter)
    ->RangeMultiplier(4)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_FlakyWakeup)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);
