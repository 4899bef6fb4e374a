// E1 — Theorem 6.1. For each wakeup algorithm and each n, run the Fig. 2
// adversary and report the shared-memory operations the 1-returner was
// forced to perform, next to the paper's log_4 n bound.
//
// Expected shape: `winner_ops` >= `log4_n` for every row (the adversary
// cannot be beaten); tournament rows grow like c·log2(n), naive-counter
// rows grow linearly — the gap between an optimal and a naive solution.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>

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

// E1 at paper scale (n = 2^14..2^20), where the Ω(log n) bound separates
// from the O(log* n) test-and-set of GHHW: one tournament analysis per n,
// with the simulator's cost per step (wall time ÷ n·rounds; a step is one
// process-round) and the process's peak RSS, which is per n only when one
// n runs per invocation (--benchmark_filter=PaperScale/1048576). The CI
// smoke loop skips these with --benchmark_filter=-PaperScale: n = 2^20
// takes tens of seconds and over a gigabyte.
void BM_TournamentPaperScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ProcBody body = tournament_wakeup();
  WakeupLowerBoundReport report;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    report = analyze_wakeup_run(body, n);
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    benchmark::DoNotOptimize(report.winner_ops);
  }
  LLSC_CHECK(report.terminated, "adversary run did not terminate");
  LLSC_CHECK(report.bound_met, "Theorem 6.1 violated by a correct algorithm");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["n"] = n;
  state.counters["winner_ops"] = static_cast<double>(report.winner_ops);
  state.counters["rounds"] = report.rounds;
  state.counters["ns_per_step"] =
      seconds * 1e9 / (static_cast<double>(n) * report.rounds);
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024;
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
BENCHMARK(llsc::BM_TournamentPaperScale)
    ->RangeMultiplier(4)
    ->Range(1 << 14, 1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
