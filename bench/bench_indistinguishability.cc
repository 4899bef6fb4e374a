// E7 — Lemma 5.2 as an executable check: cost of constructing the
// (S,A)-run and verifying full per-round indistinguishability against the
// (All,A)-run, for random subsets S.
//
// Expected shape: zero violations at every size and subset; the pipeline
// (adversary run + UP tracking + S-run + comparison) scales roughly with
// rounds · n²/64: UP tracking keeps n dense n-bit sets per round, and the
// comparison tests UP(p, r) ⊆ S once per process per round. Per register
// it walks the two runs' Psets once.
#include <benchmark/benchmark.h>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "runtime/toss.h"
#include "util/check.h"
#include "util/rng.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

void run_case(benchmark::State& state, const ProcBody& body,
              std::uint64_t subset_seed) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(subset_seed);
  ProcSet s(n);
  for (ProcId p = 0; p < n; ++p) {
    if (rng.next_bool()) s.insert(p);
  }
  if (s.empty()) s.insert(0);

  IndistReport report;
  for (auto _ : state) {
    const auto tosses = std::make_shared<SeededTossAssignment>(11);
    System all_sys(n, body, tosses);
    all_sys.set_recording(false);
    const RunLog all_log = run_adversary(all_sys);
    LLSC_CHECK(all_log.all_terminated, "run did not terminate");
    const UpTracker up = UpTracker::over(all_log);

    System s_sys(n, body, tosses);
    s_sys.set_recording(false);
    const RunLog s_log = run_s_run(s_sys, all_log, up, s);
    report = check_indistinguishability(all_log, s_log, up, s);
    benchmark::DoNotOptimize(report.ok);
  }
  LLSC_CHECK(report.ok, "Lemma 5.2 violated");
  state.counters["n"] = n;
  state.counters["subset_size"] = static_cast<double>(s.count());
  state.counters["process_checks"] =
      static_cast<double>(report.process_checks);
  state.counters["register_checks"] =
      static_cast<double>(report.register_checks);
  state.counters["violations"] = static_cast<double>(report.violations.size());
}

void BM_Tournament(benchmark::State& state) {
  run_case(state, tournament_wakeup(), 1);
}
void BM_SwapMoveMix(benchmark::State& state) {
  run_case(state, swap_mix_wakeup(), 2);
}
void BM_RandomizedTournament(benchmark::State& state) {
  run_case(state, randomized_tournament_wakeup(), 3);
}
void BM_NaiveCounter(benchmark::State& state) {
  run_case(state, counter_wakeup(), 4);
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_Tournament)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_SwapMoveMix)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_RandomizedTournament)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_NaiveCounter)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);
