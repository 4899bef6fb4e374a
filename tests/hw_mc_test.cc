// Parallel Monte-Carlo driver: the sharded estimator must reproduce the
// serial Lemma 3.1 estimator EXACTLY (same seeds, same fold), not merely
// statistically.
#include "hw/mc_driver.h"

#include <gtest/gtest.h>

#include "core/lower_bound.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

void expect_identical(const ExpectedComplexityEstimate& a,
                      const ExpectedComplexityEstimate& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.termination_rate, b.termination_rate);
  EXPECT_EQ(a.spec_violations, b.spec_violations);
  EXPECT_EQ(a.crashed_samples, b.crashed_samples);
  EXPECT_EQ(a.hung_samples, b.hung_samples);
  EXPECT_EQ(a.mean_winner_ops, b.mean_winner_ops);
  EXPECT_EQ(a.mean_max_ops, b.mean_max_ops);
  EXPECT_EQ(a.min_winner_ops, b.min_winner_ops);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.bound_met, b.bound_met);
}

// Terminates immediately without ever returning 1: every terminated
// sample is a wakeup-spec violation.
SimTask return_zero_body(ProcCtx ctx, ProcId, int) {
  (void)co_await ctx.ll(0);
  co_return Value::of_u64(0);
}

// Never terminates; the adversary's round cap stops every sample.
SimTask spin_forever_body(ProcCtx ctx, ProcId, int) {
  for (;;) {
    (void)co_await ctx.ll(0);
  }
}

TEST(HwMcTest, ParallelMatchesSerialBitForBit) {
  const int n = 6;
  const int samples = 32;
  const std::uint64_t seed = 7;
  const ExpectedComplexityEstimate serial =
      estimate_expected_complexity(backoff_counter_wakeup(), n, samples, seed);
  for (const int workers : {1, 2, 4}) {
    const ParallelMcResult par = estimate_expected_complexity_parallel(
        backoff_counter_wakeup(), n, samples, seed, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_identical(serial, par.estimate);
    EXPECT_EQ(par.num_workers, workers);
    int run = 0;
    for (const McShardStats& s : par.shards) run += s.samples_run;
    EXPECT_EQ(run, samples);
  }
}

TEST(HwMcTest, ParallelMatchesSerialOnRandomizedTournament) {
  const int n = 8;
  const int samples = 24;
  const ExpectedComplexityEstimate serial = estimate_expected_complexity(
      randomized_tournament_wakeup(), n, samples, /*seed=*/11);
  const ParallelMcResult par = estimate_expected_complexity_parallel(
      randomized_tournament_wakeup(), n, samples, /*seed=*/11, /*workers=*/3);
  expect_identical(serial, par.estimate);
  // The randomized tournament meets the paper's bound on every sample.
  EXPECT_TRUE(par.estimate.bound_met);
}

// Regression (ISSUE 2): a terminated run with no 1-returner used to be
// folded in as winner_ops = 0, dragging min_winner_ops to 0 and flipping
// bound_met with no trace. Such samples must be counted as spec
// violations and excluded from the winner-ops statistics — in the serial
// estimator and the parallel driver alike.
TEST(HwMcTest, SpecViolationsAreCountedNotFoldedIntoWinnerOps) {
  const int n = 4;
  const int samples = 8;
  const ProcBody algo = &return_zero_body;
  const ExpectedComplexityEstimate serial =
      estimate_expected_complexity(algo, n, samples, /*seed=*/5);
  EXPECT_EQ(serial.spec_violations, samples);
  EXPECT_EQ(serial.termination_rate, 1.0);
  // No winner sample: the winner statistics stay empty and the bound
  // check is vacuous (pre-fix: min_winner_ops = 0 made it "VIOLATED").
  EXPECT_EQ(serial.min_winner_ops, 0u);
  EXPECT_EQ(serial.mean_winner_ops, 0.0);
  EXPECT_TRUE(serial.bound_met);
  // t(R) still averages over all terminated samples, violations included.
  EXPECT_GE(serial.mean_max_ops, 1.0);

  const ParallelMcResult par =
      estimate_expected_complexity_parallel(algo, n, samples, /*seed=*/5,
                                            /*num_workers=*/3);
  expect_identical(serial, par.estimate);
}

// Regression (ISSUE 2): with no terminating sample, min_winner_ops used
// to keep its ~uint64{0} accumulator sentinel and leak UINT64_MAX into
// printed/JSON rows. It must report 0, with bound_met still vacuously
// true.
TEST(HwMcTest, NoTerminatingSampleReportsZeroMinWinnerOps) {
  const int n = 3;
  const int samples = 6;
  const ProcBody algo = &spin_forever_body;
  AdversaryOptions adversary;
  adversary.max_rounds = 16;
  const ExpectedComplexityEstimate serial =
      estimate_expected_complexity(algo, n, samples, /*seed=*/9, adversary);
  EXPECT_EQ(serial.termination_rate, 0.0);
  EXPECT_EQ(serial.spec_violations, 0);
  // Round-cap non-termination without a fault plan is classified "hung".
  EXPECT_EQ(serial.hung_samples, samples);
  EXPECT_EQ(serial.crashed_samples, 0);
  EXPECT_EQ(serial.min_winner_ops, 0u);  // pre-fix: UINT64_MAX
  EXPECT_TRUE(serial.bound_met);

  const ParallelMcResult par = estimate_expected_complexity_parallel(
      algo, n, samples, /*seed=*/9, /*num_workers=*/2, adversary);
  expect_identical(serial, par.estimate);
}

// A correct algorithm reports zero spec violations — the new counter must
// not fire on healthy runs.
TEST(HwMcTest, HealthyAlgorithmReportsZeroSpecViolations) {
  const ParallelMcResult par = estimate_expected_complexity_parallel(
      tournament_wakeup(), /*n=*/4, /*samples=*/6, /*seed=*/3,
      /*num_workers=*/2);
  EXPECT_EQ(par.estimate.spec_violations, 0);
  EXPECT_GT(par.estimate.min_winner_ops, 0u);
  EXPECT_TRUE(par.estimate.bound_met);
}

// Fault-plan sweeps preserve the serial/parallel bit-for-bit contract:
// both drivers derive the identical per-sample plan from (base plan,
// toss seed), so crashed/hung taxonomy counts — not just the means —
// must agree exactly across worker counts.
TEST(HwMcTest, CrashedSamplesFoldIdenticallySerialAndParallel) {
  const int n = 8;
  const int samples = 16;
  const std::uint64_t seed = 13;
  FaultPlan plan;
  plan.seed = 77;
  plan.crashes.push_back(CrashSpec{.proc = 0, .after_ops = 2, .recovery = {}});
  const ExpectedComplexityEstimate serial = estimate_expected_complexity(
      randomized_tournament_wakeup(), n, samples, seed, {}, &plan);
  EXPECT_EQ(serial.crashed_samples, samples);  // proc 0 crashes every sample
  EXPECT_EQ(serial.termination_rate, 0.0);
  for (const int workers : {1, 3}) {
    McRunOptions options;
    options.num_workers = workers;
    options.fault = &plan;
    const ParallelMcResult par = estimate_expected_complexity_parallel(
        randomized_tournament_wakeup(), n, samples, seed, options);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_identical(serial, par.estimate);
  }
}

TEST(HwMcTest, SpuriousFailureSweepFoldsIdenticallySerialAndParallel) {
  const int n = 8;
  const int samples = 24;
  const std::uint64_t seed = 29;
  FaultPlan plan;
  plan.seed = 5;
  plan.sc_fail_rate = 0.4;
  AdversaryOptions adversary;
  adversary.max_rounds = 1 << 10;
  const ExpectedComplexityEstimate serial = estimate_expected_complexity(
      randomized_tournament_wakeup(), n, samples, seed, adversary, &plan);
  McRunOptions options;
  options.num_workers = 4;
  options.adversary = adversary;
  options.fault = &plan;
  const ParallelMcResult par = estimate_expected_complexity_parallel(
      randomized_tournament_wakeup(), n, samples, seed, options);
  expect_identical(serial, par.estimate);
}

TEST(HwMcTest, WorkerCountIsCappedBySamples) {
  const ParallelMcResult par = estimate_expected_complexity_parallel(
      tournament_wakeup(), /*n=*/4, /*samples=*/2, /*seed=*/1, /*workers=*/16);
  EXPECT_EQ(par.num_workers, 2);
  EXPECT_EQ(par.estimate.samples, 2);
}

}  // namespace
}  // namespace llsc
