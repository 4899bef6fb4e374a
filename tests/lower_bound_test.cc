// Tests for the Theorem 6.1 driver and the Lemma 3.1 estimator: correct
// wakeups meet the log_4 n bound; a cheating sub-logarithmic "solution" is
// refuted by an (S,A)-run witness.
#include "core/lower_bound.h"

#include <gtest/gtest.h>

#include "util/str.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

TEST(LowerBound, TournamentMeetsBound) {
  for (const int n : {2, 4, 8, 16, 64, 256}) {
    const WakeupLowerBoundReport report =
        analyze_wakeup_run(tournament_wakeup(), n);
    ASSERT_TRUE(report.terminated) << "n=" << n;
    ASSERT_NE(report.winner, -1);
    EXPECT_TRUE(report.bound_met) << report.summary();
    EXPECT_GE(static_cast<double>(report.winner_ops), log4(n)) << "n=" << n;
  }
}

// The lean path at a scale the full run is never asked for: the tournament
// is round-synchronous, so its winner, its slowest process and the run all
// take the same number of steps.
TEST(LowerBound, TournamentLeanPathAtN4096) {
  const WakeupLowerBoundReport report =
      analyze_wakeup_run(tournament_wakeup(), 4096);
  ASSERT_TRUE(report.terminated);
  EXPECT_TRUE(report.bound_met);
  EXPECT_FALSE(report.s_run_built);
  EXPECT_EQ(report.winner_ops, 98u);
  EXPECT_EQ(report.max_ops, 98u);
  EXPECT_EQ(report.rounds, 98);
}

// The lean run and the full run (records and snapshots, then the (S,A)-run)
// report the same winner and counts.
TEST(LowerBound, LeanReportMatchesFullReport) {
  for (const int n : {8, 64}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    WakeupLowerBoundOptions full_opts;
    full_opts.always_check_indistinguishability = true;
    const WakeupLowerBoundReport lean =
        analyze_wakeup_run(tournament_wakeup(), n);
    const WakeupLowerBoundReport full =
        analyze_wakeup_run(tournament_wakeup(), n, nullptr, full_opts);
    ASSERT_FALSE(lean.s_run_built);
    ASSERT_TRUE(full.s_run_built);
    EXPECT_EQ(lean.winner, full.winner);
    EXPECT_EQ(lean.winner_ops, full.winner_ops);
    EXPECT_EQ(lean.max_ops, full.max_ops);
    EXPECT_EQ(lean.rounds, full.rounds);
  }
}

TEST(LowerBound, CounterMeetsBoundWithLinearOps) {
  const int n = 32;
  const WakeupLowerBoundReport report =
      analyze_wakeup_run(counter_wakeup(), n);
  ASSERT_TRUE(report.terminated);
  EXPECT_TRUE(report.bound_met);
  // The naive counter is far from optimal: the winner performs Θ(n) ops.
  EXPECT_GE(report.winner_ops, static_cast<std::uint64_t>(n));
}

TEST(LowerBound, IndistinguishabilityHoldsWhenRequested) {
  WakeupLowerBoundOptions opts;
  opts.always_check_indistinguishability = true;
  const WakeupLowerBoundReport report =
      analyze_wakeup_run(tournament_wakeup(), 8, nullptr, opts);
  ASSERT_TRUE(report.s_run_built);
  EXPECT_TRUE(report.indist.ok) << report.indist.summary();
  // Lemma 5.1: |S| = |UP(winner, r)| <= 4^r.
  EXPECT_LE(report.s_size, UpTracker::lemma51_bound(
                               static_cast<int>(report.winner_ops)));
}

TEST(LowerBound, CheatingWakeupRefutedBySRunWitness) {
  // A "solution" that returns 1 after 2 operations. For n = 64,
  // log_4 64 = 3 > 2, so Theorem 6.1 says it cannot be correct — and the
  // driver must produce the proof's contradiction: an (S,A)-run with
  // |S| <= 4^2 = 16 < 64 in which the winner still returns 1.
  const int n = 64;
  const WakeupLowerBoundReport report =
      analyze_wakeup_run(cheating_wakeup(2), n);
  ASSERT_TRUE(report.terminated);
  EXPECT_FALSE(report.bound_met) << report.summary();
  ASSERT_TRUE(report.s_run_built);
  EXPECT_LE(report.s_size, 16u);
  EXPECT_TRUE(report.s_run_winner_returned_1);
  EXPECT_TRUE(report.wakeup_violation_witnessed) << report.summary();
  EXPECT_TRUE(report.indist.ok) << report.indist.summary();
}

TEST(LowerBound, SwapMixMeetsBound) {
  for (const int n : {4, 16, 64}) {
    const WakeupLowerBoundReport report =
        analyze_wakeup_run(swap_mix_wakeup(), n);
    ASSERT_TRUE(report.terminated);
    EXPECT_TRUE(report.bound_met) << report.summary();
  }
}

TEST(ExpectedComplexity, RandomizedTournamentMeetsBound) {
  const int n = 16;
  const ExpectedComplexityEstimate est = estimate_expected_complexity(
      randomized_tournament_wakeup(), n, /*samples=*/20, /*seed=*/7);
  EXPECT_DOUBLE_EQ(est.termination_rate, 1.0);
  EXPECT_TRUE(est.bound_met) << est.summary();
  EXPECT_GE(est.mean_winner_ops, log4(n));
}

TEST(ExpectedComplexity, FlakyTerminatesWithProbabilityC) {
  // flaky_wakeup(4): each process spins forever with probability 1/4, so
  // a run terminates with probability (3/4)^n.
  const int n = 3;
  AdversaryOptions adversary;
  adversary.max_rounds = 300;
  const ExpectedComplexityEstimate est = estimate_expected_complexity(
      flaky_wakeup(4), n, /*samples=*/60, /*seed=*/21, adversary);
  const double c = 0.75 * 0.75 * 0.75;  // ≈ 0.42
  EXPECT_GT(est.termination_rate, c - 0.25);
  EXPECT_LT(est.termination_rate, c + 0.25);
  EXPECT_TRUE(est.bound_met) << est.summary();
  // Lemma 3.1: worst-case expected complexity >= c * log_4 n.
  EXPECT_GE(est.termination_rate * est.mean_winner_ops, est.bound - 1e9);
}

TEST(ExpectedComplexity, BackoffCounterVariesButRespectsBound) {
  // Run length depends on toss outcomes (random backoff), so this
  // exercises expectation over genuinely different run shapes.
  const int n = 16;
  const ExpectedComplexityEstimate est = estimate_expected_complexity(
      backoff_counter_wakeup(), n, /*samples=*/15, /*seed=*/5);
  EXPECT_DOUBLE_EQ(est.termination_rate, 1.0);
  EXPECT_TRUE(est.bound_met) << est.summary();
  // The counter is a linear-time algorithm: far above the bound.
  EXPECT_GE(est.mean_winner_ops, static_cast<double>(n));
}

TEST(ExpectedComplexity, MinimumAcrossSamplesRespectsBound) {
  const int n = 64;
  const ExpectedComplexityEstimate est = estimate_expected_complexity(
      randomized_tournament_wakeup(), n, /*samples=*/10, /*seed=*/3);
  EXPECT_GE(static_cast<double>(est.min_winner_ops), log4(n))
      << est.summary();
}

}  // namespace
}  // namespace llsc
