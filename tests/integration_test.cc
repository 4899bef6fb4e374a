// Grand-tour integration tests: the full pipeline — adversary run, UP
// tracking, (S,A)-run, indistinguishability, width audit, wakeup check —
// composed end to end at larger scales than the unit tests use, plus a
// few cross-module contract checks.
#include <gtest/gtest.h>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/lower_bound.h"
#include "core/s_run.h"
#include "core/trace.h"
#include "core/up_tracker.h"
#include "runtime/toss.h"
#include "universal/group_update.h"
#include "util/str.h"
#include "wakeup/algorithms.h"
#include "wakeup/reductions.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

TEST(Integration, FullPipelineAtN64) {
  const int n = 64;
  const auto tosses = std::make_shared<SeededTossAssignment>(2718);

  // 1. (All,A)-run of the swap+move wakeup under the Fig. 2 adversary.
  System all_sys(n, swap_mix_wakeup(), tosses);
  const RunLog all_log = run_adversary(all_sys);
  ASSERT_TRUE(all_log.all_terminated);
  const WakeupCheckResult wakeup = check_wakeup_run(all_sys);
  ASSERT_TRUE(wakeup.ok) << wakeup.violations.front();

  // 2. UP tracking: Lemma 5.1 holds; the winner's UP set at its op count
  //    bounds the S-run.
  const UpTracker up = UpTracker::over(all_log);
  ASSERT_TRUE(up.lemma51_holds());

  // 3. Theorem 6.1 numbers.
  std::uint64_t winner_ops = ~std::uint64_t{0};
  ProcId winner = -1;
  for (ProcId p = 0; p < n; ++p) {
    const Process& proc = all_sys.process(p);
    if (proc.done() && proc.result().as_u64() == 1 &&
        proc.shared_ops() < winner_ops) {
      winner_ops = proc.shared_ops();
      winner = p;
    }
  }
  ASSERT_NE(winner, -1);
  EXPECT_GE(static_cast<double>(winner_ops), log4(n));

  // 4. (S,A)-run for S = UP(winner, winner_ops) ∪ a few extras.
  ProcSet s = up.up_process(
      winner, static_cast<int>(std::min<std::uint64_t>(
                  winner_ops, static_cast<std::uint64_t>(up.num_rounds()))));
  s.insert(0);
  s.insert(n / 2);
  System s_sys(n, swap_mix_wakeup(), tosses);
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);

  // 5. Lemma 5.2 across the whole run.
  const IndistReport indist =
      check_indistinguishability(all_log, s_log, up, s);
  EXPECT_TRUE(indist.ok) << indist.violations.front();
  EXPECT_GT(indist.register_checks, 100u);

  // 6. Width audit: swap_mix stores subtree up-SETS in registers, so it
  //    needs unbounded words (unlike the count-based tournament, audited
  //    in audit_test). Its writes are the installs left once moves and
  //    RMWs are taken out of the live counters.
  const RegisterWidthStats width = all_sys.memory().width_stats();
  const MemoryOpCounts& counts = all_sys.memory().counts();
  EXPECT_FALSE(width.bounded());
  EXPECT_GT(width.writes_inspected - counts[OpKind::kMove] -
                counts[OpKind::kRmw],
            0u);
}

TEST(Integration, ReductionThroughConstructionUnderFullAnalysis) {
  // The Corollary 6.1 composition, analyzed with the Theorem 6.1 driver:
  // wakeup-via-queue through the oblivious construction must meet the
  // bound and pass the optional indistinguishability check.
  const int n = 16;
  WakeupLowerBoundOptions opts;
  opts.always_check_indistinguishability = true;
  // The construction is stateful, so the analysis (which executes several
  // runs) gets a factory that rebuilds the whole scenario each time.
  std::vector<std::shared_ptr<GroupUpdateUC>> keep_alive;
  const BodyFactory scenario = [n, &keep_alive]() {
    auto uc = std::make_shared<GroupUpdateUC>(
        n, reduction_object_factory("queue", n));
    keep_alive.push_back(uc);
    ProcBody inner = reduction_wakeup_body("queue", *uc);
    return ProcBody([uc, inner](ProcCtx ctx, ProcId i, int procs) {
      return inner(ctx, i, procs);
    });
  };
  const WakeupLowerBoundReport report =
      analyze_wakeup_run(scenario, n, nullptr, opts);
  ASSERT_TRUE(report.terminated);
  EXPECT_TRUE(report.bound_met) << report.summary();
  ASSERT_TRUE(report.s_run_built);
  EXPECT_TRUE(report.indist.ok) << report.indist.summary();
}

TEST(Integration, MemoryCountsResetBetweenPhases) {
  SharedMemory mem;
  mem.ll(0, 1);
  mem.swap(0, 2, Value::of_u64(1));
  EXPECT_EQ(mem.counts().total(), 2u);
  mem.reset_counts();
  EXPECT_EQ(mem.counts().total(), 0u);
  mem.validate(0, 1);
  EXPECT_EQ(mem.counts()[OpKind::kValidate], 1u);
}

// The tournament wakeup on n processes under the adversary: a lean log
// (no records, no snapshots) or a full one.
RunLog tournament_log(int n, bool record_snapshots) {
  System sys(n, tournament_wakeup());
  AdversaryOptions opts;
  opts.record_snapshots = record_snapshots;
  return run_adversary(sys, opts);
}

// Every consumer of round records or snapshots rejects a lean log by name
// instead of reading past its (empty) records.
TEST(IntegrationDeath, IndistCheckerRequiresSnapshots) {
  const int n = 4;
  const RunLog lean = tournament_log(n, false);
  const RunLog full = tournament_log(n, true);
  const UpTracker up = UpTracker::over(full);
  System s_sys(n, tournament_wakeup());
  const RunLog s_log = run_s_run(s_sys, full, up, ProcSet::full(n));
  EXPECT_DEATH(
      check_indistinguishability(lean, s_log, up, ProcSet::full(n)),
      "lean log: no round records");
}

TEST(IntegrationDeath, UpTrackerRejectsLeanLog) {
  const RunLog lean = tournament_log(4, false);
  EXPECT_DEATH(UpTracker::over(lean), "lean log: no round records");
}

TEST(IntegrationDeath, SRunRejectsLeanLog) {
  const int n = 4;
  const RunLog lean = tournament_log(n, false);
  const UpTracker up = UpTracker::over(tournament_log(n, true));
  System s_sys(n, tournament_wakeup());
  EXPECT_DEATH(run_s_run(s_sys, lean, up, ProcSet::full(n)),
               "lean log: no round records");
}

TEST(IntegrationDeath, RenderRunRejectsLeanLog) {
  const RunLog lean = tournament_log(4, false);
  EXPECT_DEATH(render_run(lean), "lean log: no round records");
}

TEST(IntegrationDeath, RenderRunComparisonRejectsLeanLog) {
  const RunLog lean = tournament_log(4, false);
  const RunLog full = tournament_log(4, true);
  EXPECT_DEATH(render_run_comparison(full, lean),
               "lean log: no round records");
}

TEST(IntegrationDeath, BigIntFromHexRejectsGarbage) {
  EXPECT_DEATH(BigInt::from_hex("0xZZ"), "non-hex");
}

}  // namespace
}  // namespace llsc
