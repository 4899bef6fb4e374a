// Tests for the run renderer (core/trace.h) and the remaining core data
// types: ProcSet, op formatting, snapshot determinism.
#include "core/trace.h"

#include <gtest/gtest.h>

#include "core/adversary.h"
#include "core/s_run.h"
#include "memory/proc_set.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

TEST(ProcSet, BasicOperations) {
  ProcSet s(100);
  EXPECT_TRUE(s.empty());
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(99);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_FALSE(s.contains(65));
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.contains(100));
  EXPECT_EQ(s.members(), (std::vector<ProcId>{0, 63, 64, 99}));
}

TEST(ProcSet, SubsetAndUnion) {
  const ProcSet a = ProcSet::of(10, {1, 3, 5});
  const ProcSet b = ProcSet::of(10, {1, 3, 5, 7});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  ProcSet u = a;
  u.unite(ProcSet::of(10, {2, 7}));
  EXPECT_EQ(u.members(), (std::vector<ProcId>{1, 2, 3, 5, 7}));
  EXPECT_TRUE(ProcSet(10).subset_of(a));  // empty set
}

TEST(ProcSet, FullAndSingleton) {
  const ProcSet full = ProcSet::full(70);
  EXPECT_EQ(full.count(), 70u);
  EXPECT_TRUE(full.contains(69));
  const ProcSet one = ProcSet::singleton(70, 42);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_TRUE(one.subset_of(full));
  EXPECT_EQ(one.to_string(), "{p42}");
}

TEST(ProcSetDeath, UniverseMismatchRejected) {
  ProcSet a(4), b(5);
  EXPECT_DEATH(a.unite(b), "universes differ");
  EXPECT_DEATH(a.insert(4), "outside");
}

TEST(OpFormatting, PendingOpsAndResults) {
  EXPECT_EQ((PendingOp{.kind = OpKind::kLL, .reg = 3, .src = 0, .arg = {},
                       .rmw = {}})
                .to_string(),
            "LL(R3)");
  EXPECT_EQ((PendingOp{.kind = OpKind::kSC, .reg = 1, .src = 0,
                       .arg = Value::of_u64(9), .rmw = {}})
                .to_string(),
            "SC(R1, 9)");
  EXPECT_EQ((PendingOp{.kind = OpKind::kMove, .reg = 2, .src = 7, .arg = {},
                       .rmw = {}})
                .to_string(),
            "MOVE(R7 -> R2)");
  EXPECT_EQ((OpResult{.flag = false, .value = Value::of_u64(4)}).to_string(),
            "(false, 4)");
  EXPECT_STREQ(op_kind_name(OpKind::kValidate), "VL");
  EXPECT_STREQ(op_kind_name(OpKind::kRmw), "RMW");
  EXPECT_STREQ(op_group_name(OpGroup::kLoad), "load");
}

TEST(Trace, RenderRunShowsRoundsAndOps) {
  System sys(3, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  const std::string text = render_run(log);
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("terminated"), std::string::npos);
  EXPECT_NE(text.find("round 1"), std::string::npos);
  EXPECT_NE(text.find("SWAP"), std::string::npos);
  EXPECT_NE(text.find("LL"), std::string::npos);
}

TEST(Trace, MaxRoundsTruncates) {
  System sys(3, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  ASSERT_GT(log.num_rounds(), 2);
  TraceOptions opts;
  opts.max_rounds = 2;
  const std::string text = render_run(log, opts);
  EXPECT_NE(text.find("more rounds"), std::string::npos);
  EXPECT_EQ(text.find("round 3"), std::string::npos);
}

TEST(Trace, UpGrowthTable) {
  System sys(4, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  const UpTracker tracker = UpTracker::over(log);
  const std::string text = render_up_growth(tracker);
  EXPECT_NE(text.find("round | max|UP(X,r)| | bound 4^r"),
            std::string::npos);
  EXPECT_NE(text.find("0 | 1 | 1"), std::string::npos);
}

TEST(Trace, RunComparisonShowsBothColumns) {
  const int n = 4;
  System all_sys(n, tournament_wakeup());
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);
  const ProcSet s = ProcSet::of(n, {0, 2});
  System s_sys(n, tournament_wakeup());
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);
  const std::string text = render_run_comparison(all_log, s_log);
  EXPECT_NE(text.find("(All,A)-run"), std::string::npos);
  EXPECT_NE(text.find("1 | {p0,p1,p2,p3} | "), std::string::npos);
}

TEST(Trace, ShowRegistersRendersValues) {
  System sys(2, counter_wakeup());
  const RunLog log = run_adversary(sys);
  TraceOptions opts;
  opts.show_registers = true;
  const std::string text = render_run(log, opts);
  EXPECT_NE(text.find("R0 = "), std::string::npos);
}

}  // namespace
}  // namespace llsc
