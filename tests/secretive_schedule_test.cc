// Tests for sched/secretive_schedule.h: the Section 4 machinery.
// Lemma 4.1 (a secretive complete schedule always exists — the
// construction yields one) and Lemma 4.2 (restricting to any superset of
// a register's movers preserves its source) are checked on hand-crafted
// and randomly generated move sets.
#include "sched/secretive_schedule.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/rng.h"

namespace llsc {
namespace {

TEST(MoveAnalysis, EmptyScheduleIsIdentity) {
  const MoveSet moves = {{0, 1, 2}};
  const MoveAnalysis a(moves, {});
  EXPECT_EQ(a.source(2), 2u);
  EXPECT_TRUE(a.movers(2).empty());
  EXPECT_TRUE(a.touched().empty());
}

TEST(MoveAnalysis, SingleMove) {
  const MoveSet moves = {{0, 1, 2}};  // p0: R1 -> R2
  const MoveAnalysis a(moves, {0});
  EXPECT_EQ(a.source(2), 1u);
  EXPECT_EQ(a.movers(2), (std::vector<ProcId>{0}));
  EXPECT_EQ(a.source(1), 1u);  // the source register itself is untouched
}

TEST(MoveAnalysis, ChainFollowsOrder) {
  // p0: R0->R1, p1: R1->R2. Scheduled 0 then 1: R2 gets R0's original.
  const MoveSet moves = {{0, 0, 1}, {1, 1, 2}};
  const MoveAnalysis forward(moves, {0, 1});
  EXPECT_EQ(forward.source(2), 0u);
  EXPECT_EQ(forward.movers(2), (std::vector<ProcId>{0, 1}));
  // Scheduled 1 then 0: R2 gets R1's original, R1 gets R0's.
  const MoveAnalysis backward(moves, {1, 0});
  EXPECT_EQ(backward.source(2), 1u);
  EXPECT_EQ(backward.movers(2), (std::vector<ProcId>{1}));
  EXPECT_EQ(backward.source(1), 0u);
}

TEST(MoveAnalysis, LaterMoveOverwrites) {
  // Both move into R5; the last one wins.
  const MoveSet moves = {{0, 1, 5}, {1, 2, 5}};
  const MoveAnalysis a(moves, {0, 1});
  EXPECT_EQ(a.source(5), 2u);
  EXPECT_EQ(a.movers(5), (std::vector<ProcId>{1}));
}

TEST(SecretiveSchedule, PaperChainExample) {
  // The Section 4 motivating example: p_i moves R_i into R_{i+1}. The
  // naive id order would give R_n the original value of R_0 with n movers;
  // a secretive schedule caps movers at 2 everywhere.
  const int n = 64;
  MoveSet moves;
  for (ProcId p = 0; p < n; ++p) {
    moves.push_back({p, static_cast<RegId>(p), static_cast<RegId>(p) + 1});
  }
  // Confirm the naive order is NOT secretive.
  std::vector<ProcId> naive;
  for (ProcId p = 0; p < n; ++p) naive.push_back(p);
  EXPECT_FALSE(is_secretive_complete(moves, naive));
  const MoveAnalysis bad(moves, naive);
  EXPECT_EQ(bad.movers(n).size(), static_cast<std::size_t>(n));

  // The constructed schedule is.
  const auto sigma = secretive_complete_schedule(moves);
  EXPECT_TRUE(is_secretive_complete(moves, sigma));
  // And matches the paper's even/odd intuition: each R_i receives the
  // original value of R_{i-1} or R_{i-2}.
  const MoveAnalysis good(moves, sigma);
  for (RegId r = 1; r <= static_cast<RegId>(n); ++r) {
    EXPECT_GE(good.source(r) + 2, r);
    EXPECT_LT(good.source(r), r);
  }
}

TEST(SecretiveSchedule, CycleHandled) {
  // p0: R0->R1, p1: R1->R0 — a two-cycle.
  const MoveSet moves = {{0, 0, 1}, {1, 1, 0}};
  const auto sigma = secretive_complete_schedule(moves);
  EXPECT_TRUE(is_secretive_complete(moves, sigma));
}

TEST(SecretiveSchedule, FanInManyToOne) {
  // Many processes all moving into the same register.
  MoveSet moves;
  for (ProcId p = 0; p < 20; ++p) {
    moves.push_back({p, static_cast<RegId>(100 + p), 7});
  }
  const auto sigma = secretive_complete_schedule(moves);
  ASSERT_TRUE(is_secretive_complete(moves, sigma));
  const MoveAnalysis a(moves, sigma);
  EXPECT_EQ(a.movers(7).size(), 1u);  // all sources fresh: closed with one
}

TEST(SecretiveSchedule, EmptyMoveSet) {
  EXPECT_TRUE(secretive_complete_schedule({}).empty());
  EXPECT_TRUE(is_secretive_complete({}, {}));
}

TEST(SecretiveSchedule, RestrictScheduleKeepsOrder) {
  const std::vector<ProcId> sigma = {4, 1, 3, 2};
  const std::vector<ProcId> subset = {1, 2};
  EXPECT_EQ(restrict_schedule(sigma, subset), (std::vector<ProcId>{1, 2}));
}

TEST(SecretiveScheduleDeath, SelfMoveRejected) {
  const MoveSet moves = {{0, 3, 3}};
  EXPECT_DEATH(secretive_complete_schedule(moves), "self-move");
}

TEST(SecretiveScheduleDeath, DuplicateProcessRejected) {
  const MoveSet moves = {{0, 1, 2}, {0, 3, 4}};
  EXPECT_DEATH(secretive_complete_schedule(moves), "at most one");
}

// Random move-set generator: k processes, registers drawn from a small
// pool (heavy collision pressure), no self-moves.
MoveSet random_move_set(Rng& rng, int k, RegId pool) {
  MoveSet moves;
  for (ProcId p = 0; p < k; ++p) {
    const RegId src = rng.next_below(pool);
    RegId dst = rng.next_below(pool - 1);
    if (dst >= src) ++dst;
    moves.push_back({p, src, dst});
  }
  return moves;
}

class SecretivePropertyTest : public ::testing::TestWithParam<int> {};

// Lemma 4.1: the constructed schedule is always secretive and complete.
TEST_P(SecretivePropertyTest, ConstructionIsSecretiveComplete) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 100; ++iter) {
    const int k = 1 + static_cast<int>(rng.next_below(40));
    const RegId pool = 2 + rng.next_below(12);
    const MoveSet moves = random_move_set(rng, k, pool);
    const auto sigma = secretive_complete_schedule(moves);
    EXPECT_TRUE(is_secretive_complete(moves, sigma))
        << "k=" << k << " pool=" << pool << " iter=" << iter;
  }
}

// Lemma 4.2: for every touched register, restricting the schedule to any
// random superset of its movers preserves its source.
TEST_P(SecretivePropertyTest, RestrictionPreservesSources) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) ^ 0xABCD);
  for (int iter = 0; iter < 60; ++iter) {
    const int k = 2 + static_cast<int>(rng.next_below(30));
    const RegId pool = 2 + rng.next_below(10);
    const MoveSet moves = random_move_set(rng, k, pool);
    const auto sigma = secretive_complete_schedule(moves);
    const MoveAnalysis analysis(moves, sigma);
    for (const RegId r : analysis.touched()) {
      std::unordered_set<ProcId> subset;
      for (const ProcId p : analysis.movers(r)) subset.insert(p);
      // Pad the subset with random extra processes.
      for (const MoveOp& m : moves) {
        if (rng.next_bool()) subset.insert(m.proc);
      }
      EXPECT_TRUE(restriction_preserves_source(moves, sigma, subset, r))
          << "register " << r << " iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecretivePropertyTest,
                         ::testing::Values(1, 7, 13, 101, 9999));

}  // namespace
}  // namespace llsc
