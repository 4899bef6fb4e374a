// Tests for memory/shared_memory.h: the exact Section 3 semantics of
// LL, SC, validate, swap and move, including every Pset interaction.
#include "memory/shared_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

namespace llsc {
namespace {

TEST(SharedMemory, FreshRegisterIsNilWithEmptyPset) {
  SharedMemory mem;
  const OpResult r = mem.validate(0, 5);
  EXPECT_FALSE(r.flag);
  EXPECT_TRUE(r.value.is_nil());
  EXPECT_EQ(mem.peek_pset_size(5), 0u);
}

TEST(SharedMemory, LlReturnsValueAndLinks) {
  SharedMemory mem;
  mem.swap(0, 3, Value::of_u64(10));
  const Value v = mem.ll(1, 3);
  EXPECT_EQ(v.as_u64(), 10u);
  EXPECT_TRUE(mem.peek_pset_contains(3, 1));
  EXPECT_FALSE(mem.peek_pset_contains(3, 0));
}

TEST(SharedMemory, ScSucceedsAfterLl) {
  SharedMemory mem;
  mem.ll(0, 7);
  const OpResult r = mem.sc(0, 7, Value::of_u64(1));
  EXPECT_TRUE(r.flag);
  EXPECT_TRUE(r.value.is_nil());  // previous value
  EXPECT_EQ(mem.peek_value(7).as_u64(), 1u);
  EXPECT_EQ(mem.peek_pset_size(7), 0u);  // success clears the Pset
}

TEST(SharedMemory, ScWithoutLlFails) {
  SharedMemory mem;
  const OpResult r = mem.sc(0, 7, Value::of_u64(1));
  EXPECT_FALSE(r.flag);
  EXPECT_TRUE(mem.peek_value(7).is_nil());  // no effect
}

TEST(SharedMemory, InterferingScInvalidatesLink) {
  SharedMemory mem;
  mem.ll(0, 2);
  mem.ll(1, 2);
  EXPECT_TRUE(mem.sc(1, 2, Value::of_u64(11)).flag);
  // p0's link died with p1's successful SC.
  const OpResult r = mem.sc(0, 2, Value::of_u64(22));
  EXPECT_FALSE(r.flag);
  // Failed SC returns the *current* value (strengthened response).
  EXPECT_EQ(r.value.as_u64(), 11u);
  EXPECT_EQ(mem.peek_value(2).as_u64(), 11u);
}

TEST(SharedMemory, ValidateReportsLinkAndValue) {
  SharedMemory mem;
  mem.ll(0, 4);
  OpResult r = mem.validate(0, 4);
  EXPECT_TRUE(r.flag);
  // validate does not link: p1 validating does not join the Pset.
  r = mem.validate(1, 4);
  EXPECT_FALSE(r.flag);
  EXPECT_FALSE(mem.peek_pset_contains(4, 1));
  // ... and does not disturb p0's link.
  EXPECT_TRUE(mem.sc(0, 4, Value::of_u64(1)).flag);
}

TEST(SharedMemory, SwapReturnsPreviousAndClearsPset) {
  SharedMemory mem;
  mem.ll(0, 9);
  const Value prev = mem.swap(1, 9, Value::of_u64(5));
  EXPECT_TRUE(prev.is_nil());
  EXPECT_EQ(mem.peek_value(9).as_u64(), 5u);
  // p0's link died with the swap.
  EXPECT_FALSE(mem.sc(0, 9, Value::of_u64(6)).flag);
  const Value prev2 = mem.swap(2, 9, Value::of_u64(7));
  EXPECT_EQ(prev2.as_u64(), 5u);
}

TEST(SharedMemory, MoveCopiesValueAndClearsDstPset) {
  SharedMemory mem;
  mem.swap(0, 1, Value::of_u64(111));
  mem.ll(2, 5);  // p2 links the destination
  mem.move(3, 1, 5);
  EXPECT_EQ(mem.peek_value(5).as_u64(), 111u);
  EXPECT_EQ(mem.peek_value(1).as_u64(), 111u);  // source unchanged
  EXPECT_FALSE(mem.sc(2, 5, Value::of_u64(0)).flag);  // dst Pset cleared
}

TEST(SharedMemory, MovePreservesSourcePset) {
  SharedMemory mem;
  mem.swap(0, 1, Value::of_u64(111));
  mem.ll(2, 1);  // p2 links the SOURCE
  mem.move(3, 1, 5);
  EXPECT_TRUE(mem.sc(2, 1, Value::of_u64(0)).flag);  // src Pset untouched
}

TEST(SharedMemory, MoveFromUntouchedRegisterMovesNil) {
  SharedMemory mem;
  mem.swap(0, 5, Value::of_u64(9));
  mem.move(0, 100, 5);
  EXPECT_TRUE(mem.peek_value(5).is_nil());
}

TEST(SharedMemory, MultipleLinksAllSurviveUntilStore) {
  SharedMemory mem;
  mem.ll(0, 6);
  mem.ll(1, 6);
  mem.ll(2, 6);
  EXPECT_EQ(mem.peek_pset_size(6), 3u);
  EXPECT_TRUE(mem.sc(2, 6, Value::of_u64(1)).flag);
  EXPECT_FALSE(mem.sc(0, 6, Value::of_u64(2)).flag);
  EXPECT_FALSE(mem.sc(1, 6, Value::of_u64(3)).flag);
}

TEST(SharedMemory, RelinkAfterFailureAllowsSuccess) {
  SharedMemory mem;
  mem.ll(0, 6);
  mem.swap(1, 6, Value::of_u64(1));
  EXPECT_FALSE(mem.sc(0, 6, Value::of_u64(2)).flag);
  mem.ll(0, 6);
  EXPECT_TRUE(mem.sc(0, 6, Value::of_u64(2)).flag);
  EXPECT_EQ(mem.peek_value(6).as_u64(), 2u);
}

TEST(SharedMemory, ApplyDispatchesEveryKind) {
  SharedMemory mem;
  OpResult r = mem.apply(0, PendingOp{.kind = OpKind::kLL, .reg = 1,
                                      .src = 0, .arg = {}, .rmw = {}});
  EXPECT_TRUE(r.value.is_nil());
  r = mem.apply(0, PendingOp{.kind = OpKind::kSC, .reg = 1, .src = 0,
                             .arg = Value::of_u64(3), .rmw = {}});
  EXPECT_TRUE(r.flag);
  r = mem.apply(1, PendingOp{.kind = OpKind::kValidate, .reg = 1, .src = 0,
                             .arg = {}, .rmw = {}});
  EXPECT_FALSE(r.flag);
  EXPECT_EQ(r.value.as_u64(), 3u);
  r = mem.apply(1, PendingOp{.kind = OpKind::kSwap, .reg = 1, .src = 0,
                             .arg = Value::of_u64(4), .rmw = {}});
  EXPECT_EQ(r.value.as_u64(), 3u);
  r = mem.apply(1, PendingOp{.kind = OpKind::kMove, .reg = 2, .src = 1,
                             .arg = {}, .rmw = {}});
  EXPECT_TRUE(r.value.is_nil());
  EXPECT_EQ(mem.peek_value(2).as_u64(), 4u);
}

TEST(SharedMemory, CountsPerKind) {
  SharedMemory mem;
  mem.ll(0, 1);
  mem.ll(0, 2);
  mem.sc(0, 1, Value::of_u64(1));
  mem.validate(0, 1);
  mem.swap(0, 3, Value::of_u64(2));
  mem.move(0, 3, 4);
  EXPECT_EQ(mem.counts()[OpKind::kLL], 2u);
  EXPECT_EQ(mem.counts()[OpKind::kSC], 1u);
  EXPECT_EQ(mem.counts()[OpKind::kValidate], 1u);
  EXPECT_EQ(mem.counts()[OpKind::kSwap], 1u);
  EXPECT_EQ(mem.counts()[OpKind::kMove], 1u);
  EXPECT_EQ(mem.counts().total(), 6u);
}

TEST(SharedMemory, TouchedRegistersSorted) {
  SharedMemory mem;
  mem.swap(0, 9, Value::of_u64(1));
  mem.swap(0, 3, Value::of_u64(1));
  mem.ll(0, 7);
  const auto touched = mem.touched_registers();
  EXPECT_EQ(touched, (std::vector<RegId>{3, 7, 9}));
}

TEST(SharedMemory, StateHashSensitiveToValueAndPset) {
  SharedMemory a, b;
  a.swap(0, 1, Value::of_u64(1));
  b.swap(0, 1, Value::of_u64(1));
  EXPECT_EQ(a.state_hash(), b.state_hash());
  b.ll(3, 1);
  EXPECT_NE(a.state_hash(), b.state_hash());
  a.ll(3, 1);
  EXPECT_EQ(a.state_hash(), b.state_hash());
  a.swap(0, 1, Value::of_u64(2));
  EXPECT_NE(a.state_hash(), b.state_hash());
}

TEST(SharedMemory, SelfMoveClearsPsetKeepsValue) {
  // The raw memory supports self-moves (the model-level exclusion lives in
  // ProcCtx); semantics: value unchanged, Pset cleared.
  SharedMemory mem;
  mem.swap(0, 1, Value::of_u64(5));
  mem.ll(2, 1);
  mem.move(0, 1, 1);
  EXPECT_EQ(mem.peek_value(1).as_u64(), 5u);
  EXPECT_FALSE(mem.peek_pset_contains(1, 2));
}

// LLs in descending order, in a shuffled order, and repeated: the Pset
// stays ascending and duplicate-free, and neither peek_pset nor
// state_hash can tell the three arrival orders apart.
TEST(SharedMemory, PsetIsSortedAndIndependentOfLlOrder) {
  constexpr ProcId kProcs = 64;
  std::vector<ProcId> ascending(kProcs);
  std::iota(ascending.begin(), ascending.end(), 0);
  std::vector<ProcId> descending(ascending.rbegin(), ascending.rend());
  std::vector<ProcId> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));

  SharedMemory up, down, random;
  for (const ProcId p : ascending) up.ll(p, 4);
  for (const ProcId p : descending) down.ll(p, 4);
  for (const ProcId p : shuffled) random.ll(p, 4);
  for (const ProcId p : shuffled) random.ll(p, 4);  // re-links are no-ops

  EXPECT_EQ(up.peek_pset(4), ascending);
  EXPECT_EQ(down.peek_pset(4), ascending);
  EXPECT_EQ(random.peek_pset(4), ascending);
  EXPECT_EQ(down.state_hash(), up.state_hash());
  EXPECT_EQ(random.state_hash(), up.state_hash());
}

TEST(SharedMemory, InvalidateLinksRemovesExactlyThatProcess) {
  SharedMemory mem;
  for (const ProcId p : {5, 1, 3, 7}) {
    mem.ll(p, 1);
    mem.ll(p, 2);
  }
  mem.invalidate_links(3);
  EXPECT_EQ(mem.peek_pset(1), (std::vector<ProcId>{1, 5, 7}));
  EXPECT_EQ(mem.peek_pset(2), (std::vector<ProcId>{1, 5, 7}));
  mem.invalidate_links(4);  // not linked anywhere: no change
  EXPECT_EQ(mem.peek_pset(1), (std::vector<ProcId>{1, 5, 7}));
  EXPECT_FALSE(mem.sc(3, 1, Value::of_u64(1)).flag);
  EXPECT_TRUE(mem.sc(7, 1, Value::of_u64(1)).flag);
  EXPECT_TRUE(mem.validate(1, 2).flag);
}

// A cleared Pset keeps no stale links: after 1024 LLs and a successful SC
// the register answers the next LL/SC pair exactly as a fresh one does.
TEST(SharedMemory, ScAfterManyLlsLeavesRegisterLikeFresh) {
  constexpr ProcId kProcs = 1024;
  SharedMemory mem;
  for (ProcId p = kProcs - 1; p >= 0; --p) mem.ll(p, 9);
  EXPECT_EQ(mem.peek_pset_size(9), static_cast<std::size_t>(kProcs));
  EXPECT_TRUE(mem.sc(kProcs / 2, 9, Value::of_u64(1)).flag);
  EXPECT_TRUE(mem.peek_pset(9).empty());
  for (ProcId p = 0; p < kProcs; ++p) {
    ASSERT_FALSE(mem.peek_pset_contains(9, p));
    ASSERT_FALSE(mem.validate(p, 9).flag);
  }

  SharedMemory fresh;
  fresh.swap(0, 9, Value::of_u64(1));
  for (SharedMemory* m : {&mem, &fresh}) {
    EXPECT_EQ(m->ll(3, 9).as_u64(), 1u);
    EXPECT_EQ(m->peek_pset(9), (std::vector<ProcId>{3}));
    EXPECT_FALSE(m->sc(4, 9, Value::of_u64(2)).flag);
    const OpResult r = m->sc(3, 9, Value::of_u64(2));
    EXPECT_TRUE(r.flag);
    EXPECT_EQ(r.value.as_u64(), 1u);
    EXPECT_TRUE(m->peek_pset(9).empty());
  }
  EXPECT_EQ(mem.state_hash(), fresh.state_hash());
}

}  // namespace
}  // namespace llsc
