// Tests for the Section 7 register-width audit, read from the live width
// counters (SharedMemory::width_stats): log-time wakeup fits in
// O(log n)-bit registers; the log-time universal construction does not.
#include <gtest/gtest.h>

#include "core/adversary.h"
#include "memory/shared_memory.h"
#include "objects/arith.h"
#include "sched/scheduler.h"
#include "universal/group_update.h"
#include "util/str.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

// The wakeup's width counters after a complete Fig. 2 adversary run.
RegisterWidthStats adversary_widths(int n, const ProcBody& body) {
  System sys(n, body);
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated) << "n=" << n;
  return sys.memory().width_stats();
}

TEST(Audit, TournamentFitsLogNBitRegisters) {
  for (const int n : {4, 16, 64, 256}) {
    const RegisterWidthStats width = adversary_widths(n, tournament_wakeup());
    EXPECT_TRUE(width.bounded()) << "n=" << n;
    // Counts are at most n: ceil(log2(n)) + 1 bits suffice.
    EXPECT_LE(width.max_bits, ceil_log2(static_cast<std::size_t>(n)) + 1)
        << "n=" << n;
    EXPECT_GT(width.writes_inspected, 0u);
  }
}

TEST(Audit, NaiveCounterFitsLogNBitRegisters) {
  for (const int n : {4, 16, 64, 256}) {
    const RegisterWidthStats width = adversary_widths(n, counter_wakeup());
    EXPECT_TRUE(width.bounded()) << "n=" << n;
    EXPECT_LE(width.max_bits, ceil_log2(static_cast<std::size_t>(n)) + 1)
        << "n=" << n;
    EXPECT_GT(width.writes_inspected, 0u);
  }
}

SimTask uc_worker(ProcCtx ctx, UniversalConstruction* uc) {
  ObjOp op{"fetch&increment", {}};
  const Value r = co_await uc->execute(ctx, std::move(op));
  co_return r;
}

TEST(Audit, GroupUpdateNeedsUnboundedRegisters) {
  // The tight O(log n) construction writes announce sets and object
  // snapshots into registers — the "impractical register size" the paper's
  // Section 7 calls out.
  const int n = 8;
  GroupUpdateUC uc(n, [] { return std::make_unique<FetchAddObject>(64); });
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    return uc_worker(ctx, &uc);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1 << 22).all_terminated);
  const RegisterWidthStats width = sys.memory().width_stats();
  EXPECT_FALSE(width.bounded());
  EXPECT_EQ(width.max_bits, ~std::size_t{0});
}

TEST(Audit, NothingWrittenIsTriviallyBounded) {
  const RegisterWidthStats width = SharedMemory().width_stats();
  EXPECT_TRUE(width.bounded());
  EXPECT_EQ(width.max_bits, 0u);
  EXPECT_EQ(width.writes_inspected, 0u);
}

TEST(Audit, FailedScWritesNothing) {
  // Only successful SCs and swaps install new values (moves copy existing
  // ones, RMWs are outside the five-operation model): the counters' S7
  // writes must equal those counted from the adversary's per-op records.
  for (const ProcBody& body : {counter_wakeup(), swap_mix_wakeup()}) {
    System sys(4, body);
    const RunLog log = run_adversary(sys);
    ASSERT_TRUE(log.all_terminated);
    std::uint64_t successes = 0;
    std::uint64_t swaps = 0;
    std::uint64_t failures = 0;
    for (const RoundRecord& rec : log.rounds) {
      for (const OpRecord& op : rec.ops) {
        successes += op.op.kind == OpKind::kSC && op.result.flag;
        failures += op.op.kind == OpKind::kSC && !op.result.flag;
        swaps += op.op.kind == OpKind::kSwap;
      }
    }
    const MemoryOpCounts& counts = sys.memory().counts();
    EXPECT_EQ(sys.memory().width_stats().writes_inspected -
                  counts[OpKind::kMove] - counts[OpKind::kRmw],
              successes + swaps);
    EXPECT_EQ(counts[OpKind::kSC], successes + failures);
    EXPECT_EQ(counts[OpKind::kSwap], swaps);
  }
}

}  // namespace
}  // namespace llsc
