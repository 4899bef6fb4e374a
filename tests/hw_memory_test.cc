// HwMemory: single-thread parity with the paper-exact SharedMemory, the
// deterministic cross-thread SC/VL invalidation contract, lock-free
// fetch&increment counting under real contention, and node reclamation
// accounting. Registers start as inline words and demote to nodes when a
// value does not fit or a tag runs out (memory/storage_policy.h); the
// node-path cases write values above kInlineMaxU64 so every write after
// the first installs a node. Demotion itself (overflow, tag exhaustion)
// gets its own tests at the bottom.
#include "hw/hw_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "memory/rmw.h"
#include "memory/shared_memory.h"
#include "memory/storage_policy.h"
#include "util/rng.h"

namespace llsc {
namespace {

TEST(HwMemoryTest, LlScBasics) {
  HwMemory mem(4, 2);
  EXPECT_TRUE(mem.ll(0, 0).is_nil());
  OpResult r = mem.sc(0, 0, Value::of_u64(7));
  EXPECT_TRUE(r.flag);
  EXPECT_TRUE(r.value.is_nil());  // previous value on success
  EXPECT_EQ(mem.peek_value(0).as_u64(), 7u);
  // A successful SC clears the whole Pset, including the writer's own
  // link: an immediate second SC must fail and report the current value.
  r = mem.sc(0, 0, Value::of_u64(8));
  EXPECT_FALSE(r.flag);
  EXPECT_EQ(r.value.as_u64(), 7u);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 7u);
}

TEST(HwMemoryTest, InterveningScInvalidatesOtherLinks) {
  HwMemory mem(4, 2);
  (void)mem.ll(0, 0);
  (void)mem.ll(1, 0);
  ASSERT_TRUE(mem.sc(1, 0, Value::of_u64(1)).flag);
  // Process 0's link died with process 1's successful SC.
  EXPECT_FALSE(mem.validate(0, 0).flag);
  OpResult r = mem.sc(0, 0, Value::of_u64(2));
  EXPECT_FALSE(r.flag);
  EXPECT_EQ(r.value.as_u64(), 1u);
}

TEST(HwMemoryTest, InvalidateLinksDropsOnlyThatProcessesRow) {
  // Nine registers make each process's link row two lines long; the LLs
  // hit the second line, so a row or stride off by one line would drop a
  // neighbour's link or keep process 1's.
  HwMemory mem(9, 3);
  for (ProcId p = 0; p < 3; ++p) (void)mem.ll(p, 8);
  mem.invalidate_links(1);
  EXPECT_TRUE(mem.validate(0, 8).flag);
  EXPECT_FALSE(mem.validate(1, 8).flag);
  EXPECT_TRUE(mem.validate(2, 8).flag);
  // The surviving links are still exact: process 2's SC lands and kills
  // process 0's link.
  EXPECT_TRUE(mem.sc(2, 8, Value::of_u64(5)).flag);
  EXPECT_FALSE(mem.validate(0, 8).flag);
}

TEST(HwMemoryTest, SwapAndMoveInvalidate) {
  HwMemory mem(4, 2);
  (void)mem.ll(0, 0);
  EXPECT_TRUE(mem.swap(1, 0, Value::of_u64(3)).is_nil());
  EXPECT_FALSE(mem.validate(0, 0).flag);
  EXPECT_FALSE(mem.sc(0, 0, Value::of_u64(9)).flag);

  (void)mem.ll(0, 1);
  mem.move(1, /*src=*/0, /*dst=*/1);
  EXPECT_EQ(mem.peek_value(1).as_u64(), 3u);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 3u);  // source unchanged
  EXPECT_FALSE(mem.validate(0, 1).flag);
}

TEST(HwMemoryTest, RmwAppliesAndReturnsOld) {
  HwMemory mem(2, 1);
  (void)mem.swap(0, 0, Value::of_u64(10));
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.as_u64() + 1);
  });
  EXPECT_EQ(mem.rmw(0, 0, *inc).as_u64(), 10u);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 11u);
}

// Random single-thread op script applied to both memories step by step —
// every response (flag and value) must match the paper-exact model. One
// written value in eight does not fit an inline word, so the script runs
// registers in both forms and through their demotion.
TEST(HwMemoryTest, RandomParityWithSharedMemory) {
  constexpr int kProcs = 3;
  constexpr RegId kRegs = 4;
  HwMemory hw(kRegs, kProcs);
  SharedMemory model;
  Rng rng(42);
  const auto random_value = [&rng] {
    const std::uint64_t base = rng.next_below(8) == 0 ? kInlineMaxU64 + 1 : 0;
    return Value::of_u64(base + rng.next_u64() % 1000);
  };
  for (int step = 0; step < 5000; ++step) {
    PendingOp op;
    op.reg = rng.next_below(kRegs);
    const ProcId p = static_cast<ProcId>(rng.next_below(kProcs));
    switch (rng.next_below(5)) {
      case 0:
        op.kind = OpKind::kLL;
        break;
      case 1:
        op.kind = OpKind::kSC;
        op.arg = random_value();
        break;
      case 2:
        op.kind = OpKind::kValidate;
        break;
      case 3:
        op.kind = OpKind::kSwap;
        op.arg = random_value();
        break;
      default:
        op.kind = OpKind::kMove;
        op.src = (op.reg + 1 + rng.next_below(kRegs - 1)) % kRegs;
        break;
    }
    const OpResult got = hw.apply(p, op);
    const OpResult want = model.apply(p, op);
    ASSERT_EQ(got.flag, want.flag) << "step " << step;
    ASSERT_EQ(got.value, want.value) << "step " << step;
  }
  // Width accounting ticks at the same completed-install points on both
  // substrates, so the deterministic script produces identical counters.
  const RegisterWidthStats hw_width = hw.width_stats();
  const RegisterWidthStats sim_width = model.width_stats();
  EXPECT_GT(hw_width.inline_installs, 0u);
  EXPECT_GT(hw_width.boxed_installs, 0u);
  EXPECT_EQ(hw_width.writes_inspected, sim_width.writes_inspected);
  EXPECT_EQ(hw_width.max_bits, sim_width.max_bits);
  EXPECT_EQ(hw_width.overflow_events, sim_width.overflow_events);
  EXPECT_EQ(hw_width.inline_installs, sim_width.inline_installs);
  EXPECT_EQ(hw_width.boxed_installs, sim_width.boxed_installs);
  EXPECT_EQ(hw_width.boxed_fallback_registers,
            sim_width.boxed_fallback_registers);
}

// Writes that do not fit an inline word (a u64 above kInlineMaxU64 and a
// structured Value), by swap, SC, RMW and move. Each demotes its register,
// and every width and node counter matches the simulator's.
TEST(HwMemoryTest, UnencodableWritesMatchSharedMemory) {
  constexpr RegId kRegs = 4;
  HwMemory hw(kRegs, 1);
  SharedMemory model;
  const Value big = Value::of_u64(kInlineMaxU64 + 1);
  const Value wide = Value::of_string("structured payload");
  const auto widen = make_rmw("widen", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? kInlineMaxU64 + 7 : v.as_u64() + 1);
  });
  std::vector<PendingOp> script;
  auto add = [&script](OpKind kind, RegId reg, Value arg = Value{}) {
    PendingOp op;
    op.kind = kind;
    op.reg = reg;
    op.arg = std::move(arg);
    script.push_back(std::move(op));
    return &script.back();
  };
  (void)add(OpKind::kSwap, 0, big);
  (void)add(OpKind::kLL, 1);
  (void)add(OpKind::kSC, 1, wide);
  add(OpKind::kRmw, 2)->rmw = widen;
  (void)add(OpKind::kSwap, 3, Value::of_u64(5));
  (void)add(OpKind::kSwap, 0, Value::of_u64(4));  // small, onto register 0
  add(OpKind::kMove, 3)->src = 1;                  // wide, onto register 3
  (void)add(OpKind::kLL, 2);
  (void)add(OpKind::kSC, 2, Value::of_u64(9));

  for (std::size_t i = 0; i < script.size(); ++i) {
    const OpResult want = model.apply(0, script[i]);
    const OpResult got = hw.apply(0, script[i]);
    ASSERT_EQ(got.flag, want.flag) << "op " << i;
    ASSERT_EQ(got.value, want.value) << "op " << i;
  }

  const RegisterWidthStats hw_width = hw.width_stats();
  const RegisterWidthStats sim_width = model.width_stats();
  EXPECT_EQ(hw_width.overflow_events, sim_width.overflow_events);
  EXPECT_EQ(hw_width.boxed_fallback_registers,
            sim_width.boxed_fallback_registers);
  EXPECT_EQ(hw_width.boxed_installs, sim_width.boxed_installs);
  EXPECT_EQ(hw_width.inline_installs, sim_width.inline_installs);
  const ReclaimStats hw_nodes = hw.reclaim_stats();
  const ReclaimStats sim_nodes = model.reclaim_stats();
  EXPECT_EQ(hw_nodes.nodes_allocated, sim_nodes.nodes_allocated);
  EXPECT_EQ(hw_nodes.nodes_retired, sim_nodes.nodes_retired);
  // swap, SC, RMW and move each overflow once; registers 0-3 demote.
  EXPECT_EQ(hw_width.overflow_events, 4u);
  EXPECT_EQ(hw_width.boxed_fallback_registers, 4u);
  // Every write but the small swap onto still-inline register 3 takes a
  // node; the four demoting writes retire none.
  EXPECT_EQ(hw_nodes.nodes_allocated, 6u);
  EXPECT_EQ(hw_nodes.nodes_retired, 2u);
}

// The ABA probe: p0 links a register, then p1 completes one full tag
// period of LL;SC writes, the last of which writes p0's value back. Paper
// §3: an SC fails if any successful write came after the LL, so p0's VL
// and SC must both fail — however the register stores its words, and
// although an inline word with a wrapped 16-bit tag would be bit-identical
// to the one p0 linked.
TEST(HwMemoryTest, StaleLinkFailsAfterATagPeriodOfWrites) {
  HwMemory mem(1, 2);
  const Value linked = Value::of_u64(7);
  (void)mem.swap(1, 0, linked);
  EXPECT_EQ(mem.ll(0, 0), linked);
  for (std::uint64_t k = 1; k <= kInlineTagPeriod; ++k) {
    (void)mem.ll(1, 0);
    const Value v = k == kInlineTagPeriod ? linked : Value::of_u64(k + 7);
    ASSERT_TRUE(mem.sc(1, 0, v).flag) << "write " << k;
  }
  EXPECT_EQ(mem.peek_value(0), linked);
  EXPECT_FALSE(mem.validate(0, 0).flag);
  const OpResult r = mem.sc(0, 0, Value::of_u64(99));
  EXPECT_FALSE(r.flag);
  EXPECT_EQ(r.value, linked);
  EXPECT_EQ(mem.width_stats().overflow_events, 0u);
}

// Deterministic two-thread handshake: after an intervening swap, the
// reader's VL and SC must both fail — every round, no races about it.
TEST(HwMemoryTest, ScAndVlNeverSucceedAfterInterveningWrite) {
  constexpr int kRounds = 2000;
  HwMemory mem(2, 2);
  std::atomic<int> linked_round{-1};
  std::atomic<int> swapped_round{-1};
  std::thread writer([&] {
    for (int i = 0; i < kRounds; ++i) {
      while (linked_round.load() < i) std::this_thread::yield();
      (void)mem.swap(1, 0, Value::of_u64(static_cast<std::uint64_t>(i)));
      swapped_round.store(i);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    (void)mem.ll(0, 0);
    linked_round.store(i);
    while (swapped_round.load() < i) std::this_thread::yield();
    EXPECT_FALSE(mem.validate(0, 0).flag) << "round " << i;
    EXPECT_FALSE(mem.sc(0, 0, Value::of_u64(~0ull)).flag) << "round " << i;
  }
  writer.join();
  // No bogus SC ever landed: the register holds the last swap's value.
  EXPECT_EQ(mem.peek_value(0).as_u64(),
            static_cast<std::uint64_t>(kRounds - 1));
}

// Lock-free fetch&increment via LL/SC retry from several threads. Every
// successful SC adds exactly 1, so the final value must equal the summed
// success counts — lost updates (an SC succeeding despite an intervening
// write) or duplicated ones would break the equality.
TEST(HwMemoryTest, ConcurrentFetchIncrementIsExact) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  HwMemory mem(1, kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t ok = 0;
      while (ok < kPerThread) {
        const Value v = mem.ll(t, 0);
        const std::uint64_t cur = v.is_nil() ? 0 : v.as_u64();
        if (mem.sc(t, 0, Value::of_u64(cur + 1)).flag) ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mem.peek_value(0).as_u64(), kThreads * kPerThread);
  // The retry loop's payloads all fit an inline word, so the hot path
  // must never box a node.
  EXPECT_EQ(mem.reclaim_stats().nodes_allocated, 0u);
  EXPECT_EQ(mem.width_stats().overflow_events, 0u);
}

TEST(HwMemoryTest, ReclamationFreesRetiredNodes) {
  constexpr std::uint64_t kWrites = 20000;
  HwMemory mem(2, 1);
  // Small u64 payloads live in the register word itself: no nodes are
  // allocated, so there is nothing to retire or reclaim.
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    (void)mem.swap(0, 0, Value::of_u64(i));
  }
  ReclaimStats s = mem.reclaim_stats();
  EXPECT_EQ(s.nodes_allocated, 0u);
  EXPECT_EQ(s.nodes_retired, 0u);
  EXPECT_EQ(s.nodes_freed, 0u);
  EXPECT_EQ(mem.width_stats().inline_installs, kWrites);
  // Wide payloads take a node each.
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    (void)mem.swap(0, 1, Value::of_u64(kInlineMaxU64 + 1 + i));
  }
  s = mem.reclaim_stats();
  EXPECT_EQ(s.nodes_allocated, kWrites);
  // Every install retires its predecessor but the first, which replaced
  // the register's inline word.
  EXPECT_EQ(s.nodes_retired, kWrites - 1);
  EXPECT_LE(s.nodes_freed, s.nodes_retired);
  // The unfreed tail is bounded by the scan threshold, not the workload.
  EXPECT_GT(s.nodes_freed, 19000u);
}

// Oversubscription stress: twice as many worker threads as the machine
// has cores, all hammering one register through the rmw retry loop, where
// the backoff's parking tier engages (the configuration it exists for).
// Exactness of the final count proves no increment was lost or duplicated
// across spin, yield, AND park wait paths; the stats cross-check pins the
// accounting (every loop iteration is either a counted failure or a
// counted success). Runs under the tsan CI job like every hw_* suite.
TEST(HwMemoryTest, OversubscribedAdaptiveParkingRmwIsExact) {
  const int kThreads = std::max(
      4, 2 * static_cast<int>(std::thread::hardware_concurrency()));
  constexpr std::uint64_t kPerThread = 1500;
  // An immediate park threshold pushes the test into the parking tier as
  // soon as the window saturates.
  BackoffOptions opts;
  opts.park_threshold = 1;
  HwMemory mem(1, kThreads, opts);
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        (void)mem.rmw(t, 0, *inc);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mem.peek_value(0).as_u64(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HwBackoffStats s = mem.backoff_stats();
  // Every rmw lands exactly once, so successes count the operations and
  // every backoff wait was triggered by a counted failure.
  EXPECT_EQ(s.cas_successes, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.cas_failures, s.spin_pauses + s.yields + s.parks);
  EXPECT_GE(s.failure_rate(), 0.0);
  EXPECT_LE(s.failure_rate(), 1.0);
}

// Registers 0 and 1 count from nil and stay inline; registers 2 and 3
// count from above kInlineMaxU64, so every write to them takes a node.
TEST(HwMemoryTest, ReclamationUnderContention) {
  constexpr int kThreads = 4;
  constexpr RegId kWide = 2;
  HwMemory mem(4, kThreads);
  (void)mem.swap(0, 2, Value::of_u64(kInlineMaxU64 + 1));
  (void)mem.swap(0, 3, Value::of_u64(kInlineMaxU64 + 1));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        const RegId r = static_cast<RegId>(i & 3);
        const Value v = mem.ll(t, r);
        const std::uint64_t cur = v.is_nil() ? 0 : v.as_u64();
        if (!mem.sc(t, r, Value::of_u64(cur + 1)).flag) {
          (void)mem.swap(t, r, Value::of_u64(cur));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const ReclaimStats s = mem.reclaim_stats();
  // The narrow registers never demote under contention, and every node
  // write retires its predecessor but the two that replaced inline words.
  EXPECT_EQ(mem.width_stats().boxed_fallback_registers, kWide);
  EXPECT_EQ(s.nodes_retired + kWide, s.nodes_allocated);
  EXPECT_GT(s.nodes_freed, 0u);
  EXPECT_LE(s.nodes_freed, s.nodes_retired);
}

// --- demotion ------------------------------------------------------------

// A value beyond the 47-bit payload bound demotes the register to a
// node (sticky), counts an overflow event, and keeps every subsequent
// operation correct — including small values that would have fit.
TEST(HwMemoryDemotionTest, OverflowDemotesRegisterAndCounts) {
  HwMemory mem(2, 1);
  const Value big = Value::of_u64(kInlineMaxU64 + 1);
  (void)mem.swap(0, 0, big);
  EXPECT_EQ(mem.peek_value(0).as_u64(), kInlineMaxU64 + 1);
  RegisterWidthStats w = mem.width_stats();
  EXPECT_EQ(w.overflow_events, 1u);
  EXPECT_EQ(w.boxed_installs, 1u);
  EXPECT_EQ(w.boxed_fallback_registers, 1u);
  // Demotion is sticky: a small value on the demoted register is boxed,
  // while the untouched register still installs inline.
  (void)mem.swap(0, 0, Value::of_u64(5));
  (void)mem.swap(0, 1, Value::of_u64(5));
  w = mem.width_stats();
  EXPECT_EQ(w.boxed_installs, 2u);
  EXPECT_EQ(w.inline_installs, 1u);
  EXPECT_EQ(w.boxed_fallback_registers, 1u);
  EXPECT_EQ(w.overflow_events, 1u);  // only the unencodable write counts
  // LL/SC on the demoted register behaves exactly as specified.
  (void)mem.ll(0, 0);
  EXPECT_TRUE(mem.sc(0, 0, Value::of_u64(6)).flag);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 6u);
}

// Tag exhaustion: a register's 16-bit tag starts at 1 and never wraps, so
// it takes kInlineTagPeriod - 1 inline writes and then demotes to nodes,
// like an overflow but without counting one. Past the period the register
// holds a node and LL/SC stays exact.
TEST(HwMemoryDemotionTest, TagWrapKeepsLlScExact) {
  constexpr std::uint64_t kWrites = 70000;  // > one 65535 tag period
  constexpr std::uint64_t kInlineWrites = kInlineTagPeriod - 1;
  HwMemory mem(1, 1);
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    (void)mem.ll(0, 0);
    const OpResult r = mem.sc(0, 0, Value::of_u64(i));
    ASSERT_TRUE(r.flag) << "write " << i;
  }
  EXPECT_EQ(mem.peek_value(0).as_u64(), kWrites - 1);
  const RegisterWidthStats w = mem.width_stats();
  EXPECT_EQ(w.inline_installs, kInlineWrites);
  EXPECT_EQ(w.boxed_installs, kWrites - kInlineWrites);
  EXPECT_EQ(w.boxed_fallback_registers, 1u);
  EXPECT_EQ(w.overflow_events, 0u);
  const ReclaimStats nodes = mem.reclaim_stats();
  EXPECT_EQ(nodes.nodes_allocated, kWrites - kInlineWrites);
  // The demoting write replaced an inline word: nothing to retire.
  EXPECT_EQ(nodes.nodes_retired, kWrites - kInlineWrites - 1);
  // A link taken before a write must be dead after it.
  (void)mem.ll(0, 0);
  (void)mem.swap(0, 0, Value::of_u64(1));
  EXPECT_FALSE(mem.validate(0, 0).flag);
  EXPECT_FALSE(mem.sc(0, 0, Value::of_u64(2)).flag);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 1u);
}

// --- id checks -----------------------------------------------------------

// Every operation checks its ids against the fixed tables: a process id
// outside the link table and a register id outside the register
// table each fail their named precondition instead of indexing past the
// end.
TEST(HwMemoryDeathTest, OutOfRangeIdsAreRejected) {
  HwMemory mem(2, 2);
  EXPECT_DEATH((void)mem.ll(2, 0),
               "process id outside this memory's thread slots");
  EXPECT_DEATH((void)mem.sc(-1, 0, Value::of_u64(1)),
               "process id outside this memory's thread slots");
  EXPECT_DEATH((void)mem.validate(0, 2),
               "register id outside this memory's fixed table");
  EXPECT_DEATH((void)mem.swap(1, 7, Value::of_u64(1)),
               "register id outside this memory's fixed table");
  EXPECT_DEATH(mem.move(0, 0, 2),
               "register id outside this memory's fixed table");
}

// 2^30 processes × 2^37 link lines would wrap size_t; the constructor
// must refuse before allocating anything rather than size a table too
// small for the rows it indexes.
TEST(HwMemoryDeathTest, LinkTableSizeThatWouldWrapIsRejected) {
  EXPECT_DEATH(HwMemory(std::size_t{1} << 40, 1 << 30),
               "link table size \\(processes x registers\\) overflows");
}

}  // namespace
}  // namespace llsc
