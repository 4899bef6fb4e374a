// The hazard-pointer Reclaimer (hw/reclaim.h).
//
// Covers the bound it exists for — a peer stalled inside an operation
// keeps at most one node alive, so unreclaimed nodes stay within
// slots × scan threshold whatever the peer does — plus crash-recovery
// protection release, the slot-range precondition, per-HwMemory counter
// scoping (no process-global reclamation state), the deterministic
// counters on fixed scripts, oversubscribed stress with carrier-bound slots
// (the TSan-facing leg), and loading artifacts that still carry the
// reclaimer block older runs wrote.
#include "hw/reclaim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/lower_bound.h"
#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "hw/hw_executor.h"
#include "hw/hw_memory.h"
#include "hw/oversub_executor.h"
#include "hw/replay.h"
#include "memory/rmw.h"

namespace llsc {
namespace {

Value big_value(std::uint64_t i) {
  // Payloads above kInlineMaxU64 never fit an inline word, so they force
  // the node path.
  return Value::of_u64(kInlineMaxU64 + 2 + i);
}

// Drives a reclaimer directly: slot 0 hammers one register word with
// installs (allocate, CAS, retire the predecessor) while other slots hold
// whatever protections the test arranged.
struct WordHammer {
  std::atomic<std::uint64_t> word{0};

  explicit WordHammer(Reclaimer& r) : r_(r) {
    word.store(from_node(new VersionedNode{Value{}, 1}),
               std::memory_order_relaxed);
  }
  ~WordHammer() { delete as_node(word.load(std::memory_order_relaxed)); }

  void install(int slot, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t cur = r_.acquire(slot, word);
      auto* fresh = new VersionedNode{Value::of_u64(i),
                                      as_node(cur)->version + 1};
      word.store(from_node(fresh), std::memory_order_release);
      r_.retire(slot, as_node(cur));
      r_.release(slot);
    }
  }

 private:
  Reclaimer& r_;
};

TEST(ReclaimerTest, PinnedPeerKeepsGarbageBounded) {
  Reclaimer r(2);
  WordHammer hammer(r);
  // Slot 1 protects the current head and parks. One hazard word can keep
  // at most one node alive per scan; everything else must be freed.
  const std::uint64_t protected_word = r.acquire(1, hammer.word);
  VersionedNode* protected_node = as_node(protected_word);
  const Value protected_value = protected_node->value;
  const std::uint64_t kInstalls = 4096;
  hammer.install(0, kInstalls);
  const ReclaimStats pinned = r.stats();
  EXPECT_EQ(pinned.nodes_retired, kInstalls);
  // Bounded garbage: the per-slot list never exceeds threshold + 1, and
  // each scan keeps at most num_slots protected nodes.
  EXPECT_LE(pinned.node_high_water, r.scan_threshold() + 1);
  EXPECT_GE(pinned.nodes_freed, kInstalls - r.scan_threshold() - 2);
  // The protected node is still dereferenceable (ASan would flag a
  // use-after-free here if the scan ignored the hazard word).
  EXPECT_EQ(protected_node->value, protected_value);
  r.release(1);
  r.quiesce();
  EXPECT_EQ(r.stats().nodes_freed, kInstalls);
}

TEST(ReclaimerTest, ReleaseDropsProtectionLikeCrashRecovery) {
  // release(slot) is what invalidate_links routes a restart through: the
  // dead incarnation's protection must not outlive it. After the release,
  // the previously protected node becomes reclaimable.
  Reclaimer r(2);
  WordHammer hammer(r);
  (void)r.acquire(1, hammer.word);
  r.release(1);  // the "crash": slot 1's protection dies with it
  const std::uint64_t kInstalls = 2 * r.scan_threshold() + 8;
  hammer.install(0, kInstalls);
  r.quiesce();
  // Every retired node was freed — the released hazard kept nothing.
  EXPECT_EQ(r.stats().nodes_freed, kInstalls);
}

TEST(ReclaimerDeathTest, UnboundProcessOutsideSlotTableIsRejected) {
  // A carrier-slot memory (8 processes, 2 slots) serves processes >= 2
  // only through a carrier binding; an unbound caller must fail loudly
  // instead of indexing past the slot table.
  HwMemory mem(1, 8, {}, /*storage=*/{}, /*reclaim=*/{}, 2);
  EXPECT_DEATH((void)mem.ll(5, 0),
               "unbound process id outside this reclaimer's slot table");
}

// The memory-level version of the stalled-peer scenario: process 1 sits
// inside rmw() — its RmwFunction blocks until released, which keeps its
// hazard word published — while process 0 churns node installs on
// another register.
struct StalledPeer {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::shared_ptr<const RmwFunction> fn = make_rmw("stall", [this](
                                                                const Value&) {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return Value::of_u64(1);
  });
};

TEST(HwReclaimTest, StalledPeerKeepsGarbageBounded) {
  const std::uint64_t kInstalls = 8192;
  HwMemory mem(2, 2);
  // Demote both registers first: the peer's hazard word then holds
  // register 1's node (an inline word publishes none), and every churn
  // install below replaces (and retires) a node of register 0.
  (void)mem.swap(0, 0, big_value(0));
  (void)mem.swap(1, 1, big_value(0));
  StalledPeer peer;
  std::thread stalled([&] { (void)mem.rmw(1, 1, *peer.fn); });
  while (!peer.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (std::uint64_t i = 0; i < kInstalls; ++i) {
    (void)mem.swap(0, 0, big_value(i));
  }
  // Read while the peer is still stalled: the high water of a stall that
  // never ended.
  const ReclaimStats mid = mem.reclaim_stats();
  peer.release.store(true, std::memory_order_release);
  stalled.join();
  EXPECT_GE(mid.nodes_retired, kInstalls);
  // The stalled peer holds exactly one hazard word; the churn's slot scans
  // at its threshold (max(64, 2·slots) = 64 here), so high water is a
  // small constant independent of kInstalls.
  Reclaimer& r = mem.reclaimer();
  EXPECT_LE(mid.node_high_water, static_cast<std::uint64_t>(r.num_slots()) *
                                     r.scan_threshold());
  EXPECT_GE(mid.nodes_freed, kInstalls - r.scan_threshold());
}

TEST(HwReclaimTest, CountersAreScopedPerHwMemoryInstance) {
  // Regression for process-global reclamation state: two back-to-back
  // instances must produce identical counters for identical workloads —
  // nothing may accumulate across instances or leak through statics.
  auto run_workload = [] {
    HwMemory mem(1, 1);
    for (std::uint64_t i = 0; i < 500; ++i) {
      (void)mem.swap(0, 0, big_value(i));
    }
    return mem.reclaim_stats();
  };
  const ReclaimStats first = run_workload();
  const ReclaimStats second = run_workload();
  EXPECT_EQ(first.nodes_allocated, 500u);
  EXPECT_EQ(second.nodes_allocated, first.nodes_allocated);
  EXPECT_EQ(second.nodes_retired, first.nodes_retired);
  EXPECT_EQ(second.nodes_freed, first.nodes_freed);
  EXPECT_EQ(second.scan_passes, first.scan_passes);
  EXPECT_EQ(second.node_high_water, first.node_high_water);
}

TEST(HwReclaimTest, DeterministicCountersOnNodes) {
  // A single-process op sequence fixes the deterministic counters
  // (allocated / retired). Wide values: every completed install
  // allocates, and every one but a register's first (which replaced its
  // inline word) retires.
  HwMemory hw(4, 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const RegId r = static_cast<RegId>(i % 4);
    (void)hw.swap(0, r, big_value(i));
    (void)hw.ll(0, r);
    ASSERT_TRUE(hw.sc(0, r, big_value(i + 1)).flag);
  }
  const ReclaimStats h = hw.reclaim_stats();
  EXPECT_EQ(h.nodes_allocated, 200u);  // 100 swaps + 100 SC successes
  EXPECT_EQ(h.nodes_retired, 196u);    // less one demoting write per register
}

TEST(HwReclaimTest, DeterministicCountersThroughDemotion) {
  // Small values never touch a node; an overflow demotes the register,
  // after which every install on it allocates — and retires only once a
  // node is actually replaced (not on the demoting install).
  HwMemory hw(4, 1);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const RegId r = static_cast<RegId>(i % 4);
    (void)hw.swap(0, r, Value::of_u64(i));  // always fits inline
  }
  ReclaimStats h = hw.reclaim_stats();
  EXPECT_EQ(h.nodes_allocated, 0u);
  // Register 0 overflows once, then keeps receiving node installs.
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)hw.swap(0, 0, big_value(i));
  }
  h = hw.reclaim_stats();
  EXPECT_EQ(h.nodes_allocated, 10u);
  EXPECT_EQ(h.nodes_retired, 9u);  // the demoting install replaced no node
  // Register 1 runs past its tag period by swap, LL;SC and RMW: the
  // write that would reuse a tag demotes it without an overflow event.
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.as_u64() + 1);
  });
  for (std::uint64_t i = 0; i < 70'000; ++i) {
    switch (i % 3) {
      case 0:
        (void)hw.swap(0, 1, Value::of_u64(i));
        break;
      case 1:
        (void)hw.ll(0, 1);
        ASSERT_TRUE(hw.sc(0, 1, Value::of_u64(i)).flag);
        break;
      default:
        (void)hw.rmw(0, 1, *inc);
        break;
    }
  }
  h = hw.reclaim_stats();
  // Register 1 took 15 inline swaps above, so 70,000 - (65,534 - 15) of
  // these writes went to nodes.
  EXPECT_EQ(h.nodes_allocated, 10u + 70'000u - (kInlineTagPeriod - 1 - 15));
  const RegisterWidthStats hwd = hw.width_stats();
  EXPECT_EQ(hwd.overflow_events, 10u);
  EXPECT_EQ(hwd.boxed_fallback_registers, 2u);
}

// A shared counter that counts from just above kInlineMaxU64, so every
// increment is a node write: the first demotes register 0, and each later
// one replaces (and retires) a node.
constexpr std::uint64_t kWideBase = kInlineMaxU64 + 1;

std::shared_ptr<const RmwFunction> fetch_add1() {
  return make_rmw("fetch&add1", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? kWideBase + 1 : v.as_u64() + 1);
  });
}

// Returns the sum of the counts it read (each read less kWideBase).
SimTask counter_body(ProcCtx ctx, std::shared_ptr<const RmwFunction> inc,
                     int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    const Value old = co_await ctx.rmw(0, inc);
    sum += old.is_nil() ? 0 : old.as_u64() - kWideBase;
  }
  co_return Value::of_u64(sum);
}

TEST(HwReclaimTest, ExecutorSurfacesReclaimStats) {
  auto inc = fetch_add1();
  const int n = 4;
  const int ops = 64;
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  HwRunOptions options;
  options.seed = 3;
  HwExecutor exec(options);
  const HwRunResult run = exec.run(n, body);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.reclaim.nodes_allocated, static_cast<std::uint64_t>(n) * ops);
  EXPECT_EQ(run.reclaim.nodes_retired,
            static_cast<std::uint64_t>(n) * ops - 1);
  EXPECT_LE(run.reclaim.nodes_freed, run.reclaim.nodes_retired);
  EXPECT_GT(run.reclaim.node_high_water, 0u);
}

TEST(HwReclaimTest, OversubscribedStressIsExactAndBounded) {
  // The TSan-facing leg: M = 64 coroutine processes on N = 4 carriers,
  // yielding after every shared op (so a process may resume on another
  // carrier between any two ops), hazard slots bound to carriers. The
  // yield count proves the migration opportunities really happened; the
  // exact counter total proves no lost/duplicated op;
  // ASan/TSan prove no protection was dropped across a migration; the
  // high-water bound proves slots really are per carrier (4 slots →
  // threshold 64 → small constant backlog).
  const int m = 64;
  const int ops = 30;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  OversubRunOptions options;
  options.num_threads = 4;
  options.seed = 17;
  OversubscribedExecutor exec(options);
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  std::uint64_t sum = 0;
  for (const Value& v : run.results) {
    ASSERT_TRUE(v.holds_u64());
    sum += v.as_u64();
  }
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  EXPECT_EQ(sum, total * (total - 1) / 2);
  // One yield per shared op: every op is a point where the coroutine
  // hands its carrier back and may be stolen by another.
  EXPECT_EQ(run.sched.yields, total);
  EXPECT_EQ(run.reclaim.nodes_retired, total - 1);
  // 4 carrier slots, threshold max(64, 8) = 64: per-slot backlog is at
  // most threshold + 1, so the summed high water stays far below the
  // 1920-op churn even before any stall.
  EXPECT_LE(run.reclaim.node_high_water, 4u * 65u);
}

TEST(HwReclaimTest, DefaultOversubscribedRunFreesWithinCarrierBound) {
  // Default options: M = 16N processes of 50 node-writing RMWs each on
  // the default carrier count. Slots are per carrier, so each carrier's
  // slot sees hundreds of retirements and its scans free nodes, and the
  // summed backlog stays within N × scan threshold.
  OversubRunOptions options;
  const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int m = 16 * n;
  const int ops = 50;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  OversubscribedExecutor exec(options);
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  ASSERT_EQ(run.sched.num_threads, n);
  EXPECT_EQ(run.reclaim.nodes_retired,
            static_cast<std::uint64_t>(m) * ops - 1);
  EXPECT_GT(run.reclaim.nodes_freed, 0u);
  EXPECT_LE(run.reclaim.node_high_water, Reclaimer::max_unreclaimed(n));
}

TEST(HwReclaimTest, ArtifactWithOldReclaimerBlockParsesAndReplays) {
  // Artifacts written while the reclaimer was selectable carry a
  // "reclaimer" block; it is ignored now, and the artifact still replays
  // on both substrates.
  const int n = 4;
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.5;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 3, .recovery = {}});
  const int max_rounds = AdversaryOptions{}.max_rounds;
  const FaultArtifact artifact = freeze(
      "fixed_ll_sc", n, 42, plan, max_rounds,
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), n, 42, plan,
              max_rounds),
      /*sample_index=*/0);
  const std::string json = artifact.to_json();
  EXPECT_EQ(json.find("reclaimer"), std::string::npos);

  std::string old_json = json;
  const std::size_t at = old_json.find("  \"proc_ops\"");
  ASSERT_NE(at, std::string::npos);
  old_json.insert(at,
                  "  \"reclaimer\": \"hazard\",\n"
                  "  \"nodes_retired\": 11,\n"
                  "  \"nodes_reclaimed\": 9,\n");
  FaultArtifact parsed;
  std::string error;
  ASSERT_TRUE(FaultArtifact::from_json(old_json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.to_json(), json);

  const ProcBody body = fault_scenario(parsed.scenario);
  const Observation sim =
      observe(Substrate::kSim, body, parsed.n, parsed.toss_seed, parsed.plan,
              parsed.max_rounds);
  EXPECT_EQ(sim.status, parsed.status);
  EXPECT_EQ(sim.proc_ops, parsed.proc_ops);

  const Observation hw = observe(Substrate::kHw, body, parsed.n,
                                 parsed.toss_seed, parsed.plan);
  EXPECT_EQ(hw.status, parsed.status);
  EXPECT_EQ(hw.proc_ops, parsed.proc_ops);
}

}  // namespace
}  // namespace llsc
