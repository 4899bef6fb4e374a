// The Reclaimer seam (hw/reclaim.h): epoch vs hazard-pointer policies.
//
// Covers the trade-off the seam exists to expose — a peer stalled inside
// an operation pins the epoch and garbage grows with the stall, while
// hazard pointers bound unreclaimed nodes by the scan threshold whatever
// the peer does — plus crash-recovery protection release, per-HwMemory
// counter scoping (no process-global reclamation state), sim/hw parity of
// the deterministic counters, oversubscribed hazard stress with carrier-
// bound slots (the TSan-facing leg), and the FaultArtifact reclaimer
// block's byte-stability contract.
#include "hw/reclaim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "hw/fault.h"
#include "hw/hw_executor.h"
#include "hw/hw_memory.h"
#include "hw/oversub_executor.h"
#include "memory/rmw.h"
#include "memory/shared_memory.h"

namespace llsc {
namespace {

Value big_value(std::uint64_t i) {
  // Payloads above kInlineMaxU64 never fit an inline word, so they force
  // the node path under every storage policy.
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
      r_.begin(slot);
      const std::uint64_t cur = r_.acquire(slot, word);
      auto* fresh = new VersionedNode{Value::of_u64(i),
                                      as_node(cur)->version + 1};
      word.store(from_node(fresh), std::memory_order_release);
      r_.retire(slot, as_node(cur));
      r_.end(slot);
    }
  }

 private:
  Reclaimer& r_;
};

TEST(ReclaimerTest, EpochPinnedPeerBlocksAllReclamation) {
  EpochReclaimer r(2);
  WordHammer hammer(r);
  // Slot 1 parks inside a critical section: its epoch word holds the
  // global epoch it entered with, so the global epoch can never advance
  // and nothing ever becomes two epochs stale.
  r.begin(1);
  const std::uint64_t kInstalls = 4096;
  hammer.install(0, kInstalls);
  ReclaimStats pinned = r.stats();
  EXPECT_EQ(pinned.policy, ReclaimPolicy::kEpoch);
  EXPECT_EQ(pinned.nodes_retired, kInstalls);
  EXPECT_EQ(pinned.nodes_freed, 0u);
  // The leak metric: the whole retired backlog is the high water.
  EXPECT_GE(pinned.node_high_water, kInstalls);
  // Scans ran (every kScanInterval retires) — they just could not free.
  EXPECT_GT(pinned.scan_passes, 0u);
  // Releasing the peer un-pins the epoch; further traffic drains the
  // backlog down to the usual two-epoch tail.
  r.end(1);
  hammer.install(0, kInstalls);
  ReclaimStats drained = r.stats();
  EXPECT_GT(drained.nodes_freed, kInstalls);
}

TEST(ReclaimerTest, HazardBoundsGarbageUnderPinnedPeer) {
  HazardPointerReclaimer r(2);
  WordHammer hammer(r);
  // Slot 1 protects the current head and parks. One hazard word can keep
  // at most one node alive per scan; everything else must be freed.
  r.begin(1);
  const std::uint64_t protected_word = r.acquire(1, hammer.word);
  VersionedNode* protected_node = as_node(protected_word);
  const Value protected_value = protected_node->value;
  const std::uint64_t kInstalls = 4096;
  hammer.install(0, kInstalls);
  const ReclaimStats pinned = r.stats();
  EXPECT_EQ(pinned.policy, ReclaimPolicy::kHazard);
  EXPECT_EQ(pinned.nodes_retired, kInstalls);
  // Bounded garbage: the per-slot list never exceeds threshold + 1, and
  // each scan keeps at most num_slots protected nodes.
  EXPECT_LE(pinned.node_high_water, r.scan_threshold() + 1);
  EXPECT_GE(pinned.nodes_freed, kInstalls - r.scan_threshold() - 2);
  // The protected node is still dereferenceable (ASan would flag a
  // use-after-free here if the scan ignored the hazard word).
  EXPECT_EQ(protected_node->value, protected_value);
  r.end(1);
  r.quiesce();
  EXPECT_EQ(r.stats().nodes_freed, kInstalls);
}

TEST(ReclaimerTest, ReleaseDropsProtectionLikeCrashRecovery) {
  // release(slot) is what invalidate_links routes a restart through: the
  // dead incarnation's protection must not outlive it. After the release,
  // the previously protected node becomes reclaimable.
  HazardPointerReclaimer r(2);
  WordHammer hammer(r);
  r.begin(1);
  (void)r.acquire(1, hammer.word);
  r.release(1);  // the "crash": slot 1's protection dies with it
  const std::uint64_t kInstalls = 2 * r.scan_threshold() + 8;
  hammer.install(0, kInstalls);
  r.quiesce();
  // Every retired node was freed — the released hazard kept nothing.
  EXPECT_EQ(r.stats().nodes_freed, kInstalls);
}

// The memory-level version of the stalled-peer scenario: process 1 sits
// inside rmw() — its RmwFunction blocks until released, which keeps it in
// the reclaimer critical section — while process 0 churns boxed installs
// on another register. Epochs leak the whole churn; hazards stay bounded.
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

std::uint64_t churn_high_water(ReclaimPolicy policy, std::uint64_t installs) {
  HwMemory mem(2, 2, {}, StoragePolicy::kBoxed, policy);
  StalledPeer peer;
  std::thread stalled([&] { (void)mem.rmw(1, 1, *peer.fn); });
  while (!peer.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (std::uint64_t i = 0; i < installs; ++i) {
    (void)mem.swap(0, 0, Value::of_u64(i));
  }
  const ReclaimStats mid = mem.reclaim_stats();
  peer.release.store(true, std::memory_order_release);
  stalled.join();
  EXPECT_EQ(mid.policy, policy);
  EXPECT_GE(mid.nodes_retired, installs);
  return mid.node_high_water;
}

TEST(HwReclaimTest, StalledPeerLeaksUnderEpochsButNotHazards) {
  const std::uint64_t kInstalls = 8192;
  // Epochs: the stalled rmw pins the global epoch, so the churn's whole
  // backlog is unreclaimed — high water grows with the stall length.
  EXPECT_GE(churn_high_water(ReclaimPolicy::kEpoch, kInstalls), kInstalls);
  // Hazards: the stalled peer holds exactly one hazard word; the churn's
  // slot scans at its threshold (max(64, 2·slots) = 64 here), so high
  // water is a small constant independent of kInstalls.
  EXPECT_LE(churn_high_water(ReclaimPolicy::kHazard, kInstalls), 256u);
}

TEST(HwReclaimTest, CountersAreScopedPerHwMemoryInstance) {
  // Regression for process-global reclamation state: two back-to-back
  // instances must produce identical counters for identical workloads —
  // nothing may accumulate across instances or leak through statics.
  auto run_workload = [] {
    HwMemory mem(1, 1, {}, StoragePolicy::kBoxed, ReclaimPolicy::kHazard);
    for (std::uint64_t i = 0; i < 500; ++i) {
      (void)mem.swap(0, 0, Value::of_u64(i));
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

TEST(HwReclaimTest, SimulatorMirrorsDeterministicCountersBoxed) {
  // Identical single-process op sequences on both substrates: the
  // deterministic counters (allocated / retired) must agree exactly.
  // Boxed: every completed install allocates and retires.
  SharedMemory sim;
  sim.set_storage_policy(StoragePolicy::kBoxed);
  sim.set_reclaim_policy(ReclaimPolicy::kEpoch);
  HwMemory hw(4, 1, {}, StoragePolicy::kBoxed, ReclaimPolicy::kEpoch);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const RegId r = static_cast<RegId>(i % 4);
    (void)sim.swap(0, r, Value::of_u64(i));
    (void)hw.swap(0, r, Value::of_u64(i));
    (void)sim.ll(0, r);
    (void)hw.ll(0, r);
    const bool sim_ok = sim.sc(0, r, Value::of_u64(i + 1)).flag;
    const bool hw_ok = hw.sc(0, r, Value::of_u64(i + 1)).flag;
    ASSERT_EQ(sim_ok, hw_ok);
  }
  const ReclaimStats s = sim.reclaim_stats();
  const ReclaimStats h = hw.reclaim_stats();
  EXPECT_EQ(s.nodes_allocated, h.nodes_allocated);
  EXPECT_EQ(s.nodes_retired, h.nodes_retired);
  EXPECT_EQ(s.nodes_allocated, 200u);  // 100 swaps + 100 SC successes
}

TEST(HwReclaimTest, SimulatorMirrorsDeterministicCountersInline) {
  // Inline: small values never touch a node; an overflow demotes the
  // register, after which every install on it allocates — and retires
  // only once a node is actually replaced (not on the demoting install).
  SharedMemory sim;
  sim.set_storage_policy(StoragePolicy::kInline);
  sim.set_reclaim_policy(ReclaimPolicy::kEpoch);
  HwMemory hw(4, 1, {}, StoragePolicy::kInline, ReclaimPolicy::kEpoch);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const RegId r = static_cast<RegId>(i % 4);
    (void)sim.swap(0, r, Value::of_u64(i));  // always fits inline
    (void)hw.swap(0, r, Value::of_u64(i));
  }
  ReclaimStats s = sim.reclaim_stats();
  ReclaimStats h = hw.reclaim_stats();
  EXPECT_EQ(s.nodes_allocated, 0u);
  EXPECT_EQ(h.nodes_allocated, 0u);
  // Register 0 overflows once, then keeps receiving boxed installs.
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)sim.swap(0, 0, big_value(i));
    (void)hw.swap(0, 0, big_value(i));
  }
  s = sim.reclaim_stats();
  h = hw.reclaim_stats();
  EXPECT_EQ(s.nodes_allocated, h.nodes_allocated);
  EXPECT_EQ(s.nodes_retired, h.nodes_retired);
  EXPECT_EQ(s.nodes_allocated, 10u);
  EXPECT_EQ(s.nodes_retired, 9u);  // the demoting install replaced no node
}

std::shared_ptr<const RmwFunction> fetch_add1() {
  return make_rmw("fetch&add1", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
}

SimTask counter_body(ProcCtx ctx, std::shared_ptr<const RmwFunction> inc,
                     int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    const Value old = co_await ctx.rmw(0, inc);
    sum += old.is_nil() ? 0 : old.as_u64();
  }
  co_return Value::of_u64(sum);
}

TEST(HwReclaimTest, ExecutorSurfacesReclaimStatsPerPolicy) {
  auto inc = fetch_add1();
  const int n = 4;
  const int ops = 64;
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  for (const ReclaimPolicy policy :
       {ReclaimPolicy::kEpoch, ReclaimPolicy::kHazard}) {
    HwRunOptions options;
    options.seed = 3;
    options.storage = StoragePolicy::kBoxed;
    options.reclaimer = policy;
    HwExecutor exec(options);
    const HwRunResult run = exec.run(n, body);
    ASSERT_TRUE(run.ok) << to_string(policy);
    EXPECT_EQ(run.reclaim.policy, policy);
    EXPECT_EQ(run.reclaim.nodes_retired,
              static_cast<std::uint64_t>(n) * ops);
    EXPECT_LE(run.reclaim.nodes_freed, run.reclaim.nodes_retired);
    EXPECT_GT(run.reclaim.node_high_water, 0u);
  }
}

TEST(HwReclaimTest, OversubscribedHazardStressIsExactAndBounded) {
  // The TSan-facing leg: M = 64 coroutine processes on N = 4 carriers,
  // yielding after every shared op (so a process may resume on another
  // carrier between any two ops), hazard reclamation with carrier-bound
  // slots. The yield count proves the migration opportunities really
  // happened; the exact counter total proves no lost/duplicated op;
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
  options.storage = StoragePolicy::kBoxed;
  options.reclaimer = ReclaimPolicy::kHazard;
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
  EXPECT_EQ(run.reclaim.policy, ReclaimPolicy::kHazard);
  EXPECT_EQ(run.reclaim.nodes_retired, total);
  // 4 carrier slots, threshold max(64, 8) = 64: per-slot backlog is at
  // most threshold + 1, so the summed high water stays far below the
  // 1920-op churn even before any stall.
  EXPECT_LE(run.reclaim.node_high_water, 4u * 65u);
}

TEST(HwReclaimTest, FaultArtifactReclaimerBlockIsOptionalAndRoundTrips) {
  FaultArtifact artifact;
  artifact.scenario = "fixed_ll_sc";
  artifact.n = 2;
  artifact.sample_index = 0;
  artifact.toss_seed = 7;
  artifact.max_rounds = 100;
  artifact.status = RunStatus::kHung;
  artifact.proc_ops = {3, 4};
  // Default (epoch) artifacts must not grow new keys — the byte-stability
  // contract that keeps PR-5-era artifact JSON replayable unchanged.
  const std::string epoch_json = artifact.to_json();
  EXPECT_EQ(epoch_json.find("reclaimer"), std::string::npos);
  FaultArtifact parsed;
  std::string error;
  ASSERT_TRUE(FaultArtifact::from_json(epoch_json, &parsed, &error))
      << error;
  EXPECT_EQ(parsed.reclaimer, ReclaimPolicy::kEpoch);
  // Non-default runs carry the block and round-trip it.
  artifact.reclaimer = ReclaimPolicy::kHazard;
  artifact.nodes_retired = 11;
  artifact.nodes_reclaimed = 9;
  const std::string hazard_json = artifact.to_json();
  EXPECT_NE(hazard_json.find("\"reclaimer\": \"hazard\""),
            std::string::npos);
  ASSERT_TRUE(FaultArtifact::from_json(hazard_json, &parsed, &error))
      << error;
  EXPECT_EQ(parsed.reclaimer, ReclaimPolicy::kHazard);
  EXPECT_EQ(parsed.nodes_retired, 11u);
  EXPECT_EQ(parsed.nodes_reclaimed, 9u);
}

}  // namespace
}  // namespace llsc
