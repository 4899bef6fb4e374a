// CombiningUniversal (universal/combining.h) simulator tests: exactness
// of fetch&increment under many schedulers, queue obliviousness, batch
// accounting, the fault-free shared-op bound, register-group labeling,
// the fixed-shape mode's schedule-independent op count, and the registry.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "memory/shared_memory.h"
#include "objects/arith.h"
#include "objects/containers.h"
#include "sched/scheduler.h"
#include "universal/combining.h"
#include "universal/single_register.h"

namespace llsc {
namespace {

SimTask fai_worker(ProcCtx ctx, UniversalConstruction* uc, int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    // Hoisted: braced temporaries may not appear in co_await expressions
    // (GCC 12 workaround; see runtime/sub_task.h).
    ObjOp op{"fetch&increment", {}};
    const Value r = co_await uc->execute(ctx, std::move(op));
    sum += r.as_u64();
  }
  co_return Value::of_u64(sum);
}

std::unique_ptr<Scheduler> make_sched(int kind, int n, int ops) {
  switch (kind) {
    case 0:
      return std::make_unique<RoundRobinScheduler>();
    case 1:
      return std::make_unique<SequentialScheduler>();
    default:
      return std::make_unique<RandomScheduler>(
          static_cast<std::uint64_t>(n * 1000 + ops));
  }
}

class CombiningSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CombiningSweep, FetchIncrementCountsEveryOperationExactlyOnce) {
  const int n = std::get<0>(GetParam());
  const int ops = std::get<1>(GetParam());
  const int sched_kind = std::get<2>(GetParam());

  CombiningUniversal uc(n, [] {
    return std::make_unique<FetchAddObject>(64, 0);
  });
  System sys(n, [&uc, ops](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, ops);
  });
  const RunOutcome out = make_sched(sched_kind, n, ops)->run(sys, 1 << 24);
  ASSERT_TRUE(out.all_terminated);

  // A correct fetch&increment hands out each value 0..n*ops-1 exactly
  // once; responses sum to the triangular number regardless of batching.
  std::uint64_t total = 0;
  for (ProcId p = 0; p < n; ++p) total += sys.process(p).result().as_u64();
  const std::uint64_t count = static_cast<std::uint64_t>(n) * ops;
  EXPECT_EQ(total, count * (count - 1) / 2);

  // Batch accounting: every op was applied by exactly one install, so
  // the per-install batches partition the n*ops operations.
  const CombiningStats stats = uc.stats();
  EXPECT_EQ(stats.ops_applied, count);
  EXPECT_GE(stats.installs, 1u);
  EXPECT_LE(stats.installs, count);
  EXPECT_GE(stats.mean_batch_size(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CombiningSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 17),
                       ::testing::Values(1, 3),
                       ::testing::Values(0, 1, 2)));

TEST(Combining, CrossesToggleWordBoundary) {
  // n > kToggleBitsPerWord forces a second toggle word; the exactness
  // argument must survive multi-word snapshots.
  const int n = kToggleBitsPerWord + 3;
  CombiningUniversal uc(n, [] {
    return std::make_unique<FetchAddObject>(64, 0);
  });
  ASSERT_EQ(uc.toggle_words(), 2);
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, 2);
  });
  RandomScheduler sched(4242);
  ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated);
  std::uint64_t total = 0;
  for (ProcId p = 0; p < n; ++p) total += sys.process(p).result().as_u64();
  const std::uint64_t count = static_cast<std::uint64_t>(n) * 2;
  EXPECT_EQ(total, count * (count - 1) / 2);
}

SimTask queue_worker(ProcCtx ctx, UniversalConstruction* uc) {
  ObjOp enq{"enqueue", Value::of_u64(static_cast<std::uint64_t>(ctx.id()))};
  co_await uc->execute(ctx, std::move(enq));
  ObjOp deq{"dequeue", {}};
  const Value r = co_await uc->execute(ctx, std::move(deq));
  co_return r;
}

TEST(Combining, ImplementsQueueObliviously) {
  const int n = 5;
  CombiningUniversal uc(n, [] { return std::make_unique<QueueObject>(); });
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    return queue_worker(ctx, &uc);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated);
  std::set<std::uint64_t> seen;
  for (ProcId p = 0; p < n; ++p) {
    const Value& r = sys.process(p).result();
    ASSERT_TRUE(r.holds_u64());
    EXPECT_TRUE(seen.insert(r.as_u64()).second);
    EXPECT_LT(r.as_u64(), static_cast<std::uint64_t>(n));
  }
}

TEST(Combining, MeasuredOpsRespectFaultFreeBoundOneOutstandingOp) {
  // The documented worst_case_shared_ops() bound holds per operation in
  // the one-outstanding-op-per-process regime under any fault-free
  // schedule (here: the adversarially interleaving RandomScheduler).
  const int n = 8;
  CombiningUniversal uc(n, [] {
    return std::make_unique<FetchAddObject>(64, 0);
  });
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, 1);
  });
  RandomScheduler sched(777);
  ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_LE(sys.process(p).shared_ops(), uc.worst_case_shared_ops())
        << "p" << p;
  }
}

TEST(Combining, FixedShapeModeHasScheduleIndependentOpCount) {
  // With fixed_attempts = k, every execute() costs exactly
  // 1 (announce) + 2 (toggle try) + k·(1 + W + n + 1) + 1 (final read)
  // shared ops, independent of schedule — the fixed_* contract the
  // differential sweep's proc_ops comparison relies on.
  const int n = 4;
  const CombiningOptions fixed{.fixed_attempts = 2};
  const std::uint64_t expect_ops =
      1 + 2 + 2 * (1 + 1 + static_cast<std::uint64_t>(n) + 1) + 1;
  for (const int seed : {1, 2, 3}) {
    CombiningUniversal uc(
        n, [] { return std::make_unique<FetchAddObject>(64, 0); },
        /*base=*/0, fixed);
    System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
      return fai_worker(ctx, &uc, 1);
    });
    RandomScheduler sched(static_cast<std::uint64_t>(seed));
    ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated);
    for (ProcId p = 0; p < n; ++p) {
      EXPECT_EQ(sys.process(p).shared_ops(), expect_ops)
          << "seed " << seed << " p" << p;
    }
    // The one-outstanding-op regime still applies every op within the
    // two attempts, so responses stay exact even in fixed mode.
    std::uint64_t total = 0;
    for (ProcId p = 0; p < n; ++p) total += sys.process(p).result().as_u64();
    EXPECT_EQ(total, 4u * 3u / 2u);
  }
}

TEST(Combining, RegisterGroupsPartitionTheSpan) {
  const int n = 50;  // two toggle words
  CombiningUniversal uc(n, [] {
    return std::make_unique<FetchAddObject>(64, 0);
  }, /*base=*/7);
  const std::vector<RegisterGroup> groups = uc.register_groups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].label, "state");
  EXPECT_EQ(groups[1].label, "toggle");
  EXPECT_EQ(groups[2].label, "announce");
  // Contiguous, in order, covering exactly [base, base + span).
  EXPECT_EQ(groups[0].lo, 7u);
  for (std::size_t i = 1; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].lo, groups[i - 1].hi);
  }
  EXPECT_EQ(groups.back().hi, 7u + uc.register_span());
  EXPECT_EQ(groups[1].hi - groups[1].lo,
            static_cast<RegId>(uc.toggle_words()));
  EXPECT_EQ(groups[2].hi - groups[2].lo, static_cast<RegId>(n));
}

TEST(Combining, OnlyStateAndAnnounceRegistersDemote) {
  // The deliberate demote-on-overflow story: structured state/announce
  // payloads demote their registers; toggle words (≤ 46 bits) never do.
  // The per-group breakdown attributes each demotion to its logical
  // object.
  const int n = 6;
  CombiningUniversal uc(n, [] {
    return std::make_unique<FetchAddObject>(64, 0);
  });
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, 2);
  });
  sys.memory().set_register_groups(uc.register_groups());
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated);

  const RegisterWidthStats stats = sys.memory().width_stats();
  EXPECT_EQ(stats.boxed_fallback_registers,
            static_cast<std::uint64_t>(n) + 1);  // n announces + 1 state
  ASSERT_TRUE(stats.boxed_fallback_by_group.contains("state"));
  ASSERT_TRUE(stats.boxed_fallback_by_group.contains("toggle"));
  ASSERT_TRUE(stats.boxed_fallback_by_group.contains("announce"));
  EXPECT_EQ(stats.boxed_fallback_by_group.at("state"), 1u);
  EXPECT_EQ(stats.boxed_fallback_by_group.at("toggle"), 0u);
  EXPECT_EQ(stats.boxed_fallback_by_group.at("announce"),
            static_cast<std::uint64_t>(n));
}

TEST(UniversalRegistry, BuildsAllFourByName) {
  const auto& names = universal_construction_names();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    auto uc = make_universal(name, 4, [] {
      return std::make_unique<FetchAddObject>(64, 0);
    });
    ASSERT_NE(uc, nullptr) << name;
    EXPECT_EQ(uc->name(), name);
    System sys(4, [&uc](ProcCtx ctx, ProcId, int) {
      return fai_worker(ctx, uc.get(), 2);
    });
    RandomScheduler sched(9);
    ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated) << name;
    std::uint64_t total = 0;
    for (ProcId p = 0; p < 4; ++p) total += sys.process(p).result().as_u64();
    EXPECT_EQ(total, 8u * 7u / 2u) << name;
  }
}

}  // namespace
}  // namespace llsc
