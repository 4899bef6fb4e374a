// Tests for the linearizability checker and history recorder: known-good
// and known-bad hand histories, then real histories recorded through both
// universal constructions under adversarial interleavings.
#include <gtest/gtest.h>

#include "lin/checker.h"
#include "lin/history.h"
#include "objects/arith.h"
#include "objects/basic.h"
#include "objects/containers.h"
#include "sched/scheduler.h"
#include "universal/group_update.h"
#include "universal/single_register.h"

namespace llsc {
namespace {

HistOp op(ProcId p, std::string name, Value arg, Value resp,
          std::uint64_t inv, std::uint64_t rsp) {
  HistOp h;
  h.proc = p;
  h.op = ObjOp{std::move(name), std::move(arg)};
  h.response = std::move(resp);
  h.inv_time = inv;
  h.resp_time = rsp;
  return h;
}

ObjectFactory counter_factory() {
  return [] { return std::make_unique<FetchAddObject>(64, 0); };
}

TEST(LinChecker, EmptyHistoryIsLinearizable) {
  const LinResult r = check_linearizability({}, counter_factory());
  EXPECT_TRUE(r.linearizable);
}

TEST(LinChecker, SequentialHistoryLinearizable) {
  History h;
  h.ops.push_back(op(0, "fetch&increment", {}, Value::of_u64(0), 1, 2));
  h.ops.push_back(op(0, "fetch&increment", {}, Value::of_u64(1), 3, 4));
  const LinResult r = check_linearizability(h, counter_factory());
  EXPECT_TRUE(r.linearizable);
  EXPECT_EQ(r.witness, (std::vector<std::size_t>{0, 1}));
}

TEST(LinChecker, ConcurrentOverlapEitherOrderAccepted) {
  // Two concurrent increments: responses 1 and 0 — legal (the one that
  // returned 0 linearizes first even though it responded later).
  History h;
  h.ops.push_back(op(0, "fetch&increment", {}, Value::of_u64(1), 1, 10));
  h.ops.push_back(op(1, "fetch&increment", {}, Value::of_u64(0), 2, 11));
  const LinResult r = check_linearizability(h, counter_factory());
  EXPECT_TRUE(r.linearizable);
  EXPECT_EQ(r.witness, (std::vector<std::size_t>{1, 0}));
}

TEST(LinChecker, RealTimeOrderEnforced) {
  // p0's op completed strictly before p1's began, yet p0 saw 1 and p1 saw
  // 0 — NOT linearizable.
  History h;
  h.ops.push_back(op(0, "fetch&increment", {}, Value::of_u64(1), 1, 2));
  h.ops.push_back(op(1, "fetch&increment", {}, Value::of_u64(0), 3, 4));
  const LinResult r = check_linearizability(h, counter_factory());
  EXPECT_FALSE(r.linearizable);
}

TEST(LinChecker, DuplicateResponsesRejected) {
  // Two increments both returning 0: impossible.
  History h;
  h.ops.push_back(op(0, "fetch&increment", {}, Value::of_u64(0), 1, 10));
  h.ops.push_back(op(1, "fetch&increment", {}, Value::of_u64(0), 2, 11));
  EXPECT_FALSE(check_linearizability(h, counter_factory()).linearizable);
}

TEST(LinChecker, QueueHistory) {
  const auto queue_factory = [] {
    return std::make_unique<QueueObject>();
  };
  History good;
  good.ops.push_back(op(0, "enqueue", Value::of_u64(1), {}, 1, 4));
  good.ops.push_back(op(1, "enqueue", Value::of_u64(2), {}, 2, 5));
  good.ops.push_back(op(0, "dequeue", {}, Value::of_u64(2), 6, 7));
  good.ops.push_back(op(1, "dequeue", {}, Value::of_u64(1), 8, 9));
  // Legal: concurrent enqueues may linearize 2 before 1.
  EXPECT_TRUE(check_linearizability(good, queue_factory).linearizable);

  History bad = good;
  // Same dequeue twice: value 2 dequeued by both.
  bad.ops[3] = op(1, "dequeue", {}, Value::of_u64(2), 8, 9);
  EXPECT_FALSE(check_linearizability(bad, queue_factory).linearizable);
}

TEST(LinChecker, ProgramOrderWithinProcessEnforced) {
  // p0 increments then reads 0 — the read must follow its own increment,
  // so a response of 0 is impossible.
  const auto factory = [] { return std::make_unique<CounterObject>(8); };
  History h;
  h.ops.push_back(op(0, "increment", {}, {}, 1, 2));
  h.ops.push_back(op(0, "read", {}, Value::of_u64(0), 3, 4));
  EXPECT_FALSE(check_linearizability(h, factory).linearizable);
}

TEST(LinCheckerDeath, IncompleteOperationRejected) {
  History h;
  h.ops.push_back(op(0, "read", {}, {}, 3, 0));
  EXPECT_DEATH(check_linearizability(h, counter_factory()), "incomplete");
}

// --- recorded histories from the real constructions ---

SimTask recorded_worker(ProcCtx ctx, ConcurrentHistoryRecorder* rec,
                        int ops) {
  for (int k = 0; k < ops; ++k) {
    ObjOp op{"fetch&increment", {}};  // hoisted (GCC 12 workaround)
    (void)co_await rec->execute(ctx, std::move(op));
  }
  co_return Value::of_u64(0);
}

class RecordedLinSweep
    : public ::testing::TestWithParam<std::tuple<bool, int, std::uint64_t>> {
};

TEST_P(RecordedLinSweep, ConstructionsProduceLinearizableHistories) {
  const bool group = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());

  std::unique_ptr<UniversalConstruction> uc;
  if (group) {
    uc = std::make_unique<GroupUpdateUC>(n, counter_factory());
  } else {
    uc = std::make_unique<SingleRegisterUC>(n, counter_factory());
  }
  ConcurrentHistoryRecorder recorder(*uc, n);
  System sys(n, [&recorder](ProcCtx ctx, ProcId, int) {
    return recorded_worker(ctx, &recorder, 2);
  });
  RandomScheduler sched(seed);
  ASSERT_TRUE(sched.run(sys, 1 << 24).all_terminated);

  const LinResult r =
      check_linearizability(recorder.history(), counter_factory());
  EXPECT_TRUE(r.linearizable) << recorder.history().to_string();
  EXPECT_EQ(recorder.history().ops.size(), static_cast<std::size_t>(2 * n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecordedLinSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2, 3, 4),
                       ::testing::Values(1u, 7u, 42u, 99u)));

TEST(ConcurrentHistoryRecorder, TimestampsNestProperly) {
  GroupUpdateUC uc(2, counter_factory());
  ConcurrentHistoryRecorder recorder(uc, 2);
  System sys(2, [&recorder](ProcCtx ctx, ProcId, int) {
    return recorded_worker(ctx, &recorder, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated);
  for (const HistOp& o : recorder.history().ops) {
    EXPECT_LT(o.inv_time, o.resp_time);
    EXPECT_TRUE(o.response.holds_u64());
  }
}

}  // namespace
}  // namespace llsc
