// GroupCombiningUniversal (hw/group_combining.h): two-level combining on
// the oversubscribed pool. Covers the fetch&increment response multiset at
// saturation (exactly {0, ..., offered - 1}), the same check on runs where
// group-mates were stolen onto different carriers, the crash rule under
// the E17 crash-stop and amnesiac crash+recover plans, M = 4096 through
// run_service, and the simulator rejection.
#include "hw/group_combining.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/fault.h"
#include "hw/oversub_executor.h"
#include "hw/service.h"
#include "objects/arith.h"

namespace llsc {
namespace {

ObjectFactory counter_factory() {
  return [] { return std::make_unique<FetchAddObject>(64, 0); };
}

// State the client bodies share. `settled` counts clients that finished
// their ops; `stopped` counts crash-stop unwinds, after which no restart
// follows. The auditor waits for the two to cover every client.
struct Shared {
  GroupCombiningUniversal* uc = nullptr;
  int clients = 0;
  bool restarts = false;
  std::atomic<int> settled{0};
  std::atomic<int> stopped{0};
};

// Back-to-back fetch&increments (saturation). The journal is the restart
// point: an amnesiac incarnation resumes at the first op whose response it
// never saw. co_await stays in the loop body (runtime/sub_task.h).
SimTask client_body(ProcCtx ctx, Shared* shared,
                    std::vector<std::uint64_t>* journal, int ops) {
  try {
    for (std::size_t k = journal->size(); k < static_cast<std::size_t>(ops);
         ++k) {
      ObjOp op{"fetch&increment", {}};
      const Value response = co_await shared->uc->execute(ctx, std::move(op));
      journal->push_back(response.as_u64());
    }
  } catch (...) {
    if (!shared->restarts) {
      shared->stopped.fetch_add(1, std::memory_order_release);
    }
    throw;
  }
  shared->settled.fetch_add(1, std::memory_order_release);
  co_return Value::of_u64(journal->size());
}

// Waits until every client settled or stopped, then takes one more
// fetch&increment: its response is the number of ops applied before it,
// which bounds every served response.
SimTask auditor_body(ProcCtx ctx, Shared* shared) {
  for (;;) {
    const int gone = shared->settled.load(std::memory_order_acquire) +
                     shared->stopped.load(std::memory_order_acquire);
    if (gone == shared->clients) break;
    co_await ctx.yield();
  }
  ObjOp op{"fetch&increment", {}};
  const Value response = co_await shared->uc->execute(ctx, std::move(op));
  co_return response;
}

struct GroupRun {
  HwRunResult run;
  std::vector<std::uint64_t> served;  // every client response, sorted
  std::uint64_t final_count = 0;      // the auditor's response
  std::uint64_t batches = 0;          // shared-level installs
};

// m clients plus one auditor (ProcId m) on n carriers, so the
// construction has m + 1 clients in n groups.
GroupRun run_group(int m, int n, int ops,
                   std::uint64_t seed, const FaultPlan* plan = nullptr) {
  GroupCombiningUniversal uc(m + 1, n, counter_factory());
  Shared shared;
  shared.uc = &uc;
  shared.clients = m;
  shared.restarts = plan != nullptr && !plan->crashes.empty() &&
                    plan->crashes.front().recovery.max_restarts > 0;
  std::vector<std::vector<std::uint64_t>> journals(
      static_cast<std::size_t>(m));
  OversubRunOptions options;
  options.num_threads = n;
  options.seed = seed;
  options.num_registers = static_cast<std::size_t>(uc.register_span());
  options.fault = plan;
  const ProcBody body = [&](ProcCtx ctx, ProcId i, int) {
    if (i == m) return auditor_body(ctx, &shared);
    return client_body(ctx, &shared, &journals[static_cast<std::size_t>(i)],
                       ops);
  };
  OversubscribedExecutor exec(options);
  GroupRun out;
  out.run = exec.run(m + 1, body);
  for (const auto& journal : journals) {
    out.served.insert(out.served.end(), journal.begin(), journal.end());
  }
  std::sort(out.served.begin(), out.served.end());
  const Value& audit = out.run.results[static_cast<std::size_t>(m)];
  out.final_count = audit.holds_u64() ? audit.as_u64() : 0;
  out.batches = uc.stats().installs;
  return out;
}

void expect_exact(const GroupRun& r, std::uint64_t offered) {
  ASSERT_TRUE(r.run.ok);
  ASSERT_EQ(r.served.size(), offered);
  for (std::uint64_t k = 0; k < offered; ++k) {
    ASSERT_EQ(r.served[static_cast<std::size_t>(k)], k) << "at rank " << k;
  }
  EXPECT_EQ(r.final_count, offered);
}

struct Shape {
  int m;
  int n;
};

class GroupCombiningSaturationTest : public ::testing::TestWithParam<Shape> {};

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  return "M" + std::to_string(info.param.m) + "_N" +
         std::to_string(info.param.n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GroupCombiningSaturationTest,
                         ::testing::Values(Shape{16, 2}, Shape{16, 4},
                                           Shape{256, 2}, Shape{256, 4}),
                         shape_name);

TEST_P(GroupCombiningSaturationTest, ResponsesAreExactlyZeroToOffered) {
  const Shape shape = GetParam();
  const int ops = 8;
  const GroupRun r = run_group(shape.m, shape.n, ops, 11);
  expect_exact(r, static_cast<std::uint64_t>(shape.m) * ops);
  // Batching really happened: fewer shared-level installs than ops.
  EXPECT_GT(r.batches, 0u);
  EXPECT_LT(r.batches, static_cast<std::uint64_t>(shape.m) * ops);
}

TEST(GroupCombiningTest, ExactAcrossStolenGroupMates) {
  // M = 5 on N = 4: group 0 is {0, 4}, both first queued on carrier 0. A
  // carrier that runs dry steals from carrier 0, so the two group-mates
  // then run on different threads and the group lock hands the slot over
  // across carriers.
  const int m = 5;
  const int n = 4;
  const int ops = 64;
  bool stole = false;
  for (std::uint64_t seed = 1; seed <= 40 && !stole; ++seed) {
    const GroupRun r = run_group(m, n, ops, seed);
    expect_exact(r, static_cast<std::uint64_t>(m) * ops);
    stole = r.run.sched.steals > 0;
  }
  EXPECT_TRUE(stole) << "no run in the seed list stole";
}

// The E17 plan shape: the first `storm` clients crash after their 4th
// shared op; with `recover` each rejoins once (amnesiac) after a
// hash-decided delay of up to 20 × 50 µs.
FaultPlan e17_plan(int storm, bool recover, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.stall_unit_ns = 50'000;
  for (ProcId p = 0; p < storm; ++p) {
    CrashSpec crash;
    crash.proc = p;
    crash.after_ops = 4;
    if (recover) {
      crash.recovery.delay_units = 20;
      crash.recovery.max_restarts = 1;
      crash.recovery.amnesia = true;
    }
    plan.crashes.push_back(crash);
  }
  return plan;
}

void expect_distinct_below_final(const GroupRun& r) {
  for (std::size_t k = 1; k < r.served.size(); ++k) {
    ASSERT_LT(r.served[k - 1], r.served[k]) << "a response served twice";
  }
  if (!r.served.empty()) {
    EXPECT_LT(r.served.back(), r.final_count);
  }
}

TEST(GroupCombiningTest, CrashStopServesDistinctResponses) {
  const int m = 16;
  const int ops = 8;
  std::uint64_t crashes = 0;
  for (const int storm : {4, 12}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const FaultPlan plan = e17_plan(storm, /*recover=*/false, seed);
      const GroupRun r = run_group(m, 2, ops, seed, &plan);
      crashes += r.run.fault.crashes;
      // The crashed combiners' groups kept serving: nobody hung.
      EXPECT_FALSE(r.run.cancelled);
      EXPECT_EQ(r.run.hung_procs, 0);
      // Only combiners take shared ops, so every crash hit a combiner.
      EXPECT_EQ(r.run.fault.crashes,
                static_cast<std::uint64_t>(r.run.crashed_procs));
      if (r.run.crashed_procs > 0) {
        EXPECT_EQ(r.run.status, RunStatus::kCrashed);
      }
      EXPECT_LE(r.served.size(), static_cast<std::size_t>(m) * ops);
      expect_distinct_below_final(r);
      // Each crashed op is applied at most once.
      EXPECT_LE(r.final_count, r.served.size() + r.run.fault.crashes);
    }
  }
  EXPECT_GT(crashes, 0u) << "no victim ever combined";
}

TEST(GroupCombiningTest, CrashRecoverServesEveryOp) {
  const int m = 16;
  const int ops = 8;
  const std::uint64_t offered = static_cast<std::uint64_t>(m) * ops;
  std::uint64_t crashes = 0;
  for (const int storm : {4, 12}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const FaultPlan plan = e17_plan(storm, /*recover=*/true, seed);
      const GroupRun r = run_group(m, 2, ops, seed, &plan);
      crashes += r.run.fault.crashes;
      ASSERT_TRUE(r.run.ok);
      EXPECT_EQ(r.run.fault.recoveries, r.run.fault.crashes);
      EXPECT_EQ(r.served.size(), offered);
      expect_distinct_below_final(r);
      // A crashed incarnation's op is still applied once, so the counter
      // can exceed the served count by at most one op per crash.
      EXPECT_GE(r.final_count, offered);
      EXPECT_LE(r.final_count, offered + r.run.fault.crashes);
    }
  }
  EXPECT_GT(crashes, 0u) << "no victim ever combined";
}

TEST(GroupCombiningTest, ServiceModeRunsFourThousandClients) {
  // ThreadSanitizer multiplies the per-client coroutine frames' memory
  // and the run time, so its legs take M = 1024.
#if defined(__SANITIZE_THREAD__)
  const int m = 1024;
#else
  const int m = 4096;
#endif
  ServiceOptions options;
  options.procs = m;
  options.threads = 4;
  options.ops_per_proc = 1;
  options.arrival_rate_hz = 1e9;  // saturating
  options.workload = ServiceWorkload::kCombining;
  options.seed = 3;
  const ServiceResult r = run_service(options);
  ASSERT_TRUE(r.run.ok);
  EXPECT_EQ(r.offered_ops, static_cast<std::uint64_t>(m));
  EXPECT_EQ(r.served_ops, r.offered_ops);
}

TEST(GroupCombiningDeathTest, SimulatorIsRejected) {
  // ctx.yield() never suspends on the simulator, so a waiting client would
  // spin forever; the construction refuses to start instead.
  GroupCombiningUniversal uc(4, 2, counter_factory());
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  EXPECT_DEATH(run_uc_on_simulator(uc, 4, 1, make_op),
               "group combining needs a platform whose yield suspends");
}

}  // namespace
}  // namespace llsc
