// Model-checking tests: bounded-preemption exploration of tiny
// configurations. Wakeup algorithms must satisfy the spec and the
// universal constructions must stay linearizable under EVERY explored
// schedule, not just the ones other tests happen to pick.
#include "explore/explore.h"

#include <gtest/gtest.h>

#include "lin/checker.h"
#include "lin/history.h"
#include "objects/arith.h"
#include "direct/rmw_universal.h"
#include "universal/consensus_based.h"
#include "universal/group_update.h"
#include "universal/single_register.h"
#include "wakeup/algorithms.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

std::string wakeup_checker(System& sys) {
  if (!sys.all_done()) return "";  // step-budget handling is the driver's
  const WakeupCheckResult res = check_wakeup_run(sys);
  return res.ok ? "" : res.violations.front();
}

TEST(Explore, TournamentWakeupSurvivesExploration) {
  const RunFactory factory = [] {
    auto sys = std::make_unique<System>(3, tournament_wakeup());
    return std::make_unique<SimpleRunInstance>(std::move(sys),
                                               wakeup_checker);
  };
  ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.max_runs = 30000;
  const ExploreStats stats = explore_bounded_preemption(factory, opts);
  EXPECT_EQ(stats.violations, 0u)
      << stats.summary() << "\n"
      << (stats.examples.empty() ? "" : stats.examples.front());
  EXPECT_GT(stats.runs, 100u);
}

TEST(Explore, SwapMixWakeupSurvivesExploration) {
  const RunFactory factory = [] {
    auto sys = std::make_unique<System>(2, swap_mix_wakeup());
    return std::make_unique<SimpleRunInstance>(std::move(sys),
                                               wakeup_checker);
  };
  ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.max_runs = 20000;
  const ExploreStats stats = explore_bounded_preemption(factory, opts);
  EXPECT_EQ(stats.violations, 0u)
      << (stats.examples.empty() ? "" : stats.examples.front());
}

TEST(Explore, CheatingWakeupCaughtByExploration) {
  // cheating_wakeup(1) returns 1 after one op; some schedule lets a
  // process return 1 before everyone stepped — exploration must find it.
  const RunFactory factory = [] {
    auto sys = std::make_unique<System>(2, cheating_wakeup(1));
    return std::make_unique<SimpleRunInstance>(std::move(sys),
                                               wakeup_checker);
  };
  ExploreOptions opts;
  opts.max_preemptions = 1;
  const ExploreStats stats = explore_bounded_preemption(factory, opts);
  EXPECT_GT(stats.violations, 0u) << stats.summary();
}

// Universal-construction exploration: record history, check
// linearizability at the end of every schedule.
enum class UcKind { kGroupUpdate, kSingleRegister, kConsensusBased, kRmw };

class UcRunInstance final : public RunInstance {
 public:
  UcRunInstance(int n, UcKind kind) {
    const ObjectFactory factory = [] {
      return std::make_unique<FetchAddObject>(64, 0);
    };
    switch (kind) {
      case UcKind::kGroupUpdate:
        uc_ = std::make_unique<GroupUpdateUC>(n, factory);
        break;
      case UcKind::kSingleRegister:
        uc_ = std::make_unique<SingleRegisterUC>(n, factory);
        break;
      case UcKind::kConsensusBased:
        uc_ = std::make_unique<ConsensusBasedUC>(n, factory);
        break;
      case UcKind::kRmw:
        uc_ = std::make_unique<RmwUniversalUC>(n, factory);
        break;
    }
    recorder_ = std::make_unique<ConcurrentHistoryRecorder>(*uc_, n);
    sys_ = std::make_unique<System>(
        n, [this](ProcCtx ctx, ProcId, int) { return worker(ctx); });
  }

  System& system() override { return *sys_; }

  std::string check() override {
    if (!sys_->all_done()) return "";
    const LinResult r = check_linearizability(
        recorder_->history(),
        [] { return std::make_unique<FetchAddObject>(64, 0); });
    return r.linearizable ? ""
                          : "non-linearizable history:\n" +
                                recorder_->history().to_string();
  }

 private:
  SimTask worker(ProcCtx ctx) {
    ObjOp op{"fetch&increment", {}};  // hoisted (GCC 12 workaround)
    (void)co_await recorder_->execute(ctx, std::move(op));
    co_return Value::of_u64(0);
  }

  std::unique_ptr<UniversalConstruction> uc_;
  std::unique_ptr<ConcurrentHistoryRecorder> recorder_;
  std::unique_ptr<System> sys_;
};

class ExploreUcSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExploreUcSweep, ConstructionLinearizableUnderExploration) {
  const UcKind kind = static_cast<UcKind>(GetParam());
  const RunFactory factory = [kind] {
    return std::make_unique<UcRunInstance>(2, kind);
  };
  ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.max_runs = 15000;
  const ExploreStats stats = explore_bounded_preemption(factory, opts);
  EXPECT_EQ(stats.violations, 0u)
      << (stats.examples.empty() ? stats.summary()
                                 : stats.examples.front());
  // Short protocols (RMW: one op per process) have few preemption points.
  EXPECT_GT(stats.runs, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllConstructions, ExploreUcSweep,
                         ::testing::Values(0, 1, 2, 3));

TEST(Explore, ConsensusUcThreeProcessesOnePreemption) {
  // The helping path of the consensus-based construction involves three
  // processes disagreeing about cell proposals; cover n = 3 with a smaller
  // preemption budget to keep the run count tractable.
  const RunFactory factory = [] {
    return std::make_unique<UcRunInstance>(3, UcKind::kConsensusBased);
  };
  ExploreOptions opts;
  opts.max_preemptions = 1;
  opts.max_runs = 20000;
  const ExploreStats stats = explore_bounded_preemption(factory, opts);
  EXPECT_EQ(stats.violations, 0u)
      << (stats.examples.empty() ? stats.summary()
                                 : stats.examples.front());
}

TEST(Explore, RunCapReported) {
  const RunFactory factory = [] {
    auto sys = std::make_unique<System>(3, tournament_wakeup());
    return std::make_unique<SimpleRunInstance>(
        std::move(sys), [](System&) { return std::string(); });
  };
  ExploreOptions opts;
  opts.max_preemptions = 3;
  opts.max_runs = 50;  // tiny cap
  const ExploreStats stats = explore_bounded_preemption(factory, opts);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.runs, 50u);
}

}  // namespace
}  // namespace llsc
