// The fault layer's random (scenario, n, plan) triples, drawn from one
// seeded stream. hw_fault_diff_test runs each triple on every substrate;
// ledger_test pins the simulator leg of each in tests/ledger/fault.txt.
// Both read this one generator, so the ledger covers exactly the triples
// the sweep checks.
#ifndef LLSC_TESTS_FAULT_TRIPLES_H_
#define LLSC_TESTS_FAULT_TRIPLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hw/fault.h"
#include "util/rng.h"

namespace llsc {

inline constexpr int kFaultTripleMaxRounds = 1 << 12;

struct FaultTriple {
  int index = 0;
  std::string scenario;
  int n = 0;
  std::uint64_t toss_seed = 0;
  FaultPlan plan;
  bool adaptive = false;
  // Decisions that follow the schedule: adaptive placement, a budget-capped
  // oblivious roll, and the uc_combining / TAS / leader scenarios (see
  // hw_fault_diff_test). These triples go through record/replay.
  bool schedule_dependent = false;
};

inline std::vector<FaultTriple> fault_triples() {
  static const char* const kScenarios[] = {
      "fixed_ll_sc", "uc_single_register", "tas_fixed",
      "fixed_swap",  "uc_combining",       "leader_fixed"};
  Rng rng(0xD1FF);
  std::vector<FaultTriple> triples;
  for (int t = 0; t < 200; ++t) {
    FaultTriple triple;
    triple.index = t;
    triple.n = 2 + static_cast<int>(rng.next_below(6));  // 2..7
    triple.scenario = kScenarios[t % 6];
    const bool tas_like = triple.scenario == "tas_fixed" ||
                          triple.scenario == "leader_fixed";
    triple.toss_seed = rng.next_u64();

    FaultPlan& plan = triple.plan;
    plan.seed = rng.next_u64();
    const int strategy = t % 3;
    if (strategy == 0) {
      plan.sc_fail_rate = 0.1 + 0.8 * rng.next_double();
      // Every other oblivious triple also exercises the budget cap.
      if (t % 6 == 0) plan.fault_budget = 1 + rng.next_below(8);
    } else if (strategy == 1) {
      plan.strategy = FaultStrategyKind::kAdaptive;
      plan.fault_budget = 1 + rng.next_below(8);
    } else {
      // Uncapped oblivious SC and VL failures. Exactly two draws keep the
      // rng stream, and so every other triple's inputs, fixed.
      const std::uint64_t sc_draw = rng.next_below(3);
      const std::uint64_t vl_draw = rng.next_below(5);
      plan.sc_fail_rate = 0.1 * static_cast<double>(1 + sc_draw);
      plan.vl_fail_rate = 0.1 * static_cast<double>(1 + vl_draw);
    }
    // Every fifth triple crash-stops one process partway through its
    // fixed op stream; half of those let it rejoin. Recovery decisions
    // are pure in (plan.seed, proc, rejoins), where rejoins counts the
    // process's earlier rejoins of either kind (not ctx.incarnation(),
    // which a pause rejoin leaves unchanged), and the fixed bodies
    // are schedule-independent, so a recovered run's observables — an
    // amnesiac restart replays the whole body on top of the after_ops
    // already charged; a resumed frame just finishes it — must agree
    // across all three substrates like any other plan. The draws are
    // independent of the t % 6 scenario cycle and the t % 3 strategy
    // cycle, so recovery crosses every (scenario, strategy) pair.
    if (t % 5 == 0) {
      CrashSpec crash;
      crash.proc = static_cast<ProcId>(rng.next_below(triple.n));
      crash.after_ops = 1 + rng.next_below(12);
      if (rng.next_below(2) == 0) {
        crash.recovery.max_restarts = 1;
        crash.recovery.delay_units = 1 + rng.next_below(3);
        crash.recovery.amnesia = rng.next_below(4) != 0;
        // The fixed-shape TAS/leader scenarios report "won" as "my claim
        // SC succeeded from nil", and WHICH process that is follows the
        // natural SC race — schedule-dependent, so an amnesiac replay of
        // a crashed WINNER would report zero winners on one substrate and
        // one on the other. Their diff-sweep crash legs resume the frame
        // instead; amnesiac restarts of the strict protocol (whose claim
        // re-entry recognizes its own writer) live in recovery_test.cc.
        if (tas_like) crash.recovery.amnesia = false;
      }
      plan.crashes.push_back(crash);
    }
    triple.adaptive = strategy == 1;
    triple.schedule_dependent =
        strategy == 1 || (strategy == 0 && plan.fault_budget > 0) ||
        triple.scenario == "uc_combining" || tas_like;
    triples.push_back(std::move(triple));
  }
  return triples;
}

}  // namespace llsc

#endif  // LLSC_TESTS_FAULT_TRIPLES_H_
