// Seeded fuzzing of the lower-bound machinery: many random configurations
// (process counts, op mixes, toss assignments, subsets) pushed through the
// full pipeline, checking every invariant the paper's argument rests on:
//
//   * the adversary's structural facts (one op per live process per round,
//     at most one successful SC per register per round);
//   * Lemma 4.1 on every round's move schedule;
//   * Lemma 5.1 on the whole run;
//   * Lemma 5.2 for random subsets;
//   * Claims A.4/A.5 as run properties.
//
// Each configuration is derived deterministically from a seed, so any
// failure reproduces exactly.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "hw/replay.h"
#include "objects/leader.h"
#include "runtime/toss.h"
#include "sched/scheduler.h"
#include "util/rng.h"
#include "wakeup/algorithms.h"
#include "wakeup/reductions.h"

namespace llsc {
namespace {

struct FuzzConfig {
  int n;
  int steps;
  RegId regs;
  std::uint64_t toss_seed;
};

FuzzConfig config_from(Rng& rng) {
  return FuzzConfig{
      .n = 2 + static_cast<int>(rng.next_below(14)),
      .steps = 4 + static_cast<int>(rng.next_below(16)),
      .regs = 2 + rng.next_below(7),
      .toss_seed = rng.next_u64(),
  };
}

void check_structure(const RunLog& log) {
  for (const RoundRecord& rec : log.rounds) {
    std::set<ProcId> steppers;
    std::map<RegId, int> sc_successes;
    for (const OpRecord& op : rec.ops) {
      EXPECT_TRUE(steppers.insert(op.proc).second)
          << "p" << op.proc << " stepped twice in round " << rec.round;
      if (op.op.kind == OpKind::kSC && op.result.flag) {
        EXPECT_LE(++sc_successes[op.op.reg], 1)
            << "two successful SCs on R" << op.op.reg << " in round "
            << rec.round;
      }
    }
    if (!rec.move_set.empty()) {
      EXPECT_TRUE(is_secretive_complete(rec.move_set, rec.sigma))
          << "round " << rec.round;
    }
  }
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, RandomMixesUpholdEveryInvariant) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 12; ++iter) {
    const FuzzConfig cfg = config_from(rng);
    const ProcBody body = random_mix_body(cfg.steps, cfg.regs);
    const auto tosses =
        std::make_shared<SeededTossAssignment>(cfg.toss_seed);

    System all_sys(cfg.n, body, tosses);
    const RunLog all_log = run_adversary(all_sys);
    ASSERT_TRUE(all_log.all_terminated);
    check_structure(all_log);

    const UpTracker up = UpTracker::over(all_log);
    EXPECT_TRUE(up.lemma51_holds()) << "seed iter " << iter;

    // Claims A.4/A.5.
    for (const RoundRecord& rec : all_log.rounds) {
      for (const OpRecord& op : rec.ops) {
        if (op.op.kind != OpKind::kSC) continue;
        if (op.result.flag) {
          EXPECT_TRUE(up.up_register(op.op.reg, rec.round - 1)
                          .subset_of(up.up_register(op.op.reg, rec.round)));
        }
        EXPECT_TRUE(up.up_register(op.op.reg, rec.round)
                        .subset_of(up.up_process(op.proc, rec.round)));
      }
    }

    // Lemma 5.2 for two random subsets per configuration.
    for (int sub = 0; sub < 2; ++sub) {
      ProcSet s(cfg.n);
      for (ProcId p = 0; p < cfg.n; ++p) {
        if (rng.next_bool()) s.insert(p);
      }
      if (s.empty()) s.insert(0);
      System s_sys(cfg.n, body, tosses);
      const RunLog s_log = run_s_run(s_sys, all_log, up, s);
      const IndistReport report =
          check_indistinguishability(all_log, s_log, up, s);
      EXPECT_TRUE(report.ok)
          << "iter " << iter << " subset " << s.to_string() << ": "
          << report.violations.front();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(0x1111u, 0x2222u, 0x3333u,
                                           0x4444u, 0x5555u, 0x6666u,
                                           0x7777u, 0x8888u));

// --- object-protocol property fuzzer -------------------------------------
//
// Random (seed, n, scheduler, fault plan) tuples pushed
// through the strict TAS, leader election, and every problem reduction,
// checking the two properties the protocols promise UNCONDITIONALLY:
//
//   * never two TAS winners — on any run, completed or not, under
//     spurious SC/VL failures (oblivious, capped, or adaptive placement)
//     and amnesiac crash-rejoins;
//   * never zero winners / zero agreed leaders on COMPLETED runs.
//
// On a violation the harness shrinks the case — smaller n first, then a
// simpler fault plan, keeping every step that still fails — and freezes
// the shrunk case through the replay contract (hw/replay.h). An artifact
// carries no scheduler: replay runs the Fig. 2 adversary, and the strict
// bodies' op counts depend on the schedule. So the frozen file records
// the shrunk case as observed under that adversary — what
// `fault_replay --replay` reproduces, since the strict bodies are
// registered scenario names — and the violating schedule itself stays in
// the failure message.

enum class FuzzKind { kTasLike, kLeader };

struct ObjectFuzzCase {
  int n = 2;
  std::uint64_t toss_seed = 0;
  int scheduler = 0;  // 0 round-robin, 1 random, 2 sequential
  FaultPlan plan;
};

ProcBody body_for(const std::string& name) {
  const ProcBody registered = fault_scenario(name);
  if (registered) return registered;
  return problem_reduction_body(name);
}

FuzzKind kind_for(const std::string& name) {
  return name == "leader_strict" || name == "leader_from_tas"
             ? FuzzKind::kLeader
             : FuzzKind::kTasLike;
}

struct ObjectFuzzOutcome {
  bool violated = false;
  std::string why;
};

constexpr std::uint64_t kObjectFuzzBudget = 1 << 22;

ObjectFuzzOutcome run_object_case(const std::string& name,
                                  const ObjectFuzzCase& c) {
  const ProcBody body = body_for(name);
  auto tosses = std::make_shared<SeededTossAssignment>(c.toss_seed);
  System sys(c.n, body, tosses);
  FaultInjector injector(c.plan, c.n);
  sys.set_fault_injector(&injector);

  bool all_terminated = false;
  if (c.scheduler == 0) {
    RoundRobinScheduler sched;
    all_terminated = sched.run(sys, kObjectFuzzBudget).all_terminated;
  } else if (c.scheduler == 1) {
    RandomScheduler sched(c.toss_seed ^ 0xF022u);
    all_terminated = sched.run(sys, kObjectFuzzBudget).all_terminated;
  } else {
    SequentialScheduler sched;
    all_terminated = sched.run(sys, kObjectFuzzBudget).all_terminated;
  }

  ObjectFuzzOutcome out;
  if (kind_for(name) == FuzzKind::kTasLike) {
    int winners = 0;
    for (ProcId p = 0; p < c.n; ++p) {
      const Process& proc = sys.process(p);
      if (proc.done() && proc.result().holds_u64() &&
          proc.result().as_u64() == 1) {
        ++winners;
      }
    }
    if (winners > 1) {
      out.violated = true;
      out.why = std::to_string(winners) + " TAS winners";
    } else if (all_terminated && winners == 0) {
      out.violated = true;
      out.why = "completed run with zero TAS winners";
    }
  } else {
    // Leader bodies return ids; the checker's agreement/claim conditions
    // are safe on partial runs (it only inspects done processes).
    const LeaderCheckResult res = check_leader_run(sys);
    if (!res.ok) {
      out.violated = true;
      out.why = res.summary();
    } else if (all_terminated && res.leader == -1) {
      out.violated = true;
      out.why = "completed run elected zero leaders";
    }
  }
  return out;
}

// Greedy shrink: each simplification is kept only if the case still
// violates. Order: fewer processes, then drop crashes, strategy, rates.
ObjectFuzzCase shrink_case(const std::string& name, ObjectFuzzCase c) {
  while (c.n > 1) {
    ObjectFuzzCase t = c;
    t.n = c.n - 1;
    // A crash of a process the smaller run lacks never fires; drop it so
    // the frozen artifact names only processes in [0, n) and loads back.
    std::erase_if(t.plan.crashes,
                  [&](const CrashSpec& s) { return s.proc >= t.n; });
    if (!run_object_case(name, t).violated) break;
    c = t;
  }
  {
    ObjectFuzzCase t = c;
    t.plan.crashes.clear();
    if (run_object_case(name, t).violated) c = t;
  }
  {
    ObjectFuzzCase t = c;
    t.plan.strategy = FaultStrategyKind::kOblivious;
    t.plan.fault_budget = 0;
    if (run_object_case(name, t).violated) c = t;
  }
  {
    ObjectFuzzCase t = c;
    t.plan.sc_fail_rate = 0.0;
    t.plan.vl_fail_rate = 0.0;
    if (run_object_case(name, t).violated) c = t;
  }
  return c;
}

// The schedule a violation was found under, for the failure message.
std::string describe(const ObjectFuzzCase& c) {
  static const char* const kSchedulers[] = {"round-robin", "random",
                                            "sequential"};
  return std::string(kSchedulers[c.scheduler]) +
         " scheduler, n=" + std::to_string(c.n) +
         " toss_seed=" + std::to_string(c.toss_seed) +
         " plan=" + c.plan.to_json();
}

constexpr int kArtifactMaxRounds = 1 << 12;

// Freezes `c` as `fault_replay` will replay it: observed on the simulator
// under the Fig. 2 adversary, with the decisions an adaptive or capped
// plan placed there embedded in the plan.
std::string freeze_artifact(const std::string& name, const ProcBody& body,
                            const ObjectFuzzCase& c) {
  const Observation obs = observe(Substrate::kSim, body, c.n, c.toss_seed,
                                  c.plan, kArtifactMaxRounds);
  const FaultArtifact art =
      freeze(fault_scenario(name) ? name : "custom", c.n, c.toss_seed, c.plan,
             kArtifactMaxRounds, obs);
  const std::string path = ::testing::TempDir() + "object_fuzz_" + name +
                           "_n" + std::to_string(c.n) + ".json";
  std::ofstream f(path);
  f << art.to_json() << "\n";
  return path;
}

FaultArtifact load_artifact(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream buf;
  buf << f.rdbuf();
  FaultArtifact parsed;
  std::string error;
  EXPECT_TRUE(FaultArtifact::from_json(buf.str(), &parsed, &error)) << error;
  return parsed;
}

ObjectFuzzCase object_case_from(Rng& rng) {
  ObjectFuzzCase c;
  c.n = 2 + static_cast<int>(rng.next_below(8));
  c.toss_seed = rng.next_u64();
  c.scheduler = static_cast<int>(rng.next_below(3));
  // This draw once picked a storage policy; it stays so every case's
  // inputs stay fixed.
  (void)rng.next_bool();
  c.plan.seed = rng.next_u64();
  switch (rng.next_below(4)) {
    case 0:
      break;  // fault-free
    case 1:
      c.plan.sc_fail_rate = 0.1 + 0.5 * rng.next_double();
      if (rng.next_bool()) c.plan.vl_fail_rate = 0.3 * rng.next_double();
      break;
    case 2: {
      // Budget-capped oblivious placement. Exactly two draws keep the
      // rng stream, and so every later case's inputs, fixed.
      const std::uint64_t rate_draw = rng.next_below(2);
      const std::uint64_t budget_draw = rng.next_below(4);
      c.plan.sc_fail_rate = 0.3 + 0.2 * static_cast<double>(rate_draw);
      c.plan.fault_budget = 1 + budget_draw;
      break;
    }
    default:
      c.plan.strategy = FaultStrategyKind::kAdaptive;
      c.plan.fault_budget = 1 + rng.next_below(6);
      break;
  }
  if (rng.next_below(3) == 0) {
    CrashSpec crash;
    crash.proc = static_cast<ProcId>(rng.next_below(c.n));
    crash.after_ops = 1 + rng.next_below(10);
    crash.recovery.max_restarts = 1;
    crash.recovery.delay_units = 1 + rng.next_below(3);
    crash.recovery.amnesia = rng.next_bool();
    c.plan.crashes.push_back(crash);
    // The sequential scheduler runs one process to completion at a time
    // and cannot drive a crash-rejoin interleaving; fall back.
    if (c.scheduler == 2) c.scheduler = 0;
  }
  return c;
}

class ObjectFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectFuzzSweep, NeverTwoWinnersNeverZeroLeaders) {
  static const char* const kBodies[] = {
      "tas_strict",      "leader_strict",
      "tas_from_leader", "leader_from_tas",
      "tas_from_wakeup", "single_winner_wakeup_from_tas"};
  Rng rng(GetParam());
  for (int iter = 0; iter < 8; ++iter) {
    const ObjectFuzzCase c = object_case_from(rng);
    for (const char* name : kBodies) {
      const ObjectFuzzOutcome out = run_object_case(name, c);
      if (!out.violated) continue;
      const ObjectFuzzCase small = shrink_case(name, c);
      const ObjectFuzzOutcome small_out = run_object_case(name, small);
      const ObjectFuzzCase& failing = small_out.violated ? small : c;
      const std::string path = freeze_artifact(name, body_for(name), failing);
      ADD_FAILURE() << name << ": "
                    << (small_out.violated ? small_out.why : out.why)
                    << " under the " << describe(failing)
                    << " (artifact, as replayed under the Fig. 2 "
                       "adversary: "
                    << path << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectFuzzSweep,
                         ::testing::Values(0xAAAAu, 0xBBBBu, 0xCCCCu,
                                           0xDDDDu));

// The shrinker/artifact path itself, exercised with a deliberately broken
// "protocol" (everyone returns 0): the harness must flag it, shrink it to
// n = 1, and freeze a JSON artifact that parses back.
TEST(ObjectFuzzHarness, ShrinksAndFreezesABrokenProtocol) {
  ObjectFuzzCase c;
  c.n = 6;
  c.toss_seed = 77;
  c.plan.seed = 88;
  c.plan.sc_fail_rate = 0.25;

  // "Violation" here is the zero-winner arm: a body that returns 0 for
  // everyone completes with no winner at every n, so the shrinker's n-loop
  // can walk all the way down. The body is unregistered, so body_for()'s
  // registry contract stays intact and the artifact is "custom".
  const ProcBody broken = [](ProcCtx ctx, ProcId, int) {
    return [](ProcCtx ctx) -> SimTask {
      (void)co_await ctx.read(0);
      co_return Value::of_u64(0);
    }(ctx);
  };
  const auto run_broken = [&](const ObjectFuzzCase& cc) {
    System sys(cc.n, broken);
    RoundRobinScheduler sched;
    EXPECT_TRUE(sched.run(sys, 1000).all_terminated);
    int winners = 0;
    for (ProcId p = 0; p < cc.n; ++p) {
      if (sys.process(p).result().holds_u64() &&
          sys.process(p).result().as_u64() == 1) {
        ++winners;
      }
    }
    return winners == 0;
  };
  ASSERT_TRUE(run_broken(c));

  ObjectFuzzCase small = c;
  while (small.n > 1) {
    ObjectFuzzCase t = small;
    t.n = small.n - 1;
    if (!run_broken(t)) break;
    small = t;
  }
  EXPECT_EQ(small.n, 1);

  const FaultArtifact parsed =
      load_artifact(freeze_artifact("custom-broken", broken, small));
  EXPECT_EQ(parsed.scenario, "custom");
  EXPECT_EQ(parsed.n, 1);
  EXPECT_EQ(parsed.status, RunStatus::kSpecViolation);
  EXPECT_DOUBLE_EQ(parsed.plan.sc_fail_rate, 0.25);
}

// A frozen artifact records what replay reproduces, whatever scheduler
// found the case: here a random-scheduler case of a registered scenario
// with an adaptive plan (its decisions freeze into the plan's trace) and
// a resumed crash.
TEST(ObjectFuzzHarness, FrozenArtifactOfARegisteredScenarioReplays) {
  ObjectFuzzCase c;
  c.n = 4;
  c.toss_seed = 0x5EED;
  c.scheduler = 1;
  c.plan.seed = 0xF00D;
  c.plan.strategy = FaultStrategyKind::kAdaptive;
  c.plan.fault_budget = 3;
  c.plan.crashes.push_back(CrashSpec{
      .proc = 2,
      .after_ops = 4,
      .recovery = {.delay_units = 2, .max_restarts = 1, .amnesia = false}});

  const FaultArtifact parsed = load_artifact(
      freeze_artifact("tas_fixed", body_for("tas_fixed"), c));
  EXPECT_EQ(parsed.scenario, "tas_fixed");
  EXPECT_EQ(parsed.max_rounds, kArtifactMaxRounds);
  EXPECT_FALSE(parsed.plan.trace.empty());
  std::string why;
  EXPECT_TRUE(replay(parsed, Substrate::kSim, &why)) << why;
  EXPECT_TRUE(replay(parsed, Substrate::kHw, &why)) << why;

  // The strict protocol's op counts follow the schedule; its artifact
  // still reproduces on the simulator it was frozen from.
  const FaultArtifact strict = load_artifact(
      freeze_artifact("tas_strict", body_for("tas_strict"), c));
  EXPECT_TRUE(replay(strict, Substrate::kSim, &why)) << why;
}

}  // namespace
}  // namespace llsc
