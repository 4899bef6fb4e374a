// fault_replay — run a fault plan against a scenario, or replay a JSON
// artifact bit-for-bit, on the simulator and/or the hw backend.
//
//   # Run a scenario under injected faults and (optionally) freeze it
//   # (one command line):
//   fault_replay --scenario fixed_ll_sc --n 4 --sc-fail-rate 0.25
//                --fault-seed 7 --seed 1 --out artifact.json
//
//   # Replay an artifact (e.g. one dumped by the Monte-Carlo driver) and
//   # verify the taxonomy + per-process op counts match the recording:
//   fault_replay --replay artifact.json --platform both
//
//   # Self-check used by CI: run, dump, reload, replay on both
//   # substrates, verify bit-for-bit:
//   fault_replay --selftest
//
// Exit status 0 iff every requested run/replay matched expectations.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/lower_bound.h"
#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "hw/hw_executor.h"

namespace {

using namespace llsc;

struct Args {
  std::string scenario = "fixed_ll_sc";
  std::string replay_path;
  std::string out_path;
  std::string platform = "sim";  // sim | hw | both
  int n = 4;
  int max_rounds = 1 << 12;
  std::uint64_t seed = 1;  // toss seed
  FaultPlan plan;
  bool selftest = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: fault_replay [--selftest]\n"
               "       fault_replay --replay FILE [--platform sim|hw|both]\n"
               "       fault_replay --scenario NAME --n N [--seed S]\n"
               "         [--platform sim|hw|both] [--out FILE]\n"
               "         [--fault-seed S] [--sc-fail-rate R]"
               " [--vl-fail-rate R]\n"
               "         [--stall-rate R --max-stall-units U]"
               " [--crash P@OPS ...]\n"
               "         [--strategy oblivious|adaptive]"
               " [--fault-budget B]\n"
               "         [--max-rounds R] [--timeout_ms MS]\n"
               "scenarios:");
  for (const std::string& s : fault_scenario_names()) {
    std::fprintf(stderr, " %s", s.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") {
      args->selftest = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return false;
      args->replay_path = v;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return false;
      args->scenario = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_path = v;
    } else if (arg == "--platform") {
      const char* v = next();
      if (v == nullptr) return false;
      args->platform = v;
    } else if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      args->n = std::atoi(v);
    } else if (arg == "--max-rounds") {
      const char* v = next();
      if (v == nullptr) return false;
      args->max_rounds = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->plan.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--sc-fail-rate") {
      const char* v = next();
      if (v == nullptr) return false;
      args->plan.sc_fail_rate = std::atof(v);
    } else if (arg == "--vl-fail-rate") {
      const char* v = next();
      if (v == nullptr) return false;
      args->plan.vl_fail_rate = std::atof(v);
    } else if (arg == "--stall-rate") {
      const char* v = next();
      if (v == nullptr) return false;
      args->plan.stall_rate = std::atof(v);
    } else if (arg == "--max-stall-units") {
      const char* v = next();
      if (v == nullptr) return false;
      args->plan.max_stall_units =
          static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--strategy") {
      const char* v = next();
      if (v == nullptr || !fault_strategy_from_string(v, &args->plan.strategy)) {
        return false;
      }
    } else if (arg == "--fault-budget") {
      const char* v = next();
      if (v == nullptr) return false;
      args->plan.fault_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--crash") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* at = std::strchr(v, '@');
      if (at == nullptr) return false;
      CrashSpec spec;
      spec.proc = std::atoi(v);
      spec.after_ops = std::strtoull(at + 1, nullptr, 10);
      args->plan.crashes.push_back(spec);
    } else if (arg.rfind("--timeout_ms=", 0) == 0) {
      set_default_hw_timeout_ms(
          std::strtoull(arg.c_str() + std::strlen("--timeout_ms="), nullptr,
                        10));
    } else if (arg == "--timeout_ms") {
      const char* v = next();
      if (v == nullptr) return false;
      set_default_hw_timeout_ms(std::strtoull(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Outcome of one run, reduced to the replay contract: taxonomy +
// per-process executed-op counts.
struct Observed {
  RunStatus status = RunStatus::kClean;
  std::vector<std::uint64_t> proc_ops;
  DecisionTrace trace;  // decisions an adaptive or capped plan placed
};

Observed run_on_simulator(const ProcBody& body, int n, std::uint64_t seed,
                          int max_rounds, const FaultPlan& plan) {
  AdversaryOptions adversary;
  adversary.max_rounds = max_rounds;
  const McSampleOutcome sample =
      run_mc_sample(body, n, seed, adversary, plan.enabled() ? &plan : nullptr);
  return Observed{sample.status, sample.proc_ops, sample.decision_trace};
}

Observed run_on_hw(const ProcBody& body, int n, std::uint64_t seed,
                   const FaultPlan& plan) {
  HwRunOptions options;
  options.seed = seed;
  options.fault = plan.enabled() ? &plan : nullptr;
  HwExecutor exec(options);
  const HwRunResult run = exec.run(n, body);
  Observed obs;
  obs.proc_ops = run.shared_ops;
  obs.status = run.status;
  obs.trace = run.decision_trace;
  // The executor has no wakeup spec; apply the same winner check the
  // Monte-Carlo classification uses so taxonomies line up.
  if (run.status == RunStatus::kClean) {
    bool has_winner = false;
    for (const Value& v : run.results) {
      if (v.holds_u64() && v.as_u64() == 1) has_winner = true;
    }
    if (!has_winner) obs.status = RunStatus::kSpecViolation;
  }
  return obs;
}

void print_observed(const char* platform, const Observed& obs) {
  std::printf("%s: status=%s proc_ops=[", platform, to_string(obs.status));
  for (std::size_t i = 0; i < obs.proc_ops.size(); ++i) {
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(obs.proc_ops[i]));
  }
  std::printf("]\n");
}

bool check_match(const char* platform, const Observed& obs,
                 const FaultArtifact& artifact) {
  if (obs.status != artifact.status) {
    std::printf("%s: MISMATCH status %s != recorded %s\n", platform,
                to_string(obs.status), to_string(artifact.status));
    return false;
  }
  if (obs.proc_ops != artifact.proc_ops) {
    std::printf("%s: MISMATCH per-process op counts\n", platform);
    return false;
  }
  std::printf("%s: replay matches (status=%s, %zu op counts)\n", platform,
              to_string(obs.status), obs.proc_ops.size());
  return true;
}

int replay(const Args& args) {
  std::ifstream file(args.replay_path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", args.replay_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  FaultArtifact artifact;
  std::string error;
  if (!FaultArtifact::from_json(buffer.str(), &artifact, &error)) {
    std::fprintf(stderr, "bad artifact %s: %s\n", args.replay_path.c_str(),
                 error.c_str());
    return 1;
  }
  const ProcBody body = fault_scenario(artifact.scenario);
  if (!body) {
    std::fprintf(stderr, "artifact scenario '%s' is not registered\n",
                 artifact.scenario.c_str());
    return 1;
  }
  bool ok = true;
  if (args.platform == "sim" || args.platform == "both") {
    const Observed obs =
        run_on_simulator(body, artifact.n, artifact.toss_seed,
                         artifact.max_rounds, artifact.plan);
    ok = check_match("sim", obs, artifact) && ok;
  }
  if (args.platform == "hw" || args.platform == "both") {
    const Observed obs =
        run_on_hw(body, artifact.n, artifact.toss_seed, artifact.plan);
    ok = check_match("hw", obs, artifact) && ok;
  }
  return ok ? 0 : 1;
}

int run_once(const Args& args) {
  const ProcBody body = fault_scenario(args.scenario);
  if (!body) {
    std::fprintf(stderr, "unknown scenario '%s'\n", args.scenario.c_str());
    usage();
    return 1;
  }
  // A crash of a process the run lacks would never fire, and the artifact
  // it froze would not load back.
  for (const CrashSpec& c : args.plan.crashes) {
    if (c.proc < 0 || c.proc >= args.n) {
      std::fprintf(stderr, "--crash names process %d, outside [0, %d)\n",
                   c.proc, args.n);
      return 1;
    }
  }
  std::optional<Observed> sim;
  std::optional<Observed> hw;
  if (args.platform == "sim" || args.platform == "both") {
    sim = run_on_simulator(body, args.n, args.seed, args.max_rounds,
                           args.plan);
    print_observed("sim", *sim);
  }
  if (args.platform == "hw" || args.platform == "both") {
    hw = run_on_hw(body, args.n, args.seed, args.plan);
    print_observed("hw", *hw);
  }
  if (!args.out_path.empty()) {
    FaultArtifact artifact;
    artifact.scenario = args.scenario;
    artifact.n = args.n;
    artifact.toss_seed = args.seed;
    artifact.max_rounds = args.max_rounds;
    const Observed& ref = sim ? *sim : *hw;
    artifact.status = ref.status;
    artifact.proc_ops = ref.proc_ops;
    artifact.plan = args.plan;
    // Freeze the recorded decisions into the plan: the artifact then
    // replays the adaptive or capped schedule through the pure
    // trace-lookup path on either substrate.
    if (artifact.plan.trace.empty()) artifact.plan.trace = ref.trace;
    std::ofstream out(args.out_path);
    out << artifact.to_json();
    if (!out.good()) {
      std::fprintf(stderr, "failed writing %s\n", args.out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.out_path.c_str());
  }
  if (sim && hw &&
      (sim->status != hw->status || sim->proc_ops != hw->proc_ops)) {
    std::printf("NOTE: sim and hw disagree (scenario not "
                "schedule-independent, or a stall/timing effect)\n");
    return 1;
  }
  return 0;
}

// One record-on-sim / replay-on-both leg of the self-check.
int selftest_leg(const char* label, const Args& record_args) {
  Args args = record_args;
  if (run_once(args) != 0) {
    std::fprintf(stderr, "selftest (%s): recording run failed\n", label);
    return 1;
  }
  Args replay_args;
  replay_args.replay_path = args.out_path;
  replay_args.platform = "both";
  const int rc = replay(replay_args);
  std::remove(args.out_path.c_str());
  if (rc != 0) {
    std::fprintf(stderr, "selftest (%s): replay mismatched\n", label);
  }
  return rc;
}

// CI self-check: record on the simulator, then verify the artifact
// replays bit-for-bit on BOTH substrates via the normal replay path —
// once for the oblivious crash + SC-failure storm (PR 3's contract) and
// once for the adaptive adversary (the record/replay contract for traces).
int selftest() {
  Args oblivious;
  oblivious.scenario = "fixed_ll_sc";
  oblivious.n = 4;
  oblivious.seed = 42;
  oblivious.plan.seed = 7;
  oblivious.plan.sc_fail_rate = 0.5;
  oblivious.plan.crashes.push_back(CrashSpec{
      .proc = 1, .after_ops = 3, .recovery = {}});
  oblivious.platform = "sim";
  oblivious.out_path = "fault_replay_selftest.json";
  if (selftest_leg("oblivious", oblivious) != 0) return 1;

  Args adaptive;
  adaptive.scenario = "fixed_ll_sc";
  adaptive.n = 4;
  adaptive.seed = 42;
  adaptive.plan.seed = 7;
  adaptive.plan.strategy = FaultStrategyKind::kAdaptive;
  adaptive.plan.fault_budget = 6;
  adaptive.platform = "sim";
  adaptive.out_path = "fault_replay_selftest_adaptive.json";
  if (selftest_leg("adaptive", adaptive) != 0) return 1;

  std::printf("selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  if (args.selftest) return selftest();
  if (!args.replay_path.empty()) return replay(args);
  return run_once(args);
}
