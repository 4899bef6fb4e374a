// fault_replay — run a fault plan against a scenario, or replay JSON
// artifacts bit-for-bit, on the simulator and/or the hw backend. Every
// run, freeze and replay goes through the library contract in
// hw/replay.h.
//
//   # Run a scenario under injected faults and (optionally) freeze it
//   # (one command line):
//   fault_replay --scenario fixed_ll_sc --n 4 --sc-fail-rate 0.25
//                --fault-seed 7 --seed 1 --out artifact.json
//
//   # Replay artifacts — files, or directories of *.json files such as
//   # the ones the Monte-Carlo driver dumps — and verify the taxonomy +
//   # per-process op counts match each recording:
//   fault_replay --replay --platform both artifacts/ extra.json
//
//   # Self-check used by CI: run, dump, reload, replay on both
//   # substrates, verify bit-for-bit:
//   fault_replay --selftest
//
// Replay prints one OK/FAIL line per artifact (SKIP for scenario
// "custom", which documents a failure but has no registered body to
// rebuild) and an "N/M artifacts reproduced" summary. Exit status:
// 0 when every run/replay matched, 1 on any mismatch, 2 on a usage error
// or an unreadable artifact.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "hw/hw_executor.h"
#include "hw/replay.h"

namespace {

using namespace llsc;

struct Args {
  std::string scenario = "fixed_ll_sc";
  bool replay = false;
  std::vector<std::string> replay_paths;  // files or directories
  std::string out_path;
  std::string platform = "sim";  // sim | hw | both
  int n = 4;
  int max_rounds = 1 << 12;
  std::uint64_t seed = 1;  // toss seed
  FaultPlan plan;
  bool selftest = false;
};

std::vector<Substrate> substrates(const std::string& platform) {
  if (platform == "sim") return {Substrate::kSim};
  if (platform == "hw") return {Substrate::kHw};
  if (platform == "both") return {Substrate::kSim, Substrate::kHw};
  return {};
}

void usage() {
  std::fprintf(stderr,
               "usage: fault_replay [--selftest]\n"
               "       fault_replay --replay [--platform sim|hw|both]"
               " FILE|DIR ...\n"
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
    std::string arg = argv[i];
    if (arg == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (arg == "--replay") {
      args->replay = true;
      continue;
    }
    if (!arg.empty() && arg[0] != '-') {
      args->replay_paths.push_back(arg);
      continue;
    }
    // Every other flag takes a value: "--flag V" or "--flag=V".
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return false;
    }
    const char* v = value.c_str();
    if (arg == "--scenario") {
      args->scenario = value;
    } else if (arg == "--out") {
      args->out_path = value;
    } else if (arg == "--platform") {
      if (substrates(value).empty()) return false;
      args->platform = value;
    } else if (arg == "--n") {
      args->n = std::atoi(v);
    } else if (arg == "--max-rounds") {
      args->max_rounds = std::atoi(v);
    } else if (arg == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--fault-seed") {
      args->plan.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--sc-fail-rate") {
      args->plan.sc_fail_rate = std::atof(v);
    } else if (arg == "--vl-fail-rate") {
      args->plan.vl_fail_rate = std::atof(v);
    } else if (arg == "--stall-rate") {
      args->plan.stall_rate = std::atof(v);
    } else if (arg == "--max-stall-units") {
      args->plan.max_stall_units = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--strategy") {
      if (!fault_strategy_from_string(value, &args->plan.strategy)) {
        return false;
      }
    } else if (arg == "--fault-budget") {
      args->plan.fault_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--crash") {
      const char* at = std::strchr(v, '@');
      if (at == nullptr) return false;
      CrashSpec spec;
      spec.proc = std::atoi(v);
      spec.after_ops = std::strtoull(at + 1, nullptr, 10);
      args->plan.crashes.push_back(spec);
    } else if (arg == "--timeout_ms") {
      set_default_hw_timeout_ms(std::strtoull(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->replay_paths.empty() == args->replay) {
    std::fprintf(stderr, args->replay ? "--replay needs an artifact\n"
                                      : "artifact paths need --replay\n");
    return false;
  }
  return true;
}

void print_observation(Substrate substrate, const Observation& obs) {
  std::printf("%s: status=%s proc_ops=[", to_string(substrate),
              to_string(obs.status));
  for (std::size_t i = 0; i < obs.proc_ops.size(); ++i) {
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(obs.proc_ops[i]));
  }
  std::printf("]\n");
}

// Every *.json file of a directory, sorted; any other path as given.
std::vector<std::string> collect_artifacts(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (!std::filesystem::is_directory(path, ec)) {
      files.push_back(path);
      continue;
    }
    std::vector<std::string> entries;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      if (entry.path().extension() == ".json") {
        entries.push_back(entry.path().string());
      }
    }
    std::sort(entries.begin(), entries.end());
    files.insert(files.end(), entries.begin(), entries.end());
  }
  return files;
}

bool load_artifact(const std::string& path, FaultArtifact* artifact,
                   std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open";
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return FaultArtifact::from_json(buffer.str(), artifact, error);
}

int replay_artifacts(const Args& args) {
  const std::vector<std::string> files = collect_artifacts(args.replay_paths);
  if (files.empty()) {
    std::fprintf(stderr, "fault_replay: no artifact files found\n");
    return 2;
  }
  int replayed = 0;
  int failures = 0;
  int skipped = 0;
  for (const std::string& path : files) {
    FaultArtifact artifact;
    std::string error;
    if (!load_artifact(path, &artifact, &error)) {
      std::fprintf(stderr, "fault_replay: %s: unreadable artifact: %s\n",
                   path.c_str(), error.c_str());
      return 2;
    }
    if (artifact.scenario == "custom") {
      std::printf("SKIP  %s: scenario 'custom' has no registered body\n",
                  path.c_str());
      ++skipped;
      continue;
    }
    ++replayed;
    std::vector<std::string> mismatches;
    for (const Substrate substrate : substrates(args.platform)) {
      std::string why;
      if (!replay(artifact, substrate, &why)) {
        mismatches.push_back(std::string(to_string(substrate)) + ": " + why);
      }
    }
    if (mismatches.empty()) {
      std::printf("OK    %s: replay matches (status=%s, n=%d)\n",
                  path.c_str(), to_string(artifact.status), artifact.n);
    } else {
      ++failures;
      std::printf("FAIL  %s: replay diverged\n", path.c_str());
      for (const std::string& m : mismatches) {
        std::printf("      %s\n", m.c_str());
      }
    }
  }
  std::printf("fault_replay: %d/%d artifacts reproduced bit-for-bit",
              replayed - failures, replayed);
  if (skipped > 0) std::printf(", %d skipped", skipped);
  std::printf("\n");
  return failures > 0 ? 1 : 0;
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
  std::optional<Observation> sim;
  std::optional<Observation> hw;
  for (const Substrate substrate : substrates(args.platform)) {
    std::optional<Observation>& slot = substrate == Substrate::kSim ? sim : hw;
    slot = observe(substrate, body, args.n, args.seed, args.plan,
                   args.max_rounds);
    print_observation(substrate, *slot);
  }
  if (!args.out_path.empty()) {
    // The decisions an adaptive or capped plan placed freeze into the
    // artifact's plan, so it replays through the pure trace lookup on
    // either substrate.
    const FaultArtifact artifact = freeze(args.scenario, args.n, args.seed,
                                          args.plan, args.max_rounds,
                                          sim ? *sim : *hw);
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
int selftest_leg(const char* label, const Args& args) {
  if (run_once(args) != 0) {
    std::fprintf(stderr, "selftest (%s): recording run failed\n", label);
    return 1;
  }
  Args replay_args;
  replay_args.replay = true;
  replay_args.replay_paths = {args.out_path};
  replay_args.platform = "both";
  const int rc = replay_artifacts(replay_args);
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
  Args oblivious;  // fixed_ll_sc, n = 4, recorded on the simulator
  oblivious.seed = 42;
  oblivious.plan.seed = 7;
  Args adaptive = oblivious;
  oblivious.plan.sc_fail_rate = 0.5;
  oblivious.plan.crashes.push_back(CrashSpec{
      .proc = 1, .after_ops = 3, .recovery = {}});
  oblivious.out_path = "fault_replay_selftest.json";
  adaptive.plan.strategy = FaultStrategyKind::kAdaptive;
  adaptive.plan.fault_budget = 6;
  adaptive.out_path = "fault_replay_selftest_adaptive.json";
  if (selftest_leg("oblivious", oblivious) != 0 ||
      selftest_leg("adaptive", adaptive) != 0) {
    return 1;
  }
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
  if (args.replay) {
    // The per-run watchdog a replay arms unless --timeout_ms or
    // LLSC_TIMEOUT_MS picked one: an artifact that wedges on hw fails
    // with a taxonomy instead of hanging the caller.
    if (default_hw_timeout_ms() == 0) set_default_hw_timeout_ms(120000);
    return replay_artifacts(args);
  }
  return run_once(args);
}
