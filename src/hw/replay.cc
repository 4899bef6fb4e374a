#include "hw/replay.h"

#include <algorithm>

#include "hw/fault_scenarios.h"
#include "hw/oversub_executor.h"

namespace llsc {

namespace {

// Carrier threads of the oversubscribed leg: every run with n >= 3 is
// genuinely multiplexed.
constexpr int kOversubCarriers = 2;

std::string format_ops(const std::vector<std::uint64_t>& ops) {
  std::string s = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(ops[i]);
  }
  return s + "]";
}

// The executors have no spec checker; apply the winner scan the
// Monte-Carlo classification (run_mc_sample) uses so the taxonomies are
// comparable. Like the simulator's classifier, the scan only applies to
// fully terminated runs — a crashed or hung run reports no winner there
// either.
Observation observation_of(const HwRunResult& run) {
  Observation obs;
  obs.status = run.status;
  obs.proc_ops = run.shared_ops;
  obs.decision_trace = run.decision_trace;
  obs.fault = run.fault;
  if (!run.shared_ops.empty()) {
    obs.max_ops =
        *std::max_element(run.shared_ops.begin(), run.shared_ops.end());
  }
  if (run.status == RunStatus::kClean) {
    for (std::size_t p = 0; p < run.results.size(); ++p) {
      if (run.proc_status[p] == HwProcOutcome::kDone &&
          run.results[p].holds_u64() && run.results[p].as_u64() == 1) {
        obs.min_winner_ops = std::min(obs.min_winner_ops, run.shared_ops[p]);
      }
    }
    if (obs.min_winner_ops == ~std::uint64_t{0}) {
      obs.status = RunStatus::kSpecViolation;
    }
  }
  return obs;
}

}  // namespace

const char* to_string(Substrate substrate) {
  switch (substrate) {
    case Substrate::kSim:
      return "sim";
    case Substrate::kHw:
      return "hw";
    case Substrate::kOversub:
      return "oversub";
  }
  return "unknown";
}

Observation observe(Substrate substrate, const ProcBody& body, int n,
                    std::uint64_t toss_seed, const FaultPlan& plan,
                    int max_rounds) {
  const FaultPlan* fault = plan.enabled() ? &plan : nullptr;
  switch (substrate) {
    case Substrate::kSim: {
      AdversaryOptions adversary;
      adversary.max_rounds = max_rounds;
      return run_mc_sample(body, n, toss_seed, adversary, fault);
    }
    case Substrate::kHw: {
      HwRunOptions options;
      options.seed = toss_seed;
      options.fault = fault;
      return observation_of(HwExecutor(options).run(n, body));
    }
    case Substrate::kOversub: {
      OversubRunOptions options;
      options.seed = toss_seed;
      options.fault = fault;
      options.num_threads = kOversubCarriers;
      return observation_of(OversubscribedExecutor(options).run(n, body));
    }
  }
  return {};
}

FaultArtifact freeze(const std::string& scenario, int n,
                     std::uint64_t toss_seed, const FaultPlan& plan,
                     int max_rounds, const Observation& obs,
                     int sample_index) {
  FaultArtifact artifact;
  artifact.scenario = scenario;
  artifact.n = n;
  artifact.sample_index = sample_index;
  artifact.toss_seed = toss_seed;
  artifact.max_rounds = max_rounds;
  artifact.status = obs.status;
  artifact.proc_ops = obs.proc_ops;
  artifact.plan = plan;
  if (artifact.plan.trace.empty()) artifact.plan.trace = obs.decision_trace;
  return artifact;
}

bool replay(const FaultArtifact& artifact, Substrate substrate,
            std::string* why) {
  const auto fail = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  const ProcBody body = fault_scenario(artifact.scenario);
  if (!body) {
    return fail("scenario '" + artifact.scenario + "' is not registered");
  }
  const Observation obs =
      observe(substrate, body, artifact.n, artifact.toss_seed, artifact.plan,
              artifact.max_rounds);
  if (obs.status != artifact.status) {
    return fail(std::string("status ") + to_string(obs.status) +
                " != recorded " + to_string(artifact.status));
  }
  if (obs.proc_ops != artifact.proc_ops) {
    return fail("per-process op counts " + format_ops(obs.proc_ops) +
                " != recorded " + format_ops(artifact.proc_ops));
  }
  return true;
}

}  // namespace llsc
