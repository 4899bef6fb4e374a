// The replay contract: observe a run, freeze it, replay it anywhere.
//
// A fault plan (hw/fault.h) replays bit-for-bit across the three
// substrates — the simulator under the Fig. 2 adversary, the 1:1
// HwExecutor and the oversubscribed pool — when the workload's per-process
// op streams are schedule-independent (the fixed_* scenarios of
// hw/fault_scenarios.h) or its placements are pinned to a recorded
// DecisionTrace. "Replays" means: the same run taxonomy, the same
// per-process executed-op counts and the same minimum winner op count.
//
// This module is the one implementation of that contract:
//   * observe() runs one body on one substrate and reduces the run to an
//     Observation (core/lower_bound.h). The simulator leg is
//     run_mc_sample, whose sample record is that Observation; the two hw
//     legs share one classifier, the wakeup winner scan the Monte-Carlo
//     estimator applies (a terminated run in which no process returned 1
//     is a kSpecViolation).
//   * freeze() turns an observation into a FaultArtifact: the recorded
//     decisions are embedded in the plan, so an adaptive or budget-capped
//     schedule replays through the pure trace lookup on any substrate.
//   * replay() rebuilds an artifact's registered scenario, observes it on
//     a substrate and compares against the recording.
//
// examples/fault_replay (the CLI), the Monte-Carlo artifact dump
// (hw/mc_driver) and the sim-vs-hw tests all go through here.
#ifndef LLSC_HW_REPLAY_H_
#define LLSC_HW_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/lower_bound.h"
#include "hw/fault.h"
#include "runtime/process.h"

namespace llsc {

enum class Substrate { kSim, kHw, kOversub };

const char* to_string(Substrate substrate);

// Runs `body` for n processes on `substrate` with toss seed `toss_seed`
// and fault plan `plan` (a disabled plan installs no injector).
// `max_rounds` caps the simulator's adversary; the hw legs run under the
// process-wide watchdog default instead (set_default_hw_timeout_ms). The
// oversubscribed leg multiplexes the n processes on two carrier threads.
Observation observe(Substrate substrate, const ProcBody& body, int n,
                    std::uint64_t toss_seed, const FaultPlan& plan,
                    int max_rounds = AdversaryOptions{}.max_rounds);

// The artifact recording `obs`, a run of `scenario` under (n, toss_seed,
// plan, max_rounds). When the plan carries no trace, the observed
// decisions become its trace.
FaultArtifact freeze(const std::string& scenario, int n,
                     std::uint64_t toss_seed, const FaultPlan& plan,
                     int max_rounds, const Observation& obs,
                     int sample_index = -1);

// Replays `artifact` on `substrate`. True iff the observed taxonomy and
// per-process op counts equal the recorded ones; otherwise `why` (when
// non-null) says what differed, or that the scenario is not registered.
bool replay(const FaultArtifact& artifact, Substrate substrate,
            std::string* why = nullptr);

}  // namespace llsc

#endif  // LLSC_HW_REPLAY_H_
