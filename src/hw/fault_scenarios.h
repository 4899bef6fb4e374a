// Named workload scenarios for fault replay.
//
// A FaultArtifact (hw/fault.h) records only data — seed, plan, observed
// taxonomy — so the replaying side must be able to rebuild the workload
// body from a name. This registry maps those names to ProcBody factories;
// the same names are used by the Monte-Carlo drivers when dumping
// artifacts and by replay() (hw/replay.h, behind `fault_replay --replay`)
// when feeding them back.
//
// The fixed_* scenarios execute a schedule-independent NUMBER of shared
// ops per process (their outcomes may differ, their counts cannot), which
// is what makes per-process op counts comparable bit-for-bit between the
// simulator's adversary schedule and the hw backend's free-running
// threads.
#ifndef LLSC_HW_FAULT_SCENARIOS_H_
#define LLSC_HW_FAULT_SCENARIOS_H_

#include <string>
#include <vector>

#include "runtime/process.h"

namespace llsc {

// Returns the body for `name`, or an empty ProcBody when unknown:
//   "tournament"            — tournament_wakeup()
//   "randomized_tournament" — randomized_tournament_wakeup()
//   "counter"               — counter_wakeup()
//   "fixed_swap"            — each process swaps its own register 8 times
//   "fixed_ll_sc"           — 8 x (LL; SC) on one shared register
//   "uc_single_register"    — 2 fetch&increments per process through a
//                             fixed-shape SingleRegisterUC
//   "uc_combining"          — 2 fetch&increments per process through
//                             CombiningUniversal's fixed two-attempt mode
//   "tas_fixed"             — fixed-shape randomized test-and-set
//                             (objects/tas.h): splitter chain + tournament
//                             + nil-preserving claim SCs, schedule-
//                             independent op count
//   "leader_fixed"          — tas_fixed plus one read of the claim
//                             register (objects/leader.h)
//   "tas_strict"            — the strict randomized TAS protocol
//                             (randomized_tas_body): deterministic safety,
//                             schedule-dependent op counts
//   "leader_strict"         — strict leader election on top of it
//                             (leader_election_body)
ProcBody fault_scenario(const std::string& name);

// Names accepted by fault_scenario, for CLI help text.
std::vector<std::string> fault_scenario_names();

}  // namespace llsc

#endif  // LLSC_HW_FAULT_SCENARIOS_H_
