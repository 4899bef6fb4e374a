// Reclamation policies — the seam deciding when a replaced boxed node may
// be freed.
//
// The hw backend's RegisterStorage (every register under kBoxed, demoted
// registers under kInline) publishes immutable heap nodes through a single
// CAS word; a node replaced
// by a successful write can still be dereferenced by a reader that loaded
// the word just before the CAS, so freeing it is a policy decision with a
// real trade-off:
//
//   kEpoch  — three-epoch batch reclamation (the pre-seam behavior, byte
//             for byte). Near-zero per-operation cost, but a peer parked
//             or stalled *inside* an operation pins the global epoch and
//             every thread's garbage grows without bound for the duration.
//   kHazard — per-slot hazard pointers with an amortized retired-list
//             scan. Each protected load pays a publish + re-validate
//             round-trip, but unreclaimed nodes are bounded at
//             O(slots² · hazards-per-slot) no matter how long any peer
//             stalls or how often it crash-recovers.
//
// The enum values double as the reclaimer_id emitted in bench counters and
// validated by tools/bench_to_csv.py --check. The hw-side machinery
// (Reclaimer, EpochReclaimer, HazardPointerReclaimer) lives in
// hw/reclaim.h; this header carries only what both substrates share: the
// policy name, the LLSC_RECLAIMER process default, and the counters every
// run reports.
#ifndef LLSC_MEMORY_RECLAIM_POLICY_H_
#define LLSC_MEMORY_RECLAIM_POLICY_H_

#include <cstdint>
#include <string>

namespace llsc {

enum class ReclaimPolicy : int {
  kEpoch = 0,
  kHazard = 1,
};

std::string to_string(ReclaimPolicy policy);
ReclaimPolicy reclaim_policy_from_string(const std::string& name);

// Process-wide default, read once from the LLSC_RECLAIMER environment
// variable ("epoch" | "hazard"); kEpoch when unset. This is how the CI
// hazard matrix legs flip every test and bench to the other policy without
// touching call sites; anything that cares pins its policy explicitly.
ReclaimPolicy default_reclaim_policy();

// Reclamation counters of one run. On the hw substrate they aggregate the
// Reclaimer's per-slot counters plus the storage layer's net allocation
// count (read when quiescent); the simulator mirrors the deterministic
// subset — nodes_allocated / nodes_retired, counted at the same
// completed-install points as RegisterWidthStats — so sim/hw parity holds
// for deterministic workloads, while the timing-dependent fields
// (nodes_freed, scan_passes, stall spins, high-water) stay hw-only and
// read 0 on the simulator.
struct ReclaimStats {
  ReclaimPolicy policy = ReclaimPolicy::kEpoch;
  // Net nodes allocated by completed installs (a node allocated for a CAS
  // that lost its race is deleted and un-counted on the spot).
  std::uint64_t nodes_allocated = 0;
  std::uint64_t nodes_retired = 0;
  std::uint64_t nodes_freed = 0;
  // Current global epoch (kEpoch only; 0 under kHazard).
  std::uint64_t global_epoch = 0;
  // Retired-list scans performed (epoch advance attempts / hazard sweeps).
  std::uint64_t scan_passes = 0;
  // kHazard publish→re-validate retries summed over all protected loads,
  // and the worst single protected load — the reclamation-stall tail E19
  // reports. Both 0 under kEpoch (an epoch entry never retries).
  std::uint64_t protect_retries = 0;
  std::uint64_t max_stall_spins = 0;
  // Peak unreclaimed retired nodes, summed over slots (each slot tracks
  // the high-water of its own retired list). This is the memory-growth
  // metric: bounded under kHazard regardless of stalled peers, unbounded
  // under kEpoch while any peer pins the epoch.
  std::uint64_t node_high_water = 0;
};

}  // namespace llsc

#endif  // LLSC_MEMORY_RECLAIM_POLICY_H_
