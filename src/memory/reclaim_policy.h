// Node-reclamation counters shared by both substrates.
//
// The hw backend's HwMemory (its demoted registers, hw/hw_memory.h)
// publishes immutable heap nodes through a single CAS word, retires each
// replaced node and frees it once no hazard pointer names it
// (hw/reclaim.h). This header carries what both substrates share:
// the counters every run reports.
#ifndef LLSC_MEMORY_RECLAIM_POLICY_H_
#define LLSC_MEMORY_RECLAIM_POLICY_H_

#include <cstdint>
#include <string>

namespace llsc {

// Hazard pointers are the one reclaimer. The enum, its to_string and
// default_reclaim_policy() are kept because perfbench/ names them;
// nothing reads them.
enum class ReclaimPolicy : int {
  kEpoch = 0,
  kHazard = 1,
};

std::string to_string(ReclaimPolicy policy);
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
  // Net nodes allocated by completed installs (a node allocated for a CAS
  // that lost its race is deleted and un-counted on the spot).
  std::uint64_t nodes_allocated = 0;
  std::uint64_t nodes_retired = 0;
  std::uint64_t nodes_freed = 0;
  // Retired-list scans performed.
  std::uint64_t scan_passes = 0;
  // Publish→re-validate retries summed over all protected loads, and the
  // worst single protected load — the reclamation-stall tail E19 reports.
  std::uint64_t protect_retries = 0;
  std::uint64_t max_stall_spins = 0;
  // Peak unreclaimed retired nodes, summed over slots (each slot tracks
  // the high-water of its own retired list). This is the memory-growth
  // metric: at most slots × scan threshold, whatever peers do.
  std::uint64_t node_high_water = 0;
};

}  // namespace llsc

#endif  // LLSC_MEMORY_RECLAIM_POLICY_H_
