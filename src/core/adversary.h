// The paper's adversary scheduler (Figure 2).
//
// Runs proceed in rounds of five phases:
//   1. every live process performs local coin tosses until it terminates or
//      its next step is a shared-memory operation; live processes are then
//      partitioned by the type of that operation;
//   2. the LL/validate group steps, in id order;
//   3. the move group steps, in the order of a secretive complete schedule
//      sigma_r (Section 4) over its pending moves;
//   4. the swap group steps, in id order;
//   5. the SC group steps, in id order.
//
// Because loads all precede stores within a round, every load in round r
// observes end-of-round-(r-1) values; because moves and swaps precede SCs
// and clear Psets, at most one SC per register succeeds per round. These
// are the structural facts the UP-set update rules rely on.
//
// The scheduler produces a RunLog. A full run records per-round records
// (partition, sigma_r, executed ops) and end-of-round snapshots, which
// feed the UP tracker, the (S,A)-run construction and the
// indistinguishability checker. A lean run (record_snapshots off) streams:
// it keeps only the round count and termination flag, and callers read
// the per-process counters off the System.
#ifndef LLSC_CORE_ADVERSARY_H_
#define LLSC_CORE_ADVERSARY_H_

#include <cstdint>

#include "core/round_record.h"
#include "runtime/system.h"

namespace llsc {

struct AdversaryOptions {
  // Cap on rounds, so non-terminating algorithms yield a diagnosable log.
  int max_rounds = 1 << 20;
  // Ablation switch (E5 bench): when false, the move group is scheduled in
  // id order instead of a secretive complete schedule, which lets move
  // chains leak information and breaks the |UP| <= 4^r bound.
  bool secretive_moves = true;
  // When false, the run is lean: it keeps no round records and no
  // snapshots, only the round count and all_terminated (see RunLog), so
  // its memory stays O(n) however long it runs. Heavy benches and the
  // first pass of analyze_wakeup_run read only System counters.
  bool record_snapshots = true;
};

// Runs `sys` to completion (or the round cap) under the Fig. 2 adversary
// and returns its log: full, or lean when options.record_snapshots is off.
RunLog run_adversary(System& sys, const AdversaryOptions& options = {});

}  // namespace llsc

#endif  // LLSC_CORE_ADVERSARY_H_
