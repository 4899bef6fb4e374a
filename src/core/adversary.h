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
// The round pipeline. Only memory is sequential: what a body computes
// between two steps touches that process alone, and every op of a round is
// issued before any result of the round comes back. So each round is two
// steps:
//   * apply: phases 2-5 applied to shared memory on the calling thread, in
//     the order above. Each result is held for its process until the pass
//     (System::apply_pending_op); a full log builds its op records and
//     history hashes here and reads the registers right after.
//   * pass: for every process, resume its body on its op's result, stamp
//     its events, take its part of the snapshot, and run its Phase 1 of
//     the next round. The pass cuts the ids into contiguous chunks (the
//     shards), which a crew (util/crew.h) of AdversaryOptions::threads
//     threads claims. The chunks' partitions, concatenated in chunk order,
//     are the id-ordered groups, and their toss clocks are fixed up by a
//     prefix sum after the join. One thread is the same code on the
//     calling thread alone.
// The run is the same, op for op and clock value for clock value, at any
// thread count.
//
// One loop, two schedules. The (S,A)-run of Fig. 3 (run_s_run,
// core/s_run.h) is this loop restricted to S, and differs only where the
// paper says: the pass runs Phase 1 of round r only for S_r, the move
// group runs in the order sigma_r | S_{2,r} (the (All,A)-run's schedule
// restricted to the movers present) instead of a fresh secretive schedule,
// and the run lasts exactly as many rounds as the (All,A)-run. Claims
// A.2/A.3 are checked on each of its partitions. It runs on one thread.
//
// Threads resume bodies concurrently. With threads != 1 a body must touch no
// C++ state another process's body touches: the stateless kind every
// wakeup algorithm is and the parallel Monte-Carlo driver already requires
// (hw/mc_driver.h). Bodies that share a universal construction keep the
// default of one thread. An installed fault injector forces one thread: its
// decisions, adaptive placement and recovery bookkeeping are called from
// Phase 1 as well as from the apply step, and must keep one order. A body
// that throws makes run_adversary rethrow on the calling thread, the
// exception of the lowest such id.
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
  // Threads of the per-process pass, the caller included. 1 keeps the
  // whole run on the calling thread; 0 picks min(hardware threads,
  // n / 512), so runs of fewer than 1024 processes stay on one. Values
  // above n are clamped to n; negative ones are an error (crew_size).
  // Anything but 1 requires stateless bodies (see above); a fault
  // injector forces 1.
  int threads = 1;
};

// Runs `sys` to completion (or the round cap) under the Fig. 2 adversary
// and returns its log: full, or lean when options.record_snapshots is off.
RunLog run_adversary(System& sys, const AdversaryOptions& options = {});

}  // namespace llsc

#endif  // LLSC_CORE_ADVERSARY_H_
