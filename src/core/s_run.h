// The (S,A)-run construction (paper Figure 3).
//
// Given an (All,A)-run produced by the Fig. 2 adversary, its UP tracking,
// and a set S of processes, the (S,A)-run is a run in which only processes
// of S take steps, built so that any process or register X with
// UP(X, r) ⊆ S cannot distinguish it from the (All,A)-run through round r
// (the Indistinguishability Lemma, 5.2).
//
// Round r schedules exactly S_r = { p : UP(p, r-1) ⊆ S } — the processes
// that have not witnessed anybody outside S during the first r-1 rounds.
// (Figure 3 writes UP(p, r); the appendix claims A.1/A.2 make clear the
// intended threshold is the knowledge *entering* round r, i.e. UP(p, r-1) —
// with the end-of-round-r set, a process would be denied the very round-r
// step after which it first learns of a process outside S, contradicting
// Claim A.1's assertion that its Phase-1 tosses still happen.)
// Within the round, phases mirror the adversary's, except the move group
// runs in the order sigma_r | S_{2,r} — the All-run's secretive schedule
// restricted to the movers present (Claim A.3 guarantees S_{2,r} ⊆ G_{2,r},
// and Lemma 4.2 that the restriction moves the same values).
//
// The same toss assignment A serves both runs, so the j-th toss of p gets
// the same outcome in both — the alignment Lemma 5.2 depends on.
//
// run_s_run is defined in core/adversary.cc: it is the Fig. 2 adversary's
// round loop (apply, then the per-process pass) with the S_r admission and
// the restricted sigma_r above, for exactly all_log.num_rounds() rounds,
// on one thread.
#ifndef LLSC_CORE_S_RUN_H_
#define LLSC_CORE_S_RUN_H_

#include "core/round_record.h"
#include "core/up_tracker.h"
#include "memory/proc_set.h"
#include "runtime/system.h"

namespace llsc {

// Drives `sys` — a FRESH system running the same algorithm with the same
// toss assignment as the (All,A)-run — for exactly all_log.num_rounds()
// rounds of the Fig. 3 schedule. Returns the (S,A)-run's full log.
// `all_log` must be a full log: a lean one fails "lean log: no round
// records". Claims A.2/A.3 are checked as the run is built (each scheduled
// process performs the same kind of operation as in the (All,A)-run; the
// S-run's move group is contained in the All-run's); a violation is a
// contract failure.
RunLog run_s_run(System& sys, const RunLog& all_log, const UpTracker& up,
                 const ProcSet& s);

}  // namespace llsc

#endif  // LLSC_CORE_S_RUN_H_
