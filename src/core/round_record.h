// Per-round records and snapshots of adversary-scheduled runs.
//
// The Fig. 2 adversary structures a run into rounds of five phases. The
// UP-set update rules (Section 5.3), the (S,A)-run construction (Fig. 3)
// and the indistinguishability checker (Lemma 5.2) all consume information
// about what happened in each round: the partition into operation groups,
// the secretive schedule used for the move group, every executed operation
// with its result, and end-of-round state snapshots.
#ifndef LLSC_CORE_ROUND_RECORD_H_
#define LLSC_CORE_ROUND_RECORD_H_

#include <cstdint>
#include <map>
#include <vector>

#include "memory/op.h"
#include "memory/value.h"
#include "sched/secretive_schedule.h"
#include "util/check.h"

namespace llsc {

// What one round of an adversary-scheduled run did.
struct RoundRecord {
  int round = 0;  // 1-based

  // The partition of live processes by the type of their next operation
  // (the paper's G_{1,r} .. G_{4,r}), each in id order; the order the move
  // group runs in is sigma, below.
  std::vector<ProcId> g_load;  // LL / validate
  std::vector<ProcId> g_move;
  std::vector<ProcId> g_swap;
  std::vector<ProcId> g_sc;

  // The move group's (S, f) and the schedule actually used for it
  // (sigma_r; a secretive complete schedule unless ablated).
  MoveSet move_set;
  std::vector<ProcId> sigma;

  // Every shared-memory operation executed this round, in execution order.
  std::vector<OpRecord> ops;

  // Processes that terminated during this round's Phase 1 (before taking a
  // shared-memory step this round).
  std::vector<ProcId> terminated_in_phase1;
};

// End-of-round snapshot of one process, as visible to the
// indistinguishability relation: number of coin tosses, a running hash of
// the process's personal history (ops issued, results received, toss
// outcomes consumed — for a deterministic coroutine this pins down
// state(p, r)), and termination status/result.
struct ProcSnapshot {
  std::uint64_t num_tosses = 0;
  std::uint64_t shared_ops = 0;
  std::size_t history_hash = 0;
  bool done = false;
  Value result;  // meaningful iff done
};

// End-of-round snapshot of one register: its value and Pset.
struct RegSnapshot {
  Value value;
  std::vector<ProcId> pset;  // ascending
};

// End-of-round snapshot of the whole configuration.
struct RoundSnapshot {
  std::vector<ProcSnapshot> procs;          // indexed by ProcId
  std::map<RegId, RegSnapshot> regs;        // touched registers only
};

// An adversary-structured run. A full log holds every round's record and
// end-of-round snapshot: rounds[k] and snapshots[k] describe round k+1, and
// snapshots[k] is the state at the END of that round; the initial state
// (round 0) is `initial`. A lean log (run_adversary with record_snapshots
// off) keeps only n, the round count and all_terminated: no records and no
// snapshots, so its memory does not grow with the run. Consumers of
// records or snapshots go through round() and at(), which fail on a lean
// log with the named precondition "lean log: no round records".
struct RunLog {
  int n = 0;
  int round_count = 0;
  std::vector<RoundRecord> rounds;  // empty in a lean log
  RoundSnapshot initial;
  std::vector<RoundSnapshot> snapshots;  // empty in a lean log
  bool all_terminated = false;

  int num_rounds() const { return round_count; }

  // The record of round r, 1 <= r <= num_rounds().
  const RoundRecord& round(int r) const {
    expect_records();
    LLSC_EXPECTS(r >= 1 && r <= round_count, "round out of range");
    return rounds[static_cast<std::size_t>(r - 1)];
  }

  // Snapshot at the end of round r, 0 <= r <= num_rounds() (r == 0 ->
  // initial).
  const RoundSnapshot& at(int r) const {
    expect_records();
    LLSC_EXPECTS(snapshots.size() == rounds.size() &&
                     initial.procs.size() == static_cast<std::size_t>(n),
                 "log has no snapshots");
    LLSC_EXPECTS(r >= 0 && r <= round_count, "round out of range");
    return r == 0 ? initial : snapshots[static_cast<std::size_t>(r - 1)];
  }

 private:
  void expect_records() const {
    LLSC_EXPECTS(rounds.size() == static_cast<std::size_t>(round_count),
                 "lean log: no round records");
  }
};

}  // namespace llsc

#endif  // LLSC_CORE_ROUND_RECORD_H_
