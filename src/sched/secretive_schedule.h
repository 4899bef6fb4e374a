// Secretive complete schedules for move operations (paper Section 4).
//
// If every process with a pending move is scheduled naively (say, in id
// order), a chain move(R0->R1), move(R1->R2), ..., move(R_{n-1}->R_n) lets a
// later reader of R_n infer that *all* n processes took a step — far too
// much information for an indistinguishability argument. The paper shows
// (Lemma 4.1) that any set of pending moves can instead be ordered so that
// for every register R, at most TWO processes are "responsible" for the
// value that ends up in R (its movers), and (Lemma 4.2) that scheduling any
// superset of those movers alone moves the same source value into R.
//
// This file implements the paper's inductive source/movers definitions, the
// two-stage construction of Figure 1, and checkers for both lemmas (used by
// the property tests and the E6 bench).
#ifndef LLSC_SCHED_SECRETIVE_SCHEDULE_H_
#define LLSC_SCHED_SECRETIVE_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "memory/op.h"

namespace llsc {

// One pending move: process `proc` is about to perform move(src -> dst).
struct MoveOp {
  ProcId proc = -1;
  RegId src = 0;
  RegId dst = 0;

  bool operator==(const MoveOp&) const = default;
  std::string to_string() const;
};

// The paper's (S, f): the set S of processes with pending moves and the
// function f giving each one's operation. Each process appears at most once.
using MoveSet = std::vector<MoveOp>;

// source/movers of every register after applying a schedule (a sequence of
// process ids drawn from the MoveSet) — the inductive definitions of
// Section 4. Registers never moved into keep source == self, movers == λ.
class MoveAnalysis {
 public:
  // Computes the analysis of `schedule` with respect to `moves`.
  // Precondition: every id in `schedule` appears in `moves`, at most once.
  MoveAnalysis(const MoveSet& moves, const std::vector<ProcId>& schedule);

  // source(R, σ, (S,f)): which register's original value R now holds.
  RegId source(RegId r) const;
  // movers(R, σ, (S,f)): the processes responsible, in order.
  std::vector<ProcId> movers(RegId r) const;
  // All registers whose source differs from themselves or whose movers are
  // non-empty (i.e. registers some move targeted).
  std::vector<RegId> touched() const;

 private:
  struct Entry {
    RegId source;
    std::vector<ProcId> movers;
  };
  std::unordered_map<RegId, Entry> entries_;
};

// Constructs a secretive complete schedule for `moves` via the two-stage
// algorithm of Figure 1. The result contains every process of `moves`
// exactly once, and for every register the movers list has length <= 2
// (Lemma 4.1). Choices the paper leaves free are made deterministically
// (lowest-id first), so the output is reproducible.
std::vector<ProcId> secretive_complete_schedule(const MoveSet& moves);

// True iff `schedule` is complete w.r.t. `moves` (every process exactly
// once) and every register has at most two movers.
bool is_secretive_complete(const MoveSet& moves,
                           const std::vector<ProcId>& schedule);

// Lemma 4.2 check: for the given register, restricting `schedule` to
// `subset` (which must contain all of R's movers) preserves R's source.
bool restriction_preserves_source(const MoveSet& moves,
                                  const std::vector<ProcId>& schedule,
                                  const std::unordered_set<ProcId>& subset,
                                  RegId r);

// σ|A: the subsequence of `schedule` containing exactly the ids of A, which
// `ascending` lists in increasing order (as a RoundRecord group does).
std::vector<ProcId> restrict_schedule(const std::vector<ProcId>& schedule,
                                      const std::vector<ProcId>& ascending);

}  // namespace llsc

#endif  // LLSC_SCHED_SECRETIVE_SCHEDULE_H_
