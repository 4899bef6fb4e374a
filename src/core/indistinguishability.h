// Empirical checker for the Indistinguishability Lemma (paper Lemma 5.2).
//
// Lemma 5.2: for every S, every process or register X, and every round r,
// if UP(X, r) ⊆ S then the (All,A)-run and the (S,A)-run are
// indistinguishable to X up to the end of round r:
//
//   processes:  state(p, r) and numtosses(p, r) agree. Our processes are
//   deterministic coroutines fed pre-committed toss outcomes, so the
//   history hash plus toss count recorded in ProcSnapshot pins the state
//   down (see combine_op_into_history in core/adversary.cc).
//
//   registers:  val(R, r) agrees, and for every p with UP(p, r) ⊆ S,
//   p ∈ Pset(R, r) agrees.
//
// The checker walks both run logs round by round and reports every (X, r)
// pair the lemma covers, with a description of any violation. It is used
// by the property tests (the lemma must hold for every algorithm and every
// S) and by the E7 bench.
#ifndef LLSC_CORE_INDISTINGUISHABILITY_H_
#define LLSC_CORE_INDISTINGUISHABILITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/round_record.h"
#include "core/up_tracker.h"
#include "memory/proc_set.h"

namespace llsc {

struct IndistReport {
  bool ok = true;
  // Human-readable description of each violation found.
  std::vector<std::string> violations;
  // Number of (process, round) / (register, round) pairs the lemma covers
  // and that were checked.
  std::uint64_t process_checks = 0;
  std::uint64_t register_checks = 0;

  std::string summary() const;
};

// Checks Lemma 5.2 over all rounds both logs share. `all_log` and `s_log`
// must be full logs: a lean one fails "lean log: no round records".
IndistReport check_indistinguishability(const RunLog& all_log,
                                        const RunLog& s_log,
                                        const UpTracker& up,
                                        const ProcSet& s);

}  // namespace llsc

#endif  // LLSC_CORE_INDISTINGUISHABILITY_H_
