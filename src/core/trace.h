// Human-readable rendering of adversary-structured runs.
//
// A RunLog captures everything about an (All,A)- or (S,A)-run; these
// helpers turn rounds, UP tracking, and whole logs into text for examples,
// failure messages and debugging. Rendering is deliberately stable
// (deterministic ordering) so test expectations can match substrings.
#ifndef LLSC_CORE_TRACE_H_
#define LLSC_CORE_TRACE_H_

#include <string>

#include "core/round_record.h"
#include "core/up_tracker.h"

namespace llsc {

struct TraceOptions {
  // Cap rounds rendered (0 = all).
  int max_rounds = 0;
  // Include the per-round operation list.
  bool show_ops = true;
  // Include the move group's sigma_r.
  bool show_sigma = true;
  // Include end-of-round register values (requires snapshots).
  bool show_registers = false;
  // Cap registers rendered per round.
  int max_registers = 8;
};

// One round, e.g.:
//   round 3: load={p0,p2} move={p1} swap={} sc={p3}
//     sigma: p1
//     p0: LL(R1) -> (true, 5)
//     ...
std::string render_round(const RoundRecord& rec, const TraceOptions& options = {});

// The whole run (honouring options.max_rounds). The two run renderers
// need full logs; a lean one fails "lean log: no round records".
std::string render_run(const RunLog& log, const TraceOptions& options = {});

// UP-set growth table:
//   round | max|UP| | 4^r
std::string render_up_growth(const UpTracker& tracker);

// Side-by-side round summary of two full runs (the (All,A)- and
// (S,A)-run), showing which processes stepped in each.
std::string render_run_comparison(const RunLog& all_log, const RunLog& s_log);

}  // namespace llsc

#endif  // LLSC_CORE_TRACE_H_
