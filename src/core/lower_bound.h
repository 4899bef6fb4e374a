// Theorem 6.1 / Lemma 3.1 drivers: the lower-bound experiments.
//
// analyze_wakeup_run() replays the proof of Theorem 6.1 on a concrete
// wakeup algorithm: run the Fig. 2 adversary, find the process that returns
// 1, count its shared-memory operations r, and compare with log_4 n. When
// the algorithm is "too fast" (r < log_4 n — only possible if it is
// incorrect), the driver carries the proof to its contradiction: it takes
// S = UP(winner, r) (of size <= 4^r < n by Lemma 5.1), builds the
// (S,A)-run, and witnesses the winner returning 1 in a run where processes
// outside S never took a step — a violation of the wakeup specification.
//
// estimate_expected_complexity() is the Lemma 3.1 Monte-Carlo harness for
// randomized algorithms: sample i.i.d. toss assignments, run the adversary
// under each, and average — estimating the termination probability c and
// the expected shared-access complexity, to compare against c·log_4 n.
#ifndef LLSC_CORE_LOWER_BOUND_H_
#define LLSC_CORE_LOWER_BOUND_H_

#include <cstdint>
#include <memory>
#include <string>

#include <vector>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "hw/fault.h"
#include "memory/proc_set.h"
#include "runtime/system.h"

namespace llsc {

struct WakeupLowerBoundOptions {
  // Threads picked by n (threads = 0): the wakeup bodies are stateless. A
  // BodyFactory whose bodies share state sets threads = 1.
  AdversaryOptions adversary{.threads = 0};
  // Also build the (S,A)-run and run the Lemma 5.2 checker even when the
  // bound is met (slower; used by tests).
  bool always_check_indistinguishability = false;
};

struct WakeupLowerBoundReport {
  int n = 0;
  bool terminated = false;
  int rounds = 0;

  // The 1-returner with the fewest shared-memory operations (the proof
  // applies to any 1-returner; the cheapest gives the tightest check).
  ProcId winner = -1;
  std::uint64_t winner_ops = 0;  // the proof's r
  // max over processes of shared ops — the paper's t(R).
  std::uint64_t max_ops = 0;

  double log4_n = 0.0;
  // Theorem 6.1 holds for this run iff 4^winner_ops >= n.
  bool bound_met = false;

  // Filled when the (S,A)-run was built (always, for a too-fast winner).
  bool s_run_built = false;
  // |S| for S = UP(winner, winner_ops), the Lemma 5.1 set.
  std::size_t s_size = 0;
  // The winner returned 1 in the (S,A)-run as well: when s_size < n this
  // witnesses a wakeup violation (processes outside S never took a step).
  bool s_run_winner_returned_1 = false;
  bool wakeup_violation_witnessed = false;
  IndistReport indist;

  std::string summary() const;
};

// Produces a fresh ProcBody (plus whatever state it captures) for one run.
// The analysis may execute up to three runs — the lean (All,A)-run, a
// snapshot replay of it, and the (S,A)-run — and each must start from
// pristine algorithm state, so stateful scenarios (e.g. a body capturing a
// universal construction) must come through a factory that rebuilds them.
using BodyFactory = std::function<ProcBody()>;

// Runs the full Theorem 6.1 analysis for n processes under toss assignment
// `tosses` (defaults to all-zeros, i.e. a deterministic run).
WakeupLowerBoundReport analyze_wakeup_run(
    const BodyFactory& make_algo, int n,
    std::shared_ptr<const TossAssignment> tosses = nullptr,
    const WakeupLowerBoundOptions& options = {});

// Convenience overload for STATELESS bodies (every wakeup algorithm in
// wakeup/algorithms.h): the same ProcBody is reused for every run.
WakeupLowerBoundReport analyze_wakeup_run(
    const ProcBody& algo, int n,
    std::shared_ptr<const TossAssignment> tosses = nullptr,
    const WakeupLowerBoundOptions& options = {});

struct ExpectedComplexityEstimate {
  int n = 0;
  int samples = 0;
  // Fraction of sampled assignments whose adversary run terminated — the
  // empirical termination probability c.
  double termination_rate = 0.0;
  // Terminated samples in which NO process returned 1 — the run finished
  // but nobody claimed "everyone is up", violating the wakeup spec. Such
  // samples are excluded from the winner-ops statistics below (they have
  // no winner to count) and surfaced here instead of being silently
  // folded in as winner_ops = 0, which used to drag min_winner_ops to 0
  // and flip bound_met with no trace.
  int spec_violations = 0;
  // Non-terminated samples, by cause (hw/fault.h taxonomy): at least one
  // injected crash-stop vs hitting the adversary round cap with no crash.
  // Both kinds count against termination_rate; without a fault plan
  // crashed_samples is always 0.
  int crashed_samples = 0;
  int hung_samples = 0;
  // Mean over terminating samples WITH a winner of the winner's op count;
  // mean over all terminating samples of t(R).
  double mean_winner_ops = 0.0;
  double mean_max_ops = 0.0;
  // Worst (minimum) winner op count across samples with a winner; 0 when
  // no sample produced a winner (never the ~0 accumulator sentinel).
  std::uint64_t min_winner_ops = 0;
  // The Theorem 6.1 randomized bound: c * log_4 n.
  double bound = 0.0;
  bool bound_met = false;  // min over winners >= log_4 n (vacuous if none)

  std::string summary() const;
};

// Monte-Carlo estimate over `samples` seeded toss assignments. `algo` is
// instantiated into a fresh System per sample, so it must be stateless
// across Systems (true of everything in wakeup/algorithms.h); a body
// capturing a universal construction needs a fresh construction per
// sample and cannot be passed here directly.
ExpectedComplexityEstimate estimate_expected_complexity(
    const ProcBody& algo, int n, int samples, std::uint64_t seed,
    const AdversaryOptions& adversary = {},
    const FaultPlan* fault = nullptr);

// One run reduced to the replay contract (hw/replay.h), plus the counters
// a recording carries along. It is both the Monte-Carlo sample record the
// fold below consumes and the observation every substrate leg of the
// replay contract produces.
struct Observation {
  // kClean: terminated with a 1-returner; kSpecViolation: terminated
  // without one; kCrashed / kHung: did not terminate.
  RunStatus status = RunStatus::kClean;
  std::vector<std::uint64_t> proc_ops;  // per-process t(p) at halt
  // Fewest ops of a process that returned 1; ~0 unless status is kClean.
  std::uint64_t min_winner_ops = ~std::uint64_t{0};
  // max over processes of t(p) at halt — the paper's t(R).
  std::uint64_t max_ops = 0;
  // Decisions an adaptive or capped plan placed (the plan's own trace in
  // replay mode; empty for an uncapped oblivious plan). Embedding it into
  // the run's plan makes the adaptive schedule replayable anywhere.
  DecisionTrace decision_trace;
  // Injected-fault decision counters (zero without a plan).
  FaultStats fault;
};

// One Lemma 3.1 sample: build a System over SeededTossAssignment(toss_seed),
// optionally install a fault injector (`fault` is used as-is — sweeping
// callers derive per-sample plans with derive_sample_plan), run the Fig. 2
// adversary on one thread (adversary.threads is ignored: a Monte-Carlo
// estimate runs its samples in parallel instead), and classify the
// outcome. Shared by the serial estimator and the parallel hw/mc_driver
// (both fold through McFold below) and by the simulator leg of the replay
// contract (hw/replay.h), which needs the same classification the original
// failing sample got.
Observation run_mc_sample(const ProcBody& algo, int n, std::uint64_t toss_seed,
                          const AdversaryOptions& adversary,
                          const FaultPlan* fault = nullptr);

// The Lemma 3.1 fold: add() one sample outcome at a time, then finish()
// into the estimate over every sample added. The sums are of integer-
// valued doubles far below 2^53, so they are exact and the estimate does
// not depend on the order samples are added in — the serial estimator
// streams its samples through one fold, the parallel driver folds its
// per-sample slots, and both report bit-for-bit the same estimate.
class McFold {
 public:
  explicit McFold(int n) : n_(n) {}

  void add(const Observation& sample);
  ExpectedComplexityEstimate finish() const;

 private:
  int n_;
  int samples_ = 0;
  int terminated_ = 0;
  int winner_samples_ = 0;
  int spec_violations_ = 0;
  int crashed_ = 0;
  int hung_ = 0;
  double sum_winner_ = 0.0;
  double sum_max_ = 0.0;
  std::uint64_t min_winner_ops_ = ~std::uint64_t{0};
};

}  // namespace llsc

#endif  // LLSC_CORE_LOWER_BOUND_H_
