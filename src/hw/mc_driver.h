// Parallel Monte-Carlo driver for the Lemma 3.1 estimator.
//
// estimate_expected_complexity (core/lower_bound.h) runs its samples
// serially; the samples are embarrassingly parallel — each builds its own
// System over its own SeededTossAssignment. This driver shards E4-style
// sample sets across worker threads and folds the per-sample outcomes
// into the SAME ExpectedComplexityEstimate, bit-for-bit:
//
//   * the per-sample seeds are drawn from Rng(seed) in serial order up
//     front, so sample i sees the identical toss assignment it would see
//     in the serial driver;
//   * each worker claims sample indices from a shared atomic cursor and
//     writes its outcome (terminated, winner_ops, max_ops — all integers)
//     into a per-sample slot;
//   * the slots go through the McFold (core/lower_bound.h) the serial
//     estimator streams its samples through. Its sums are of integer-
//     valued doubles far below 2^53, so they are exact and equal the
//     serial sums exactly, not just approximately.
//
// A ProcBody passed here is invoked concurrently from several workers (one
// System per sample, but body(ctx, i, n) itself runs on many threads), so
// it must be stateless or internally synchronized — true of everything in
// wakeup/algorithms.h, and asserted in tests/hw_mc_test.cc.
#ifndef LLSC_HW_MC_DRIVER_H_
#define LLSC_HW_MC_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/lower_bound.h"
#include "hw/fault.h"

namespace llsc {

struct McShardStats {
  int worker = 0;
  int samples_run = 0;
  double wall_seconds = 0.0;
};

struct McRunOptions {
  // <= 0 picks std::thread::hardware_concurrency() (capped by the sample
  // count); 1 degenerates to the serial driver on this thread.
  int num_workers = 0;
  AdversaryOptions adversary;
  // Kept because perfbench/ sets it; nothing reads it.
  StoragePolicy storage = default_storage_policy();
  // Kept because perfbench/ sets it; nothing reads it.
  ReclaimPolicy reclaimer = default_reclaim_policy();
  // Fault plan for the sweep (hw/fault.h); per-sample schedules are
  // derived from it with derive_sample_plan(plan, toss_seed) — exactly as
  // the serial estimator does, so parity is preserved under injection.
  // Caller keeps it alive for the call. nullptr disables injection.
  const FaultPlan* fault = nullptr;
  // When non-empty, every failing sample (crashed / hung / spec-violation)
  // is frozen (hw/replay.h) to a FaultArtifact JSON here
  // (fault_sample_<i>.json, capped at kMaxArtifacts per call) for
  // `fault_replay --replay DIR`.
  std::string artifact_dir;
  // Scenario name recorded in artifacts; must name a registered scenario
  // (hw/fault_scenarios.h) for `fault_replay` to rebuild the body.
  std::string scenario = "custom";

  static constexpr int kMaxArtifacts = 32;
};

struct ParallelMcResult {
  // Identical (bitwise, field by field) to what the serial
  // estimate_expected_complexity returns for the same inputs — fault plan
  // included.
  ExpectedComplexityEstimate estimate;
  int num_workers = 0;
  double wall_seconds = 0.0;
  std::vector<McShardStats> shards;
  // Paths of the artifacts written for failing samples (empty unless
  // options.artifact_dir was set and some sample failed).
  std::vector<std::string> artifacts;
};

ParallelMcResult estimate_expected_complexity_parallel(
    const ProcBody& algo, int n, int samples, std::uint64_t seed,
    const McRunOptions& options);

// Back-compat signature (pre-fault-injection callers).
ParallelMcResult estimate_expected_complexity_parallel(
    const ProcBody& algo, int n, int samples, std::uint64_t seed,
    int num_workers = 0, const AdversaryOptions& adversary = {});

}  // namespace llsc

#endif  // LLSC_HW_MC_DRIVER_H_
