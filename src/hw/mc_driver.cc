#include "hw/mc_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"

namespace llsc {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ParallelMcResult estimate_expected_complexity_parallel(
    const ProcBody& algo, int n, int samples, std::uint64_t seed,
    int num_workers, const AdversaryOptions& adversary) {
  McRunOptions options;
  options.num_workers = num_workers;
  options.adversary = adversary;
  return estimate_expected_complexity_parallel(algo, n, samples, seed,
                                               options);
}

ParallelMcResult estimate_expected_complexity_parallel(
    const ProcBody& algo, int n, int samples, std::uint64_t seed,
    const McRunOptions& options) {
  LLSC_EXPECTS(samples >= 1, "need at least one sample");
  const AdversaryOptions& adversary = options.adversary;
  const bool inject = options.fault != nullptr && options.fault->enabled();
  int num_workers = options.num_workers;
  if (num_workers <= 0) {
    num_workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  num_workers = std::min(num_workers, samples);

  // Sample seeds in serial draw order — the whole reproducibility story.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(samples));
  Rng rng(seed);
  for (auto& s : seeds) s = rng.next_u64();

  std::vector<McSampleOutcome> outcomes(static_cast<std::size_t>(samples));
  std::atomic<int> cursor{0};
  std::vector<McShardStats> shards(static_cast<std::size_t>(num_workers));
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_workers));

  const auto worker_loop = [&](int w) {
    const Clock::time_point w0 = Clock::now();
    McShardStats& stats = shards[static_cast<std::size_t>(w)];
    stats.worker = w;
    for (;;) {
      const int i = cursor.fetch_add(1);
      if (i >= samples) break;
      const std::uint64_t toss_seed = seeds[static_cast<std::size_t>(i)];
      // Per-sample plan derivation mirrors the serial estimator exactly —
      // a pure function of (base plan, toss seed), independent of which
      // worker claims the sample.
      FaultPlan sample_plan;
      if (inject) sample_plan = derive_sample_plan(*options.fault, toss_seed);
      outcomes[static_cast<std::size_t>(i)] =
          run_mc_sample(algo, n, toss_seed, adversary,
                        inject ? &sample_plan : nullptr, options.storage);
      ++stats.samples_run;
    }
    stats.wall_seconds =
        std::chrono::duration<double>(Clock::now() - w0).count();
  };

  const Clock::time_point t0 = Clock::now();
  if (num_workers == 1) {
    worker_loop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          worker_loop(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Index-order fold — arithmetic identical to the serial driver's loop.
  ExpectedComplexityEstimate est;
  est.n = n;
  est.samples = samples;
  est.min_winner_ops = ~std::uint64_t{0};
  int terminated = 0;
  int winner_samples = 0;
  double sum_winner = 0.0;
  double sum_max = 0.0;
  for (const McSampleOutcome& o : outcomes) {
    if (!o.terminated) {
      if (o.status == RunStatus::kCrashed) {
        ++est.crashed_samples;
      } else {
        ++est.hung_samples;
      }
      continue;
    }
    ++terminated;
    sum_max += static_cast<double>(o.max_ops);
    if (!o.has_winner) {
      ++est.spec_violations;
      continue;
    }
    ++winner_samples;
    sum_winner += static_cast<double>(o.winner_ops);
    est.min_winner_ops = std::min(est.min_winner_ops, o.winner_ops);
  }
  est.termination_rate =
      static_cast<double>(terminated) / static_cast<double>(samples);
  if (winner_samples > 0) est.mean_winner_ops = sum_winner / winner_samples;
  if (terminated > 0) est.mean_max_ops = sum_max / terminated;
  est.bound = est.termination_rate * log4(static_cast<double>(n));
  est.bound_met =
      winner_samples == 0 ||
      static_cast<double>(est.min_winner_ops) + 1e-9 >=
          log4(static_cast<double>(n));
  // The ~0 sentinel must not leak into printed/JSON rows when no sample
  // produced a winner.
  if (est.min_winner_ops == ~std::uint64_t{0}) est.min_winner_ops = 0;

  ParallelMcResult result;
  result.estimate = est;
  result.num_workers = num_workers;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  result.shards = std::move(shards);

  // Freeze every failing sample (up to the cap) to a replayable artifact:
  // seed + effective plan + observed taxonomy and per-process op counts.
  if (!options.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.artifact_dir, ec);
    for (int i = 0;
         i < samples &&
         static_cast<int>(result.artifacts.size()) < McRunOptions::kMaxArtifacts;
         ++i) {
      const McSampleOutcome& o = outcomes[static_cast<std::size_t>(i)];
      if (o.status == RunStatus::kClean) continue;
      FaultArtifact artifact;
      artifact.scenario = options.scenario;
      artifact.n = n;
      artifact.sample_index = i;
      artifact.toss_seed = seeds[static_cast<std::size_t>(i)];
      artifact.max_rounds = adversary.max_rounds;
      artifact.status = o.status;
      artifact.proc_ops = o.proc_ops;
      artifact.storage = o.width.policy;
      artifact.overflow_events = o.width.overflow_events;
      artifact.max_bits = o.width.max_bits;
      artifact.boxed_fallback_registers = o.width.boxed_fallback_registers;
      if (inject) {
        artifact.plan = derive_sample_plan(*options.fault,
                                           artifact.toss_seed);
        // Adversarial samples embed their recorded decisions, turning the
        // online schedule into a pure, substrate-independent replay.
        artifact.plan.trace = o.decision_trace;
      }
      const std::string path =
          options.artifact_dir + "/fault_sample_" + std::to_string(i) +
          ".json";
      std::ofstream file(path);
      if (!file) continue;
      file << artifact.to_json();
      if (file.good()) result.artifacts.push_back(path);
    }
  }
  return result;
}

}  // namespace llsc
