#include "hw/mc_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "hw/replay.h"
#include "util/check.h"
#include "util/rng.h"

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
                        inject ? &sample_plan : nullptr);
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

  McFold fold(n);
  for (const McSampleOutcome& o : outcomes) fold.add(o);

  ParallelMcResult result;
  result.estimate = fold.finish();
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
      const std::uint64_t toss_seed = seeds[static_cast<std::size_t>(i)];
      const FaultArtifact artifact = freeze(
          options.scenario, n, toss_seed,
          inject ? derive_sample_plan(*options.fault, toss_seed) : FaultPlan{},
          adversary.max_rounds, observation_of(o), i);
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
