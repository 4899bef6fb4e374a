#include "hw/mc_driver.h"

#include <chrono>
#include <filesystem>
#include <fstream>

#include "hw/replay.h"
#include "util/check.h"
#include "util/crew.h"
#include "util/rng.h"

namespace llsc {

ParallelMcResult estimate_expected_complexity_parallel(
    const ProcBody& algo, int n, int samples, std::uint64_t seed,
    const McRunOptions& options) {
  using Clock = std::chrono::steady_clock;
  LLSC_EXPECTS(samples >= 1, "need at least one sample");
  const AdversaryOptions& adversary = options.adversary;
  const bool inject = options.fault != nullptr && options.fault->enabled();
  const int num_workers = crew_size(options.num_workers, samples, 1);

  // Sample seeds in serial draw order — the whole reproducibility story.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(samples));
  Rng rng(seed);
  for (auto& s : seeds) s = rng.next_u64();

  std::vector<Observation> outcomes(static_cast<std::size_t>(samples));
  std::vector<McShardStats> shards(static_cast<std::size_t>(num_workers));
  std::vector<Clock::time_point> first_start(shards.size());
  for (int w = 0; w < num_workers; ++w) {
    shards[static_cast<std::size_t>(w)].worker = w;
  }

  const Clock::time_point t0 = Clock::now();
  {
    Crew crew(num_workers, samples, [&](int w, int i) {
      McShardStats& stats = shards[static_cast<std::size_t>(w)];
      Clock::time_point& start = first_start[static_cast<std::size_t>(w)];
      if (stats.samples_run == 0) start = Clock::now();
      const std::uint64_t toss_seed = seeds[static_cast<std::size_t>(i)];
      // Per-sample plan derivation mirrors the serial estimator exactly —
      // a pure function of (base plan, toss seed), independent of which
      // worker runs the sample.
      FaultPlan sample_plan;
      if (inject) sample_plan = derive_sample_plan(*options.fault, toss_seed);
      outcomes[static_cast<std::size_t>(i)] =
          run_mc_sample(algo, n, toss_seed, adversary,
                        inject ? &sample_plan : nullptr);
      ++stats.samples_run;
      stats.wall_seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
    });
    crew.run();
  }

  McFold fold(n);
  for (const Observation& o : outcomes) fold.add(o);

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
      const Observation& o = outcomes[static_cast<std::size_t>(i)];
      if (o.status == RunStatus::kClean) continue;
      const std::uint64_t toss_seed = seeds[static_cast<std::size_t>(i)];
      const FaultArtifact artifact = freeze(
          options.scenario, n, toss_seed,
          inject ? derive_sample_plan(*options.fault, toss_seed) : FaultPlan{},
          adversary.max_rounds, o, i);
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
