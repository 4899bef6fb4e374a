// E5 — Lemma 5.1 and its ablation. Under the Fig. 2 adversary with
// SECRETIVE move scheduling, |UP(X,r)| <= 4^r; with the ablated (id-order)
// move schedule, a single round of a move chain can already inflate a
// register's UP set to Θ(n).
//
// Expected shape: `max_up_round1..3` <= 4, 16, 64 with secretive moves on;
// the ablated move-chain workload shows `max_up_round1` ≈ n (the Section 4
// machinery is what keeps information from leaking through moves).
#include <benchmark/benchmark.h>

#include "core/adversary.h"
#include "core/up_tracker.h"
#include "runtime/toss.h"
#include "util/check.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

// A move chain: process p performs move(R_p -> R_{p+1}) after staging a
// mark, then reads the end of the chain — the Section 4 motivating
// workload, maximally hostile to naive move scheduling.
SimTask chain_body(ProcCtx ctx, ProcId i, int n) {
  const RegId base = 1000;
  co_await ctx.swap(base + static_cast<RegId>(i), Value::of_u64(1));
  co_await ctx.move(base + static_cast<RegId>(i),
                    base + static_cast<RegId>(i) + 1);
  const Value v = co_await ctx.read(base + static_cast<RegId>(n));
  co_return Value::of_u64(v.is_nil() ? 0 : 1);
}

ProcBody chain() {
  return [](ProcCtx ctx, ProcId i, int n) { return chain_body(ctx, i, n); };
}

void run_case(benchmark::State& state, const ProcBody& body, bool secretive,
              bool check_lemma) {
  const int n = static_cast<int>(state.range(0));
  UpTracker tracker(n);
  int rounds = 0;
  for (auto _ : state) {
    const auto tosses = std::make_shared<SeededTossAssignment>(7);
    System sys(n, body, tosses);
    AdversaryOptions opts;
    opts.secretive_moves = secretive;
    const RunLog log = run_adversary(sys, opts);
    LLSC_CHECK(log.all_terminated, "run did not terminate");
    tracker = UpTracker::over(log);
    rounds = tracker.num_rounds();
  }
  if (check_lemma) {
    LLSC_CHECK(tracker.lemma51_holds(), "Lemma 5.1 violated");
  }
  state.counters["n"] = n;
  state.counters["rounds"] = rounds;
  for (int r = 1; r <= std::min(4, rounds); ++r) {
    state.counters["max_up_round" + std::to_string(r)] =
        static_cast<double>(tracker.max_up_size(r));
    state.counters["bound_round" + std::to_string(r)] =
        static_cast<double>(UpTracker::lemma51_bound(r));
  }
  state.counters["lemma51_holds"] = tracker.lemma51_holds() ? 1 : 0;
}

void BM_SwapMix_Secretive(benchmark::State& state) {
  run_case(state, swap_mix_wakeup(), /*secretive=*/true, /*check=*/true);
}
void BM_MoveChain_Secretive(benchmark::State& state) {
  run_case(state, chain(), /*secretive=*/true, /*check=*/true);
}
void BM_MoveChain_AblatedIdOrder(benchmark::State& state) {
  // Ablation: no Lemma 5.1 guarantee — the counters show the blow-up.
  run_case(state, chain(), /*secretive=*/false, /*check=*/false);
}
void BM_RandomMix_Secretive(benchmark::State& state) {
  run_case(state, random_mix_body(10, 8), /*secretive=*/true, /*check=*/true);
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_SwapMix_Secretive)
    ->RangeMultiplier(2)
    ->Range(4, 512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_MoveChain_Secretive)
    ->RangeMultiplier(2)
    ->Range(4, 512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_MoveChain_AblatedIdOrder)
    ->RangeMultiplier(2)
    ->Range(4, 512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_RandomMix_Secretive)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Unit(benchmark::kMillisecond);
