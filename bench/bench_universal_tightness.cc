// E2 — tightness of the lower bound. Each process performs one operation
// on a fetch&increment object implemented by every registered universal
// construction (universal.h's make_universal): the Group-Update
// construction (O(log n) with unbounded registers — the paper's upper
// bound), the classic single-register helping construction (O(n)), the
// consensus-based construction, and the flat-combining construction
// (lock-free; its reported bound is the fault-free one-outstanding-op
// figure).
//
// Expected shape: `max_ops_per_op` grows like ~8·log2(n) for Group-Update
// and like ~2n for the single-register baseline, with the crossover at
// small n (around n = 16-32); all stay above log_4 n (the lower bound).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/adversary.h"
#include "objects/arith.h"
#include "sched/scheduler.h"
#include "universal/universal.h"
#include "util/check.h"
#include "util/str.h"

namespace llsc {
namespace {

SimTask one_op(ProcCtx ctx, UniversalConstruction* uc) {
  ObjOp op{"fetch&increment", {}};
  const Value r = co_await uc->execute(ctx, std::move(op));
  co_return r;
}

void run_case(benchmark::State& state, const std::string& which,
              bool adversarial) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t max_ops = 0;
  std::uint64_t worst_case = 0;
  for (auto _ : state) {
    std::unique_ptr<UniversalConstruction> uc = make_universal(which, n, [] {
      return std::make_unique<FetchAddObject>(64, 0);
    });
    System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
      return one_op(ctx, uc.get());
    });
    if (adversarial) {
      AdversaryOptions opts;
      opts.record_snapshots = false;
      const RunLog log = run_adversary(sys, opts);
      LLSC_CHECK(log.all_terminated, "run did not terminate");
    } else {
      RoundRobinScheduler sched;
      LLSC_CHECK(sched.run(sys, 1ull << 34).all_terminated,
                 "run did not terminate");
    }
    max_ops = sys.max_shared_ops();
    worst_case = uc->worst_case_shared_ops();
    // Sanity: every op got a distinct counter value 0..n-1.
    std::uint64_t total = 0;
    for (ProcId p = 0; p < n; ++p) {
      total += sys.process(p).result().as_u64();
    }
    LLSC_CHECK(total == static_cast<std::uint64_t>(n) *
                            static_cast<std::uint64_t>(n - 1) / 2,
               "fetch&increment implementation returned wrong values");
  }
  state.counters["n"] = n;
  state.counters["max_ops_per_op"] = static_cast<double>(max_ops);
  state.counters["analytic_worst_case"] = static_cast<double>(worst_case);
  state.counters["log4_n_lower_bound"] = log4(static_cast<double>(n));
}

void BM_GroupUpdate_RoundRobin(benchmark::State& state) {
  run_case(state, "group-update", /*adversarial=*/false);
}
void BM_SingleRegister_RoundRobin(benchmark::State& state) {
  run_case(state, "single-register", /*adversarial=*/false);
}
void BM_ConsensusBased_RoundRobin(benchmark::State& state) {
  run_case(state, "consensus-based", /*adversarial=*/false);
}
void BM_Combining_RoundRobin(benchmark::State& state) {
  run_case(state, "combining", /*adversarial=*/false);
}
void BM_GroupUpdate_Adversary(benchmark::State& state) {
  run_case(state, "group-update", /*adversarial=*/true);
}
void BM_SingleRegister_Adversary(benchmark::State& state) {
  run_case(state, "single-register", /*adversarial=*/true);
}
void BM_ConsensusBased_Adversary(benchmark::State& state) {
  run_case(state, "consensus-based", /*adversarial=*/true);
}
void BM_Combining_Adversary(benchmark::State& state) {
  run_case(state, "combining", /*adversarial=*/true);
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_GroupUpdate_RoundRobin)
    ->RangeMultiplier(2)
    ->Range(2, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_SingleRegister_RoundRobin)
    ->RangeMultiplier(2)
    ->Range(2, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_ConsensusBased_RoundRobin)
    ->RangeMultiplier(2)
    ->Range(2, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_Combining_RoundRobin)
    ->RangeMultiplier(2)
    ->Range(2, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_GroupUpdate_Adversary)
    ->RangeMultiplier(4)
    ->Range(2, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_SingleRegister_Adversary)
    ->RangeMultiplier(4)
    ->Range(2, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_ConsensusBased_Adversary)
    ->RangeMultiplier(4)
    ->Range(2, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_Combining_Adversary)
    ->RangeMultiplier(4)
    ->Range(2, 256)
    ->Unit(benchmark::kMillisecond);
