// E8 — substrate micro-benchmarks: throughput of the five shared-memory
// operations, coroutine step dispatch, and end-to-end simulated ops/sec.
// These numbers calibrate every other experiment (they are simulator
// costs, not claims about hardware LL/SC).
#include <benchmark/benchmark.h>

#include "memory/shared_memory.h"
#include "runtime/system.h"
#include "sched/scheduler.h"

namespace llsc {
namespace {

void BM_LL(benchmark::State& state) {
  SharedMemory mem;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.ll(static_cast<ProcId>(i % 16), i % 64));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LLSCPair(benchmark::State& state) {
  SharedMemory mem;
  const Value v = Value::of_u64(1);
  for (auto _ : state) {
    mem.ll(0, 3);
    benchmark::DoNotOptimize(mem.sc(0, 3, v));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_Validate(benchmark::State& state) {
  SharedMemory mem;
  mem.ll(0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.validate(0, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Swap(benchmark::State& state) {
  SharedMemory mem;
  const Value v = Value::of_u64(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.swap(0, 7, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Move(benchmark::State& state) {
  SharedMemory mem;
  mem.swap(0, 1, Value::of_u64(5));
  for (auto _ : state) {
    mem.move(0, 1, 2);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Contended Psets: n processes all linked to the same register.
void BM_ScUnderContention(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SharedMemory mem;
  const Value v = Value::of_u64(1);
  for (auto _ : state) {
    for (ProcId p = 0; p < n; ++p) mem.ll(p, 0);
    benchmark::DoNotOptimize(mem.sc(0, 0, v));  // clears an n-entry Pset
  }
  state.counters["n"] = n;
}

// End-to-end: coroutine processes doing LL/SC loops under round robin.
SimTask looper(ProcCtx ctx, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    (void)co_await ctx.ll(static_cast<RegId>(ctx.id() % 8));
    (void)co_await ctx.sc(static_cast<RegId>(ctx.id() % 8),
                          Value::of_u64(static_cast<std::uint64_t>(i)));
  }
  co_return Value::of_u64(0);
}

void BM_SimulatedSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rounds = 64;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    System sys(n, [rounds](ProcCtx ctx, ProcId, int) {
      return looper(ctx, rounds);
    });
    RoundRobinScheduler sched;
    const RunOutcome out = sched.run(sys, 1ull << 30);
    steps += out.steps_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["n"] = n;
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_LL);
BENCHMARK(llsc::BM_LLSCPair);
BENCHMARK(llsc::BM_Validate);
BENCHMARK(llsc::BM_Swap);
BENCHMARK(llsc::BM_Move);
BENCHMARK(llsc::BM_ScUnderContention)->RangeMultiplier(4)->Range(4, 1024);
BENCHMARK(llsc::BM_SimulatedSteps)->RangeMultiplier(4)->Range(1, 64);
