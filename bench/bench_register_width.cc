// S7 — the Section 7 register-size discussion, measured. For each
// algorithm/construction, read the widest value ever written to a
// register during a complete run from the substrate's live width counters
// (SharedMemory::width_stats).
//
// Expected shape: the count-based wakeups (tournament, counters) fit in
// ceil(log2 n)+1 bits — they live inside the "practical" register regime
// Section 7 contemplates — while every oblivious construction writes
// structured payloads (announce sets, object snapshots, log cells):
// `bounded = 0`, the "impractical assumption on the size of registers"
// the paper flags in its tight upper bound. `writes` counts the installs
// of new values (successful SCs and swaps): the counters also see moves,
// which copy a value already written, and RMWs, which lie outside the
// paper's five operations, so both are subtracted.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/adversary.h"
#include "objects/arith.h"
#include "sched/scheduler.h"
#include "universal/consensus_based.h"
#include "universal/group_update.h"
#include "universal/single_register.h"
#include "util/check.h"
#include "util/str.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

void report(benchmark::State& state, const RegisterWidthStats& width,
            const MemoryOpCounts& counts, int n) {
  state.counters["n"] = n;
  state.counters["bounded"] = width.bounded() ? 1 : 0;
  state.counters["max_bits"] =
      width.bounded() ? static_cast<double>(width.max_bits) : -1.0;
  state.counters["log2n_plus_1"] =
      static_cast<double>(ceil_log2(static_cast<std::size_t>(n)) + 1);
  state.counters["writes"] = static_cast<double>(
      width.writes_inspected - counts[OpKind::kMove] - counts[OpKind::kRmw]);
}

void audit_wakeup(benchmark::State& state, const ProcBody& body,
                  bool expect_bounded) {
  const int n = static_cast<int>(state.range(0));
  RegisterWidthStats width;
  MemoryOpCounts counts;
  for (auto _ : state) {
    System sys(n, body);
    const RunLog log = run_adversary(sys);
    LLSC_CHECK(log.all_terminated, "run did not terminate");
    width = sys.memory().width_stats();
    counts = sys.memory().counts();
  }
  LLSC_CHECK(width.bounded() == expect_bounded,
             "register-width verdict differs from the documented shape");
  report(state, width, counts, n);
}

void BM_S7_TournamentWakeup(benchmark::State& state) {
  audit_wakeup(state, tournament_wakeup(), /*expect_bounded=*/true);
}
void BM_S7_NaiveCounterWakeup(benchmark::State& state) {
  audit_wakeup(state, counter_wakeup(), /*expect_bounded=*/true);
}
void BM_S7_SwapMixWakeup(benchmark::State& state) {
  // Stores subtree up-SETS: structured payloads, unbounded.
  audit_wakeup(state, swap_mix_wakeup(), /*expect_bounded=*/false);
}

SimTask one_fai(ProcCtx ctx, UniversalConstruction* uc) {
  ObjOp op{"fetch&increment", {}};
  const Value r = co_await uc->execute(ctx, std::move(op));
  co_return r;
}

void audit_construction(benchmark::State& state,
                        const std::function<std::unique_ptr<
                            UniversalConstruction>(int)>& make) {
  const int n = static_cast<int>(state.range(0));
  RegisterWidthStats width;
  MemoryOpCounts counts;
  for (auto _ : state) {
    auto uc = make(n);
    System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
      return one_fai(ctx, uc.get());
    });
    RoundRobinScheduler sched;
    LLSC_CHECK(sched.run(sys, 1ull << 30).all_terminated,
               "run did not terminate");
    width = sys.memory().width_stats();
    counts = sys.memory().counts();
  }
  LLSC_CHECK(!width.bounded(),
             "oblivious constructions must need unbounded registers");
  report(state, width, counts, n);
}

void BM_S7_GroupUpdate(benchmark::State& state) {
  audit_construction(state, [](int n) {
    return std::make_unique<GroupUpdateUC>(
        n, [] { return std::make_unique<FetchAddObject>(64); });
  });
}
void BM_S7_SingleRegister(benchmark::State& state) {
  audit_construction(state, [](int n) {
    return std::make_unique<SingleRegisterUC>(
        n, [] { return std::make_unique<FetchAddObject>(64); });
  });
}
void BM_S7_ConsensusBased(benchmark::State& state) {
  audit_construction(state, [](int n) {
    return std::make_unique<ConsensusBasedUC>(
        n, [] { return std::make_unique<FetchAddObject>(64); });
  });
}

}  // namespace
}  // namespace llsc

#define LLSC_S7(fn) \
  BENCHMARK(fn)->RangeMultiplier(4)->Range(4, 256)->Unit( \
      benchmark::kMillisecond)

LLSC_S7(llsc::BM_S7_TournamentWakeup);
LLSC_S7(llsc::BM_S7_NaiveCounterWakeup);
LLSC_S7(llsc::BM_S7_SwapMixWakeup);
LLSC_S7(llsc::BM_S7_GroupUpdate);
LLSC_S7(llsc::BM_S7_SingleRegister);
LLSC_S7(llsc::BM_S7_ConsensusBased);
