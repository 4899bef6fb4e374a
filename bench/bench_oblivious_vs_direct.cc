// E9 — the paper's punchline, quantified. The same object types
// implemented three ways:
//
//   oblivious over LL/SC  (GroupUpdateUC)     — Θ(log n) per op, the best
//                                               any oblivious construction
//                                               can do (Theorem 6.1);
//   type-exploiting over LL/SC (src/direct)   — O(1) for register / swap /
//                                               consensus; fetch&add stays
//                                               Θ(n) under the adversary
//                                               (only lock-free, matching
//                                               the cited impossibilities);
//   oblivious over RMW (RmwUniversalUC)       — exactly 1 op for every
//                                               type (Section 7: with RMW
//                                               the lower bound is false).
//
// Expected shape: `max_ops_per_op` = Θ(log n) / 1 / 1 / Θ(n) per the rows
// above; the lower-bound column applies only to the LL/SC rows.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/adversary.h"
#include "direct/direct.h"
#include "direct/rmw_universal.h"
#include "objects/arith.h"
#include "objects/basic.h"
#include "sched/scheduler.h"
#include "universal/group_update.h"
#include "util/check.h"
#include "util/str.h"

namespace llsc {
namespace {

SimTask one_op(ProcCtx ctx, UniversalConstruction* impl, ObjOp op) {
  const Value r = co_await impl->execute(ctx, std::move(op));
  co_return r;
}

// Runs n processes, each performing one `op` (parameterized by id) on
// `impl`, under the given scheduler; reports max shared ops.
template <typename MakeImpl, typename MakeOp>
void measure(benchmark::State& state, MakeImpl make_impl, MakeOp make_op,
             bool adversarial) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t max_ops = 0;
  for (auto _ : state) {
    auto impl = make_impl(n);
    System sys(n, [&impl, &make_op](ProcCtx ctx, ProcId i, int) {
      return one_op(ctx, impl.get(), make_op(i));
    });
    if (adversarial) {
      AdversaryOptions opts;
      opts.record_snapshots = false;
      LLSC_CHECK(run_adversary(sys, opts).all_terminated,
                 "run did not terminate");
    } else {
      RoundRobinScheduler sched;
      LLSC_CHECK(sched.run(sys, 1ull << 32).all_terminated,
                 "run did not terminate");
    }
    max_ops = sys.max_shared_ops();
  }
  state.counters["n"] = n;
  state.counters["max_ops_per_op"] = static_cast<double>(max_ops);
  state.counters["log4_n"] = log4(static_cast<double>(n));
}

ObjOp write_op(ProcId i) {
  return ObjOp{"write", Value::of_u64(static_cast<std::uint64_t>(i))};
}
ObjOp fai_op(ProcId) { return ObjOp{"fetch&increment", {}}; }
ObjOp propose_op(ProcId i) {
  return ObjOp{"propose", Value::of_u64(static_cast<std::uint64_t>(i))};
}

// --- register ---
void BM_Register_ObliviousLLSC(benchmark::State& state) {
  measure(state,
          [](int n) {
            return std::make_unique<GroupUpdateUC>(n, [] {
              return std::make_unique<RegisterObject>();
            });
          },
          write_op, /*adversarial=*/true);
}
void BM_Register_DirectLLSC(benchmark::State& state) {
  measure(state,
          [](int) { return std::make_unique<DirectRegister>(0); },
          write_op, /*adversarial=*/true);
}
void BM_Register_RmwUniversal(benchmark::State& state) {
  measure(state,
          [](int n) {
            return std::make_unique<RmwUniversalUC>(n, [] {
              return std::make_unique<RegisterObject>();
            });
          },
          write_op, /*adversarial=*/false);  // adversary rejects RMW
}

// --- consensus ---
void BM_Consensus_ObliviousLLSC(benchmark::State& state) {
  measure(state,
          [](int n) {
            return std::make_unique<GroupUpdateUC>(n, [] {
              return std::make_unique<ConsensusObject>();
            });
          },
          propose_op, /*adversarial=*/true);
}
void BM_Consensus_DirectLLSC(benchmark::State& state) {
  measure(state,
          [](int) { return std::make_unique<DirectConsensus>(0); },
          propose_op, /*adversarial=*/true);
}

// --- fetch&add ---
void BM_FetchAdd_ObliviousLLSC(benchmark::State& state) {
  measure(state,
          [](int n) {
            return std::make_unique<GroupUpdateUC>(n, [] {
              return std::make_unique<FetchAddObject>(64);
            });
          },
          fai_op, /*adversarial=*/true);
}
void BM_FetchAdd_DirectLLSC(benchmark::State& state) {
  // Type-exploiting but only lock-free: Θ(n) under the adversary.
  measure(state,
          [](int) { return std::make_unique<DirectFetchAdd>(0); },
          fai_op, /*adversarial=*/true);
}
void BM_FetchAdd_RmwUniversal(benchmark::State& state) {
  measure(state,
          [](int n) {
            return std::make_unique<RmwUniversalUC>(n, [] {
              return std::make_unique<FetchAddObject>(64);
            });
          },
          fai_op, /*adversarial=*/false);
}

}  // namespace
}  // namespace llsc

#define LLSC_E9(fn) \
  BENCHMARK(fn)->RangeMultiplier(4)->Range(4, 256)->Unit( \
      benchmark::kMillisecond)

LLSC_E9(llsc::BM_Register_ObliviousLLSC);
LLSC_E9(llsc::BM_Register_DirectLLSC);
LLSC_E9(llsc::BM_Register_RmwUniversal);
LLSC_E9(llsc::BM_Consensus_ObliviousLLSC);
LLSC_E9(llsc::BM_Consensus_DirectLLSC);
LLSC_E9(llsc::BM_FetchAdd_ObliviousLLSC);
LLSC_E9(llsc::BM_FetchAdd_DirectLLSC);
LLSC_E9(llsc::BM_FetchAdd_RmwUniversal);
