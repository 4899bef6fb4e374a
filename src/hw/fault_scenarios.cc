#include "hw/fault_scenarios.h"

#include <memory>

#include "memory/value.h"
#include "objects/arith.h"
#include "objects/leader.h"
#include "objects/tas.h"
#include "universal/combining.h"
#include "universal/single_register.h"
#include "wakeup/algorithms.h"

namespace llsc {

namespace {

constexpr int kFixedRounds = 8;
constexpr int kUcScenarioOps = 2;

// Each process hammers its own register: exactly kFixedRounds swaps per
// process, no cross-process data flow, so the per-process op count is 8
// on any substrate under any schedule or fault plan (short of a crash).
// Returns 1 so the wakeup-style winner scan sees a clean sample.
SimTask fixed_swap_body(ProcCtx ctx, ProcId i, int) {
  const RegId mine = static_cast<RegId>(i);
  for (int k = 0; k < kFixedRounds; ++k) {
    (void)co_await ctx.swap(mine, Value::of_u64(static_cast<std::uint64_t>(k)));
  }
  co_return Value::of_u64(1);
}

// kFixedRounds x (LL; SC) on ONE shared register: contended, so SC
// outcomes differ between substrates and injected spurious failures bite,
// but the op count is fixed at 2 * kFixedRounds per process regardless.
SimTask fixed_ll_sc_body(ProcCtx ctx, ProcId i, int) {
  for (int k = 0; k < kFixedRounds; ++k) {
    const Value cur = co_await ctx.ll(0);
    const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
    (void)co_await ctx.sc(
        0, Value::of_u64(base + static_cast<std::uint64_t>(i) + 1));
  }
  co_return Value::of_u64(1);
}

// Universal-construction scenarios: every process runs kUcScenarioOps
// fetch&increment operations through a FIXED-shape universal construction
// (single-register's two-attempt loop, or combining with a pinned attempt
// budget + full announce scans), so the per-process op count is schedule-
// independent even though SC outcomes, batch contents, and responses are
// not. Fault tolerance: neither shape faults when injected SC loss leaves
// an operation unapplied — single-register runs with tolerate_unapplied,
// combining's fixed mode returns nil by contract.
struct UcScenarioState {
  std::unique_ptr<UniversalConstruction> uc;
};

SimTask uc_scenario_worker(ProcCtx ctx,
                           std::shared_ptr<UcScenarioState> state) {
  for (int k = 0; k < kUcScenarioOps; ++k) {
    // Hoisted: braced temporaries may not appear in co_await expressions
    // (GCC 12 workaround; see runtime/sub_task.h).
    ObjOp op{"fetch&increment", {}};
    (void)co_await state->uc->execute(ctx, std::move(op));
  }
  co_return Value::of_u64(1);
}

ProcBody uc_scenario(bool combining) {
  // One construction per run, shared by the run's n processes. Both
  // substrates instantiate the bodies for processes 0..n-1 in ascending
  // order on the driving thread before any step executes, so "i == 0"
  // marks a run boundary and rebuilding there gives every run (including
  // the record and replay legs of one differential triple) a fresh,
  // identical starting state.
  // The incarnation guard keeps a crash-recovery restart of process 0
  // from rebuilding the construction mid-run: only incarnation 0's
  // instantiation marks a run boundary (the shared object survives a
  // crash; only the dead incarnation's private frame is lost).
  auto state = std::make_shared<UcScenarioState>();
  return [state, combining](ProcCtx ctx, ProcId i, int n) {
    if (i == 0 && ctx.incarnation() == 0) {
      ObjectFactory factory = [] {
        return std::make_unique<FetchAddObject>(64, 0);
      };
      if (combining) {
        state->uc = std::make_unique<CombiningUniversal>(
            n, std::move(factory), /*base=*/0,
            CombiningOptions{.fixed_attempts = 2});
      } else {
        state->uc = std::make_unique<SingleRegisterUC>(
            n, std::move(factory), /*base=*/0, /*tolerate_unapplied=*/true);
      }
    }
    return uc_scenario_worker(ctx, state);
  };
}

}  // namespace

ProcBody fault_scenario(const std::string& name) {
  if (name == "tournament") return tournament_wakeup();
  if (name == "randomized_tournament") return randomized_tournament_wakeup();
  if (name == "counter") return counter_wakeup();
  if (name == "fixed_swap") return &fixed_swap_body;
  if (name == "fixed_ll_sc") return &fixed_ll_sc_body;
  if (name == "uc_single_register") return uc_scenario(/*combining=*/false);
  if (name == "uc_combining") return uc_scenario(/*combining=*/true);
  // Fixed-shape TAS / leader election (objects/tas.h, objects/leader.h):
  // schedule-independent op counts, nil-preserving claim SCs, winnerless
  // completed runs allowed under forced-failure plans — the differential
  // sweep's record/replay contract applies verbatim.
  if (name == "tas_fixed") return fixed_shape_tas_body();
  if (name == "leader_fixed") return fixed_shape_leader_body();
  // Strict protocols: schedule-dependent op counts but deterministic
  // safety; registered so shrunk fuzzer artifacts replay by name.
  if (name == "tas_strict") return randomized_tas_body();
  if (name == "leader_strict") return leader_election_body();
  return {};
}

std::vector<std::string> fault_scenario_names() {
  return {"tournament",  "randomized_tournament", "counter",
          "fixed_swap",  "fixed_ll_sc",           "uc_single_register",
          "uc_combining", "tas_fixed",            "leader_fixed",
          "tas_strict",   "leader_strict"};
}

}  // namespace llsc
