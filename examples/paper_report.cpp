// Regenerates the headline numbers of EXPERIMENTS.md in one run — the
// compact, benchmark-framework-free view of the reproduction. Slower
// sweeps live in bench/ (google-benchmark binaries with timing).
//
// Run: ./build/examples/paper_report
#include <cstdio>
#include <memory>
#include <string>

#include "core/adversary.h"
#include "core/lower_bound.h"
#include "direct/direct.h"
#include "direct/rmw_universal.h"
#include "objects/arith.h"
#include "objects/basic.h"
#include "sched/scheduler.h"
#include "universal/consensus_based.h"
#include "universal/group_update.h"
#include "universal/single_register.h"
#include "util/str.h"
#include "wakeup/algorithms.h"
#include "wakeup/reductions.h"
#include "wakeup/spec.h"

using namespace llsc;

namespace {

SimTask one_op(ProcCtx ctx, UniversalConstruction* impl, ObjOp op) {
  const Value r = co_await impl->execute(ctx, std::move(op));
  co_return r;
}

std::uint64_t winner_ops_under_adversary(const ProcBody& body, int n) {
  const WakeupLowerBoundReport report = analyze_wakeup_run(body, n);
  return report.terminated ? report.winner_ops : 0;
}

std::uint64_t uc_max_ops(UniversalConstruction& uc, int n) {
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    ObjOp op{"fetch&increment", {}};
    return one_op(ctx, &uc, std::move(op));
  });
  AdversaryOptions opts;
  opts.record_snapshots = false;
  run_adversary(sys, opts);
  return sys.max_shared_ops();
}

// The S7 verdict from a finished run's live width counters. The writes
// are installs of new values: moves copy a written value and RMWs lie
// outside the five-operation model, so neither counts.
std::string width_summary(const SharedMemory& memory) {
  const RegisterWidthStats width = memory.width_stats();
  const MemoryOpCounts& counts = memory.counts();
  const std::string writes = std::to_string(
      width.writes_inspected - counts[OpKind::kMove] - counts[OpKind::kRmw]);
  if (!width.bounded()) {
    return "UNBOUNDED (structured payload written; " + writes + " writes)";
  }
  return std::to_string(width.max_bits) + " bits (" + writes + " writes)";
}

ObjectFactory counter_factory() {
  return [] { return std::make_unique<FetchAddObject>(64, 0); };
}

}  // namespace

int main() {
  std::printf("llsc-lab paper report (Jayanti, PODC 1998)\n");
  std::printf("===========================================\n\n");

  // --- E1: Theorem 6.1 ---
  std::printf("E1  Theorem 6.1 — wakeup winner ops under the adversary\n");
  std::printf("    n      log4(n)  tournament  naive-counter\n");
  for (const int n : {4, 16, 64, 256, 1024}) {
    std::printf("    %-6d %-8.2f %-11llu %llu\n", n, log4(n),
                static_cast<unsigned long long>(
                    winner_ops_under_adversary(tournament_wakeup(), n)),
                static_cast<unsigned long long>(
                    winner_ops_under_adversary(counter_wakeup(), n)));
  }

  // --- E2: the construction spectrum ---
  std::printf("\nE2  construction spectrum — max shared ops per implemented "
              "op (fetch&increment)\n");
  std::printf("    n      log4(n)  group-update  single-register  "
              "consensus-based\n");
  for (const int n : {4, 16, 64, 256}) {
    GroupUpdateUC gu(n, counter_factory());
    SingleRegisterUC sr(n, counter_factory());
    ConsensusBasedUC cb(n, counter_factory());
    std::printf("    %-6d %-8.2f %-13llu %-16llu %llu\n", n, log4(n),
                static_cast<unsigned long long>(uc_max_ops(gu, n)),
                static_cast<unsigned long long>(uc_max_ops(sr, n)),
                static_cast<unsigned long long>(uc_max_ops(cb, n)));
  }

  // --- E3: Theorem 6.2 reductions ---
  std::printf("\nE3  Theorem 6.2 — wakeup via implemented objects "
              "(n = 64, oblivious group-update)\n");
  std::printf("    %-18s k  wakeup  winner-ops  bound (1/k)log4(n)\n",
              "object");
  const int n3 = 64;
  for (const ObjectReduction& red : all_reductions()) {
    GroupUpdateUC uc(n3, reduction_object_factory(red.name, n3));
    System sys(n3, reduction_wakeup_body(red.name, uc));
    AdversaryOptions opts;
    opts.record_snapshots = false;
    run_adversary(sys, opts);
    const WakeupCheckResult check = check_wakeup_run(sys);
    std::uint64_t winner = ~std::uint64_t{0};
    for (ProcId p = 0; p < n3; ++p) {
      const Process& proc = sys.process(p);
      if (proc.done() && proc.result().as_u64() == 1) {
        winner = std::min(winner, proc.shared_ops());
      }
    }
    std::printf("    %-18s %d  %-7s %-11llu %.2f\n", red.name.c_str(),
                red.ops_per_process, check.ok ? "OK" : "BROKEN",
                static_cast<unsigned long long>(winner),
                log4(n3) / red.ops_per_process);
  }

  // --- E9: oblivious vs exploiting vs RMW ---
  std::printf("\nE9  the punchline (n = 64) — max shared ops per op\n");
  {
    const int n = 64;
    GroupUpdateUC oblivious(n, [] {
      return std::make_unique<RegisterObject>();
    });
    DirectRegister direct(0);
    RmwUniversalUC rmw(n, [] { return std::make_unique<RegisterObject>(); });
    const auto run_writes = [n](UniversalConstruction& impl,
                                bool adversarial) {
      System sys(n, [&impl](ProcCtx ctx, ProcId i, int) {
        ObjOp op{"write", Value::of_u64(static_cast<std::uint64_t>(i))};
        return one_op(ctx, &impl, std::move(op));
      });
      if (adversarial) {
        AdversaryOptions opts;
        opts.record_snapshots = false;
        run_adversary(sys, opts);
      } else {
        RoundRobinScheduler sched;
        sched.run(sys, 1 << 24);
      }
      return sys.max_shared_ops();
    };
    std::printf("    register via oblivious group-update : %llu\n",
                static_cast<unsigned long long>(run_writes(oblivious, true)));
    std::printf("    register via direct swap/validate   : %llu\n",
                static_cast<unsigned long long>(run_writes(direct, true)));
    std::printf("    register via RMW universal          : %llu "
                "(adversary refuses RMW; round-robin)\n",
                static_cast<unsigned long long>(run_writes(rmw, false)));
    std::printf("    lower bound log4(n) for LL/SC rows  : %.2f\n", log4(n));
  }

  // --- Section 7: register widths ---
  std::printf("\nS7  register-width audit (n = 64)\n");
  {
    const int n = 64;
    System tour(n, tournament_wakeup());
    run_adversary(tour);
    std::printf("    tournament wakeup     : %s\n",
                width_summary(tour.memory()).c_str());
    GroupUpdateUC uc(n, counter_factory());
    System gu(n, [&uc](ProcCtx ctx, ProcId, int) {
      ObjOp op{"fetch&increment", {}};
      return one_op(ctx, &uc, std::move(op));
    });
    RoundRobinScheduler sched;
    sched.run(gu, 1 << 24);
    std::printf("    group-update registers: %s\n",
                width_summary(gu.memory()).c_str());
    std::printf(
        "    (the log-time WAKEUP fits O(log n)-bit registers; the\n"
        "     log-time CONSTRUCTION does not — Section 7's open gap)\n");
  }
  return 0;
}
