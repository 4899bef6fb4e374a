// The `hammer` workload: a closed loop of 4 processes on HwExecutor (one OS
// thread each, so no scheduler and no construction), each running a seeded
// mix of the paper's operations over a small register set:
//
//   reads  — LL, VL;
//   writes — LL;SC increments (retried until the SC lands), fetch&add RMW
//            increments, and swaps of unique values.
//
// Counter registers [0, kCounterRegs) take the increments; register 0 is hot
// (40% of all counter picks). Swap registers [kCounterRegs, kCounterRegs +
// kSwapRegs) take the swaps. Storage is boxed with epoch reclamation.
//
// Checks, per repetition: each counter's final value equals the increments
// the bodies counted, and each swap register conserves values (the hashes
// swapped in plus nil equal the hashes swapped out plus the final value).
// On HwExecutor the memory is internal, so the last process to finish reads
// the final values.
//
// Traced, the same plans are also issued straight against HwMemory from 4
// threads: untimed, for the executor's overhead per op, and with every call
// timed by kind. Those passes read the final values with peek_value after
// join.
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hw/hw_executor.h"
#include "hw/hw_memory.h"
#include "memory/rmw.h"
#include "report.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kProcs = 4;
constexpr int kCounterRegs = 8;
constexpr int kSwapRegs = 4;
constexpr int kDataRegs = kCounterRegs + kSwapRegs;
constexpr llsc::RegId kDoneReg = kDataRegs;
constexpr std::size_t kNumRegisters = 16;
// Operations per process per repetition.
constexpr int kOpsPerProc = 100'000;
// Executor runs time every kSampleEvery-th op (a clock read costs about as
// much as an LL).
constexpr std::size_t kSampleEvery = 16;
// Traced: share of the budget for the executor pass; the direct-HwMemory
// pass gets the same.
constexpr double kTracedPassShare = 0.45;

enum Phase : std::uint64_t { kSetup = 0, kMain = 1, kDirect = 2 };

enum class Kind : std::uint8_t { kLL, kVL, kScInc, kRmwAdd, kSwap };
constexpr int kNumKinds = 5;
constexpr const char* kKindNames[kNumKinds] = {"ll", "validate", "sc", "rmw",
                                               "swap"};

struct Step {
  Kind kind;
  std::uint8_t reg;
};

// The seeded op mix of process p, in shares of plan steps:
//   5% LL, 39% VL, 23% LL;SC increment, 10% swap — the shares of each kind
//   in CombiningUniversal fetch&increment at n = 4 on the simulator, an
//   LL;SC pair counted as one step (WORKLOADS.md gives the measurement);
//   23% fetch&add RMW — no construction on that path issues RMW, so the
//   benchmark adds it at the LL;SC increment's share: both ways to
//   increment a register carry the same load.
// Register 0 takes 40% of counter picks, so ~36% of all steps: the share of
// the combined-state register in the same measurement.
std::vector<Step> make_plan(std::uint64_t seed, int p, int ops) {
  llsc::Rng rng(llsc::mix64(seed ^ (static_cast<std::uint64_t>(p + 1) << 40)));
  std::vector<Step> plan;
  plan.reserve(static_cast<std::size_t>(ops));
  for (int k = 0; k < ops; ++k) {
    const std::uint64_t roll = rng.next_below(100);
    const Kind kind = roll < 5    ? Kind::kLL
                      : roll < 44 ? Kind::kVL
                      : roll < 67 ? Kind::kScInc
                      : roll < 90 ? Kind::kRmwAdd
                                  : Kind::kSwap;
    std::uint64_t reg = 0;
    if (kind == Kind::kSwap) {
      reg = kCounterRegs + rng.next_below(kSwapRegs);
    } else if (rng.next_below(100) >= 40) {
      reg = 1 + rng.next_below(kCounterRegs - 1);
    }
    plan.push_back(Step{kind, static_cast<std::uint8_t>(reg)});
  }
  return plan;
}

// Unique per (process, op index); never 0, so nil stays distinguishable.
std::uint64_t swap_value(int p, std::size_t k) {
  return (static_cast<std::uint64_t>(p + 1) << 32) | (k + 1);
}

std::uint64_t value_hash(const llsc::Value& v) {
  return v.holds_u64() ? llsc::mix64(v.as_u64()) : 0;
}

// Per-process tallies, written only by the owning process.
struct Tally {
  std::array<std::uint64_t, kCounterRegs> increments{};
  std::array<std::uint64_t, kSwapRegs> swapped_in{};   // hash sums
  std::array<std::uint64_t, kSwapRegs> swapped_out{};  // hash sums
  std::uint64_t sc_attempts = 0;
  std::uint64_t sc_successes = 0;
  llsc::LatencyHistogram op_ns;  // sampled whole-op times
  std::array<llsc::LatencyHistogram, kNumKinds> kind_ns;  // direct pass

  void note_swap(std::uint8_t reg, std::uint64_t in, const llsc::Value& out) {
    swapped_in[reg - kCounterRegs] += llsc::mix64(in);
    swapped_out[reg - kCounterRegs] += value_hash(out);
  }
};

struct Proc {
  std::vector<Step> plan;
  Tally tally;
};

struct Shared {
  std::shared_ptr<const llsc::RmwFunction> add1 =
      llsc::make_rmw("fetch&add1", [](const llsc::Value& v) {
        return llsc::Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
      });
  // Final register values, written by the last process to finish.
  std::array<llsc::Value, kDataRegs> finals;
  bool have_finals = false;
};

// One process on HwExecutor. A free function taking pointers, with co_await
// only in loop and branch bodies (see runtime/sim_task.h on GCC 12).
llsc::SimTask hammer_client(llsc::ProcCtx ctx, Shared* shared, Proc* me) {
  const int p = ctx.id();
  for (std::size_t k = 0; k < me->plan.size(); ++k) {
    const Step step = me->plan[k];
    const bool timed = k % kSampleEvery == 0;
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    if (step.kind == Kind::kLL) {
      (void)co_await ctx.ll(step.reg);
    } else if (step.kind == Kind::kVL) {
      (void)co_await ctx.validate(step.reg);
    } else if (step.kind == Kind::kScInc) {
      for (;;) {
        const llsc::Value cur = co_await ctx.ll(step.reg);
        const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
        ++me->tally.sc_attempts;
        const llsc::ScResult sc =
            co_await ctx.sc(step.reg, llsc::Value::of_u64(base + 1));
        if (sc.ok) break;
      }
      ++me->tally.sc_successes;
      ++me->tally.increments[step.reg];
    } else if (step.kind == Kind::kRmwAdd) {
      (void)co_await ctx.rmw(step.reg, shared->add1);
      ++me->tally.increments[step.reg];
    } else {
      const std::uint64_t v = swap_value(p, k);
      const llsc::Value old = co_await ctx.swap(step.reg, llsc::Value::of_u64(v));
      me->tally.note_swap(step.reg, v, old);
    }
    if (timed) me->tally.op_ns.record(ns_between(t0, Clock::now()));
  }
  // Every process bumps the done counter after its last op; the one that
  // sees all others done reads the final values.
  const llsc::Value done = co_await ctx.rmw(kDoneReg, shared->add1);
  if ((done.is_nil() ? 0 : done.as_u64()) == kProcs - 1) {
    for (llsc::RegId r = 0; r < static_cast<llsc::RegId>(kDataRegs); ++r) {
      const llsc::Value v = co_await ctx.read(r);
      shared->finals[r] = v;
    }
    shared->have_finals = true;
  }
  co_return llsc::Value::of_u64(0);
}

std::vector<Proc> make_procs(std::uint64_t seed, int ops) {
  std::vector<Proc> procs(kProcs);
  for (int p = 0; p < kProcs; ++p) {
    procs[static_cast<std::size_t>(p)].plan = make_plan(seed, p, ops);
  }
  return procs;
}

// The output checks of one repetition against `finals`.
void check_finals(Report& report, const std::vector<Proc>& procs,
                  const std::array<llsc::Value, kDataRegs>& finals,
                  bool have_finals) {
  std::uint64_t ops = 0;
  for (const Proc& proc : procs) ops += proc.plan.size();
  report.add_attempted(ops);
  report.expect_true("hammer.final_values_read", have_finals,
                     "the last finisher to read the final values");
  for (int r = 0; r < kCounterRegs; ++r) {
    std::uint64_t counted = 0;
    for (const Proc& proc : procs) counted += proc.tally.increments[r];
    const llsc::Value& v = finals[static_cast<std::size_t>(r)];
    const std::uint64_t actual = v.holds_u64() ? v.as_u64() : 0;
    if (!report.expect_eq("hammer.counter_equals_increments", counted,
                          actual)) {
      report.add_failed(counted > actual ? counted - actual : actual - counted);
    }
  }
  for (int s = 0; s < kSwapRegs; ++s) {
    std::uint64_t in = 0, out = 0;
    for (const Proc& proc : procs) {
      in += proc.tally.swapped_in[s];
      out += proc.tally.swapped_out[s];
    }
    out += value_hash(finals[static_cast<std::size_t>(kCounterRegs + s)]);
    if (!report.expect_eq("hammer.swap_values_conserved", in, out)) {
      report.add_failed(1);
    }
  }
}

llsc::HwRunOptions executor_options(std::uint64_t seed) {
  llsc::HwRunOptions o;
  o.seed = seed;
  o.num_registers = kNumRegisters;
  o.backoff = pinned_backoff();
  o.storage = kStorage;
  o.reclaimer = kReclaimer;
  o.timeout_ms = 0;  // no watchdog deadline, whatever LLSC_TIMEOUT_MS says
  o.progress_timeout_ms = 0;
  return o;
}

struct ExecutorRep {
  llsc::HwRunResult run;
  std::vector<Proc> procs;
};

ExecutorRep run_executor_rep(Report& report, std::uint64_t seed, int ops) {
  ExecutorRep rep;
  rep.procs = make_procs(seed, ops);
  Shared shared;
  llsc::HwExecutor exec(executor_options(seed));
  rep.run = exec.run(kProcs, [&](llsc::ProcCtx ctx, llsc::ProcId i, int) {
    return hammer_client(ctx, &shared, &rep.procs[static_cast<std::size_t>(i)]);
  });
  report.expect_true("hammer.run_ok", rep.run.ok, "a clean run");
  check_finals(report, rep.procs, shared.finals, shared.have_finals);
  return rep;
}

// What the executor repetitions measured.
struct ExecutorTotals {
  std::vector<double> setup_s;  // zero-op repetitions, one before each rep
  std::vector<double> ops_per_s;
  std::vector<double> ns_per_op;  // wall time / ops of one process
  llsc::LatencyHistogram op_ns;
  MemoryTotals memory;
  std::uint64_t ops = 0;
};

ExecutorTotals run_executor_reps(Report& report, double budget_s) {
  const std::uint64_t seed = report.config().seed;
  ExecutorTotals t;
  repeat_for(budget_s, 3, [&](int i) {
    sample_setup(report, "hammer.setup", t.setup_s, [&] {
      (void)run_executor_rep(report, rep_seed(seed, kSetup, i), 0);
    });
    const Clock::time_point t0 = Clock::now();
    const ExecutorRep rep =
        run_executor_rep(report, rep_seed(seed, kMain, i), kOpsPerProc);
    report.spans().add("hammer.executor_rep", t0, Clock::now());
    const double ops = static_cast<double>(kProcs) * kOpsPerProc;
    t.ops_per_s.push_back(ops / rep.run.wall_seconds);
    t.ns_per_op.push_back(rep.run.wall_seconds * 1e9 / kOpsPerProc);
    for (const Proc& proc : rep.procs) t.op_ns.merge(proc.tally.op_ns);
    t.memory.add(rep.run);
    t.ops += static_cast<std::uint64_t>(ops);
  });
  return t;
}

void report_end_to_end(Report& report, const ExecutorTotals& t) {
  report.metric("setup_s", median(t.setup_s), "s", t.setup_s.size());
  report.metric("ops_per_s", median(t.ops_per_s), "1/s", t.ops_per_s.size());
  report.metric("latency_p50_us", t.op_ns.quantile_ns(0.50) / 1e3,
                "us", t.op_ns.count());
  report.metric("latency_p99_us", t.op_ns.quantile_ns(0.99) / 1e3,
                "us", t.op_ns.count());
}

// --- traced direct-HwMemory pass -------------------------------------------

// Process p's plan issued straight against HwMemory. When `timed`, every
// call is timed by kind: an LL;SC increment charges its LL to "ll" and its
// SC to "sc".
void direct_client(llsc::HwMemory& memory, const llsc::RmwFunction& add1,
                   int p, Proc& me, bool timed, const std::atomic<int>& gate) {
  while (gate.load(std::memory_order_acquire) == 0) {
  }
  if (gate.load(std::memory_order_acquire) < 0) return;
  Tally& tally = me.tally;
  Clock::time_point mark;
  // Charges the time since the previous mark to `kind`.
  const auto lap = [&](Kind kind) {
    if (!timed) return;
    const Clock::time_point now = Clock::now();
    tally.kind_ns[static_cast<int>(kind)].record(ns_between(mark, now));
    mark = now;
  };
  for (std::size_t k = 0; k < me.plan.size(); ++k) {
    const Step step = me.plan[k];
    if (timed) mark = Clock::now();
    if (step.kind == Kind::kLL) {
      (void)memory.ll(p, step.reg);
      lap(Kind::kLL);
    } else if (step.kind == Kind::kVL) {
      (void)memory.validate(p, step.reg);
      lap(Kind::kVL);
    } else if (step.kind == Kind::kScInc) {
      for (;;) {
        const llsc::Value cur = memory.ll(p, step.reg);
        lap(Kind::kLL);
        const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
        ++tally.sc_attempts;
        const llsc::OpResult sc =
            memory.sc(p, step.reg, llsc::Value::of_u64(base + 1));
        lap(Kind::kScInc);
        if (sc.flag) break;
      }
      ++tally.sc_successes;
      ++tally.increments[step.reg];
    } else if (step.kind == Kind::kRmwAdd) {
      (void)memory.rmw(p, step.reg, add1);
      lap(Kind::kRmwAdd);
      ++tally.increments[step.reg];
    } else {
      const std::uint64_t v = swap_value(p, k);
      const llsc::Value old = memory.swap(p, step.reg, llsc::Value::of_u64(v));
      lap(Kind::kSwap);
      tally.note_swap(step.reg, v, old);
    }
  }
}

struct DirectRep {
  double wall_s = 0.0;
  std::vector<Proc> procs;
};

DirectRep run_direct_rep(Report& report, std::uint64_t seed, bool timed) {
  DirectRep rep;
  rep.procs = make_procs(seed, kOpsPerProc);
  const Shared shared;
  llsc::HwMemory memory(kNumRegisters, kProcs, pinned_backoff(), kStorage,
                        kReclaimer);
  std::atomic<int> gate{0};  // 0 = hold, 1 = run, -1 = abort
  std::vector<std::thread> threads;
  threads.reserve(kProcs);
  const auto join_all = [&] {
    for (std::thread& t : threads) t.join();
  };
  try {
    for (int p = 0; p < kProcs; ++p) {
      threads.emplace_back(direct_client, std::ref(memory),
                           std::cref(*shared.add1), p,
                           std::ref(rep.procs[static_cast<std::size_t>(p)]),
                           timed, std::cref(gate));
    }
  } catch (...) {
    gate.store(-1, std::memory_order_release);
    join_all();
    throw;
  }
  const Clock::time_point t0 = Clock::now();
  gate.store(1, std::memory_order_release);
  join_all();
  rep.wall_s = seconds_between(t0, Clock::now());
  std::array<llsc::Value, kDataRegs> finals;
  for (llsc::RegId r = 0; r < static_cast<llsc::RegId>(kDataRegs); ++r) {
    finals[r] = memory.peek_value(r);
  }
  check_finals(report, rep.procs, finals, true);
  return rep;
}

void run_traced(Report& report, double budget_s) {
  const std::uint64_t seed = report.config().seed;
  const ExecutorTotals exec =
      run_executor_reps(report, budget_s * kTracedPassShare);
  report_end_to_end(report, exec);
  report_memory_layers(report, exec.memory, exec.ops);

  // The executor's overhead: the same plans issued directly, untimed.
  std::vector<double> direct_ns_per_op;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const DirectRep rep =
        run_direct_rep(report, rep_seed(seed, kMain, i), /*timed=*/false);
    report.spans().add("hw_memory.direct_rep", t0, Clock::now());
    direct_ns_per_op.push_back(rep.wall_s * 1e9 / kOpsPerProc);
  }
  report.layer("hw_executor.overhead_ns_per_op",
               median(exec.ns_per_op) - median(direct_ns_per_op), "ns");

  std::array<llsc::LatencyHistogram, kNumKinds> kind_ns;
  std::uint64_t sc_attempts = 0, sc_successes = 0;
  repeat_for(budget_s * kTracedPassShare, 3, [&](int i) {
    const Clock::time_point t0 = Clock::now();
    const DirectRep rep =
        run_direct_rep(report, rep_seed(seed, kDirect, i), /*timed=*/true);
    report.spans().add("hw_memory.timed_direct_rep", t0, Clock::now());
    for (const Proc& proc : rep.procs) {
      for (int k = 0; k < kNumKinds; ++k) {
        kind_ns[k].merge(proc.tally.kind_ns[k]);
      }
      sc_attempts += proc.tally.sc_attempts;
      sc_successes += proc.tally.sc_successes;
    }
  });
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string base = std::string("hw_memory.") + kKindNames[k];
    report.layer(base + "_ns_p50", kind_ns[k].quantile_ns(0.50),
                 "ns", kind_ns[k].count());
    report.layer(base + "_ns_p99", kind_ns[k].quantile_ns(0.99),
                 "ns", kind_ns[k].count());
  }
  report.layer("hw_memory.sc_success_ratio",
               ratio(static_cast<double>(sc_successes),
                     static_cast<double>(sc_attempts)),
               "ratio", sc_attempts);
}

}  // namespace

void run_hammer_workload(Report& report, double budget_s) {
  if (report.config().traced) {
    run_traced(report, budget_s);
    return;
  }
  report_end_to_end(report, run_executor_reps(report, budget_s));
}

}  // namespace perfbench
