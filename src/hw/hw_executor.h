// HwExecutor — run the paper's n-process algorithms on n real threads.
//
// The executor is the synchronous counterpart of System + a scheduler:
// it builds one Process control block per simulated process, points each
// at the hw platform (HwMemory + a pre-committed toss assignment), and
// runs each process's coroutine body on its own carrier thread. Because
// the platform is synchronous and never yields, every co_awaited
// LL/SC/VL/swap/move executes inline and a body runs start-to-finish on
// its thread — the interleaving of shared-memory steps is whatever the
// hardware and the OS produce, which is exactly the point.
//
// HwExecutor is a facade over the oversubscribed pool
// (hw/oversub_executor.h) at N = M = n: one carrier per process, so no
// process ever migrates, nobody steals and no carrier parks idle. The
// pool owns the start gate, the crash/restart loop, the watchdog and the
// result assembly for both executors.
//
// Determinism: coin tosses are served from SeededTossAssignment(seed)
// (outcome(p, j) is a pure function of seed — a per-process shard of one
// seed), so repeated runs with the same seed replay the same toss
// outcomes and differ only in step interleaving. Per-process shared-op
// and toss counters live in the per-process Process blocks (no shared
// counters to contend on); a start gate lines all threads up before the
// first step so throughput numbers measure concurrent execution, not
// thread spawn skew.
//
// Robustness (hw/fault.h): run() optionally routes every shared-memory
// op through a FaultInjector (same decision stream as the simulator) and
// arms a watchdog that cancels workers that blow the run deadline or
// stop making progress; the result carries a clean/crashed/hung taxonomy
// instead of wedging the caller.
#ifndef LLSC_HW_HW_EXECUTOR_H_
#define LLSC_HW_HW_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "hw/fault.h"
#include "hw/hw_memory.h"
#include "hw/latency_histogram.h"
#include "runtime/process.h"
#include "runtime/toss.h"
#include "universal/universal.h"

namespace llsc {

struct HwRunOptions {
  // Seed of the SeededTossAssignment serving every process's coin tosses.
  std::uint64_t seed = 1;
  // Size of the fixed register table. Algorithms must declare enough
  // (e.g. GroupUpdateUC::register_span()); the default fits every
  // workload in tests/bench at n ≤ 1024.
  std::size_t num_registers = 1 << 12;
  // Retry-loop backoff options for the run's HwMemory (hw/backoff.h).
  BackoffOptions backoff;
  // Kept because perfbench/ sets it; nothing reads it (every register
  // starts inline and boxes itself — hw/hw_memory.h).
  StoragePolicy storage = default_storage_policy();
  // Kept because perfbench/ sets it; nothing reads it (hazard pointers
  // are the one reclaimer — hw/reclaim.h).
  ReclaimPolicy reclaimer = default_reclaim_policy();
  // Fault plan for this run (hw/fault.h); nullptr or a disabled plan means
  // no injection. The plan is used as-is — sweeping drivers derive
  // per-sample seeds themselves (derive_sample_plan). Caller keeps the
  // plan alive for the duration of run().
  const FaultPlan* fault = nullptr;
  // Watchdog deadline for one run(): when the run exceeds this wall-clock
  // budget the watchdog cancels every worker at its next shared-memory op
  // or toss, and the run reports RunStatus::kHung. nullopt inherits the
  // process-wide default (set_default_hw_timeout_ms / LLSC_TIMEOUT_MS);
  // 0 disables the deadline.
  std::optional<std::uint64_t> timeout_ms;
  // Hang detection: cancel when the per-thread progress counters of the
  // still-running workers stop advancing for this long. 0 disables.
  std::uint64_t progress_timeout_ms = 0;
  // Kept because perfbench/ sets it; nothing reads it.
  std::vector<RegisterGroup> register_groups;
};

// Scheduler counters of one pool run (hw/oversub_executor.h). A 1:1
// HwExecutor run reports N = M = n, one resume per process (plus one per
// amnesiac restart), and zero yields, steals and idle parks.
struct HwSchedStats {
  int num_threads = 0;       // carrier threads (N)
  int num_procs = 0;         // logical processes (M)
  std::uint64_t resumes = 0;     // coroutine start/resume edges
  std::uint64_t yields = 0;      // coroutines re-queued at a yield point
  std::uint64_t steals = 0;      // pops from another worker's shard
  std::uint64_t idle_parks = 0;  // idle workers parked on the run's spot
  std::uint64_t idle_park_skips = 0;  // parks cut short by the re-check
};

// Per-process outcome of one hw run.
enum class HwProcOutcome : std::uint8_t {
  kDone = 0,     // body ran to completion
  kCrashed = 1,  // crash-stopped by the fault plan
  kHung = 2,     // cancelled by the watchdog before completing
};

struct HwRunResult {
  int n = 0;
  bool ok = false;  // all processes ran to completion (status == kClean)
  // Failure taxonomy (hw/fault.h): kClean when every process terminated,
  // kCrashed when the fault plan crash-stopped at least one process,
  // kHung when the watchdog cancelled a worker and nobody crashed.
  // (kSpecViolation is assigned by workload-level checkers such as the
  // Monte-Carlo drivers — the executor itself has no spec to check.)
  RunStatus status = RunStatus::kClean;
  std::vector<HwProcOutcome> proc_status;    // per process
  int crashed_procs = 0;
  int hung_procs = 0;
  bool cancelled = false;  // the watchdog fired
  // All vectors below hold one entry per process (index = ProcId);
  // results[p] is nil unless proc_status[p] == kDone.
  std::vector<Value> results;
  std::vector<std::uint64_t> shared_ops;     // t(p) per process
  std::vector<std::uint64_t> num_tosses;     // per process
  std::uint64_t max_shared_ops = 0;          // the paper's t(R)
  std::uint64_t total_shared_ops = 0;
  double wall_seconds = 0.0;
  // Node accounting; nodes_allocated counts completed node installs.
  ReclaimStats reclaim;
  BackoffStats backoff;
  // Width and storage-form counters of the run's registers
  // (memory/storage_policy.h). writes_inspected follows which SCs win
  // the thread race, so it can vary between runs of one workload.
  RegisterWidthStats width;
  FaultStats fault;  // injected-fault decision counters (zero w/o a plan)
  // Decisions placed by an adaptive or budget-capped plan (hw/fault.h);
  // empty for an uncapped oblivious plan. Embed into FaultPlan::trace to
  // replay this run's placement bit-for-bit on either substrate.
  DecisionTrace decision_trace;
  // Pool scheduler counters (N = M = n on a 1:1 run; see HwSchedStats).
  HwSchedStats sched;
  // Per-operation enqueue→complete latency, populated only by service-
  // mode runs (hw/service.h); empty elsewhere.
  LatencyHistogram latency;
};

// Process-wide default for HwRunOptions::timeout_ms. Resolution order:
// the last set_default_hw_timeout_ms() call, else the LLSC_TIMEOUT_MS
// environment variable, else 0 (no deadline). This is how --timeout_ms
// reaches the HwExecutors that tests and benches construct internally.
std::uint64_t default_hw_timeout_ms();
void set_default_hw_timeout_ms(std::uint64_t ms);

// Deadline multiplier for tests that arm *tight* watchdog deadlines (a
// few tens of ms, to see the watchdog fire fast): the LLSC_TIMEOUT_SCALE
// environment variable, default 1, read once. Sanitized CI jobs (TSan
// sets 4) run several times slower than native and hard-coded small
// deadlines flake there; scale_timeout_ms(50) instead of a literal 50.
std::uint64_t hw_timeout_scale();
std::uint64_t scale_timeout_ms(std::uint64_t ms);

class HwExecutor {
 public:
  explicit HwExecutor(HwRunOptions options = {});

  // Runs body(ctx, i, n) for i in [0, n), one OS thread per process,
  // against a fresh HwMemory: the pool with N = n carriers and a platform
  // that never yields. Exceptions thrown by a body are re-thrown on the
  // calling thread after all threads join.
  HwRunResult run(int n, const ProcBody& body);

  const HwRunOptions& options() const { return options_; }

 private:
  HwRunOptions options_;
};

// --- universal-construction throughput workloads -------------------------
//
// The same workload shape on both platforms: every process performs
// `ops_per_process` operations (produced by make_op(p, k)) through the
// construction and returns the sum of its u64 responses. Per-operation
// wall-clock latency is recorded into per-process histograms on hw (no
// sharing) and merged after the run.

using UcOpFactory = std::function<ObjOp(ProcId p, int k)>;

struct UcThroughput {
  int n = 0;
  int ops_per_process = 0;
  std::uint64_t total_uc_ops = 0;
  double wall_seconds = 0.0;
  double ops_per_second = 0.0;
  // max over p of (shared ops of p / ops_per_process) — the per-operation
  // shared-access cost to compare against worst_case_shared_ops().
  double shared_ops_per_uc_op = 0.0;
  std::uint64_t max_shared_ops = 0;
  // Sum over processes of returned response sums (for sanity checks;
  // only kDone processes contribute on a degraded run).
  std::uint64_t response_sum = 0;
  // Run taxonomy + fault counters, copied from the underlying HwRunResult
  // (always kClean / zero on the simulator path).
  RunStatus status = RunStatus::kClean;
  FaultStats fault;
  // One sample per completed operation, merged across processes.
  LatencyHistogram latency;
};

// Runs the workload on real threads via `exec`.
UcThroughput run_uc_on_hw(HwExecutor& exec, UniversalConstruction& uc, int n,
                          int ops_per_process, const UcOpFactory& make_op);

// Runs the identical workload (same body coroutine) on the simulator
// under a round-robin schedule — the contrast column for the hw bench.
UcThroughput run_uc_on_simulator(UniversalConstruction& uc, int n,
                                 int ops_per_process,
                                 const UcOpFactory& make_op,
                                 std::uint64_t seed = 1);

}  // namespace llsc

#endif  // LLSC_HW_HW_EXECUTOR_H_
