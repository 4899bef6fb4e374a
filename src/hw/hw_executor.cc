#include "hw/hw_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "hw/oversub_executor.h"
#include "hw/run_support.h"
#include "sched/scheduler.h"
#include "runtime/system.h"
#include "util/check.h"

namespace llsc {

namespace {

using hw_internal::Clock;

// Process-wide timeout default; ~0 marks "not resolved yet" so the
// LLSC_TIMEOUT_MS environment variable is read lazily, after a test/bench
// main() had its chance to call set_default_hw_timeout_ms().
std::atomic<std::uint64_t> g_default_timeout_ms{~0ull};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The shared workload coroutine (free function — see the GCC 12 coroutine
// notes in src/runtime/sim_task.h): `ops` operations through the
// construction, per-op wall latency recorded into *latency, responses
// summed into the return value. On the hw platform every co_await runs
// inline, so the recorded latency is the true on-thread cost of one UC
// operation under contention; on the simulator it additionally spans the
// interleaved steps of other processes and only the aggregate rate is
// meaningful.
SimTask uc_workload_body(ProcCtx ctx, UniversalConstruction* uc, int ops,
                         const UcOpFactory* make_op,
                         LatencyHistogram* latency) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    ObjOp op = (*make_op)(ctx.id(), k);
    const Clock::time_point t0 = Clock::now();
    const Value r = co_await uc->execute(ctx, std::move(op));
    const Clock::time_point t1 = Clock::now();
    latency->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    sum += r.as_u64();
  }
  co_return Value::of_u64(sum);
}

UcThroughput summarize(int n, int ops_per_process, double wall_seconds,
                       LatencyHistogram latency,
                       const std::vector<std::uint64_t>& shared_ops,
                       std::uint64_t response_sum) {
  UcThroughput out;
  out.n = n;
  out.ops_per_process = ops_per_process;
  out.total_uc_ops =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(ops_per_process);
  out.wall_seconds = wall_seconds;
  out.ops_per_second =
      wall_seconds > 0 ? static_cast<double>(out.total_uc_ops) / wall_seconds
                       : 0.0;
  out.latency = std::move(latency);
  for (std::uint64_t t : shared_ops) {
    out.max_shared_ops = std::max(out.max_shared_ops, t);
  }
  out.shared_ops_per_uc_op =
      ops_per_process > 0
          ? static_cast<double>(out.max_shared_ops) / ops_per_process
          : 0.0;
  out.response_sum = response_sum;
  return out;
}

}  // namespace

std::uint64_t default_hw_timeout_ms() {
  std::uint64_t v = g_default_timeout_ms.load(std::memory_order_relaxed);
  if (v != ~0ull) return v;
  v = 0;
  if (const char* env = std::getenv("LLSC_TIMEOUT_MS")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) v = static_cast<std::uint64_t>(parsed);
  }
  g_default_timeout_ms.store(v, std::memory_order_relaxed);
  return v;
}

void set_default_hw_timeout_ms(std::uint64_t ms) {
  g_default_timeout_ms.store(ms, std::memory_order_relaxed);
}

std::uint64_t hw_timeout_scale() {
  static const std::uint64_t scale = [] {
    std::uint64_t v = 1;
    if (const char* env = std::getenv("LLSC_TIMEOUT_SCALE")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && parsed >= 1) v = static_cast<std::uint64_t>(parsed);
    }
    return v;
  }();
  return scale;
}

std::uint64_t scale_timeout_ms(std::uint64_t ms) {
  return ms * hw_timeout_scale();
}

HwExecutor::HwExecutor(HwRunOptions options) : options_(std::move(options)) {}

HwRunResult HwExecutor::run(int n, const ProcBody& body) {
  OversubRunOptions pool;
  static_cast<HwRunOptions&>(pool) = options_;
  pool.num_threads = n;
  return hw_internal::run_pool(pool, n, /*yields=*/false, body);
}

UcThroughput run_uc_on_hw(HwExecutor& exec, UniversalConstruction& uc, int n,
                          int ops_per_process, const UcOpFactory& make_op) {
  // One histogram per process: the threads record concurrently.
  std::vector<LatencyHistogram> latencies(static_cast<std::size_t>(n));
  const ProcBody body = [&](ProcCtx ctx, ProcId i, int) {
    return uc_workload_body(ctx, &uc, ops_per_process, &make_op,
                            &latencies[static_cast<std::size_t>(i)]);
  };
  const HwRunResult run = exec.run(n, body);
  std::uint64_t response_sum = 0;
  for (const Value& v : run.results) {
    if (v.holds_u64()) response_sum += v.as_u64();  // nil: crashed/hung proc
  }
  LatencyHistogram latency;
  for (const LatencyHistogram& h : latencies) latency.merge(h);
  UcThroughput out =
      summarize(n, ops_per_process, run.wall_seconds, std::move(latency),
                run.shared_ops, response_sum);
  out.status = run.status;
  out.fault = run.fault;
  return out;
}

UcThroughput run_uc_on_simulator(UniversalConstruction& uc, int n,
                                 int ops_per_process,
                                 const UcOpFactory& make_op,
                                 std::uint64_t seed) {
  // One histogram for all processes: the simulator runs them on this
  // thread.
  LatencyHistogram latency;
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return uc_workload_body(ctx, &uc, ops_per_process, &make_op, &latency);
  };
  System sys(n, body, std::make_shared<SeededTossAssignment>(seed));
  const Clock::time_point t0 = Clock::now();
  RoundRobinScheduler sched;
  const bool done = sched.run(sys, 1ull << 40).all_terminated;
  const Clock::time_point t1 = Clock::now();
  LLSC_CHECK(done, "simulator workload did not terminate");
  std::uint64_t response_sum = 0;
  std::vector<std::uint64_t> shared_ops;
  shared_ops.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    response_sum += sys.process(p).result().as_u64();
    shared_ops.push_back(sys.process(p).shared_ops());
  }
  return summarize(n, ops_per_process, seconds_between(t0, t1),
                   std::move(latency), shared_ops, response_sum);
}

}  // namespace llsc
