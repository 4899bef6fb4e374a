#include "hw/service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "hw/group_combining.h"
#include "hw/run_support.h"
#include "memory/rmw.h"
#include "objects/arith.h"
#include "util/check.h"
#include "util/line_allocator.h"
#include "util/rng.h"

namespace llsc {

namespace {

using Clock = std::chrono::steady_clock;

// Shared, read-only-during-run state the client bodies point at.
struct ServiceShared {
  Clock::time_point epoch;  // t = 0 of the arrival schedule
  ServiceWorkload workload = ServiceWorkload::kFetchInc;
  std::uint64_t ops_per_proc = 0;
  double mean_gap_ns = 0.0;  // m/λ; 0 = every request due at the epoch
  std::shared_ptr<const RmwFunction> inc;
  std::unique_ptr<GroupCombiningUniversal> uc;  // kCombining only
};

// One client's whole run state, one cache line: its arrival stream, the
// arrival of its first unserved request, and the restart journal.
//
// Arrivals are i.i.d. exponential gaps with mean m/λ, so the superposition
// of the m per-client streams is Poisson with aggregate rate λ. The stream
// is seeded per client and drawn one gap per completed request, so the
// k-th due time is a pure function of (seed, p, k) — replayable, and
// independent of how coroutines migrate between carrier threads.
//
// `completed` is the journal: it counts COMPLETED requests, and due_ns
// advances only after a completion, so it is always the arrival of request
// `completed`. A restarted incarnation therefore resumes at the first
// unserved request, and the request a crash caught mid-op is re-served.
struct alignas(64) ClientState {
  Rng rng;
  double due_ns = 0.0;  // ns from the epoch, before truncation
  std::uint64_t completed = 0;
};
static_assert(sizeof(ClientState) == 64, "one cache line per client");

// Adds the next gap to c->due_ns. One draw per request, accumulated in
// double in draw order; 1 - u is in (0, 1], so the log never sees 0.
void draw_arrival(ClientState* c, double mean_gap_ns) {
  const double u = 1.0 - c->rng.next_double();
  c->due_ns += mean_gap_ns > 0 ? -mean_gap_ns * std::log(u) : 0.0;
}

// One carrier's latency histogram, on lines of its own: the clients of one
// carrier record one at a time, and a neighbour's count_/max_ writes would
// otherwise share a line with them.
struct alignas(64) CarrierLatency {
  LatencyHistogram histogram;
};

// One client process: wait (cooperatively) for each scheduled arrival,
// perform the workload's operation, record completion − scheduled
// arrival into the histogram of the carrier it completes on. A free
// function taking pointers, per the GCC 12 coroutine notes in
// runtime/sim_task.h; the co_await sits in the loop BODY, never in a
// condition (see Process::resume()).
//
// Crash-recovery: a restarted incarnation resumes at client->completed
// (see ClientState), and the re-served request's recorded latency spans
// the crash and the rejoin delay, the honest open-loop cost. A crash
// between arrival and completion bumps *in_flight before rethrowing, so
// the availability accounting can explain every served/offered gap; the
// crashed attempt itself never records a latency and never counts as
// served.
SimTask client_body(ProcCtx ctx, const ServiceShared* shared,
                    ClientState* client, CarrierLatency* latency,
                    std::atomic<std::uint64_t>* in_flight) {
  while (client->completed < shared->ops_per_proc) {
    const std::uint64_t due_offset_ns =
        static_cast<std::uint64_t>(client->due_ns);
    const Clock::time_point due =
        shared->epoch + std::chrono::nanoseconds(due_offset_ns);
    while (Clock::now() < due) {
      co_await ctx.yield();
    }
    try {
      if (shared->workload == ServiceWorkload::kFetchInc) {
        (void)co_await ctx.rmw(0, shared->inc);
      } else if (shared->workload == ServiceWorkload::kWakeup) {
        for (;;) {
          const Value cur = co_await ctx.ll(0);
          const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
          const ScResult sc = co_await ctx.sc(0, Value::of_u64(base + 1));
          if (sc.ok) break;
        }
      } else {
        ObjOp op{"fetch&increment", {}};
        (void)co_await shared->uc->execute(ctx, std::move(op));
      }
    } catch (const hw_internal::CrashStopSignal&) {
      in_flight->fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    const Clock::time_point done = Clock::now();
    latency[hw_internal::current_carrier()].histogram.record(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(done - due)
                .count()));
    ++client->completed;
    draw_arrival(client, shared->mean_gap_ns);
  }
  co_return Value::of_u64(client->completed);
}

}  // namespace

const char* to_string(ServiceWorkload workload) {
  switch (workload) {
    case ServiceWorkload::kFetchInc:
      return "fetch_inc";
    case ServiceWorkload::kWakeup:
      return "wakeup";
    case ServiceWorkload::kCombining:
      return "combining";
  }
  LLSC_UNREACHABLE("bad ServiceWorkload");
}

ServiceResult run_service(const ServiceOptions& options) {
  LLSC_EXPECTS(options.procs >= 1, "service needs at least one process");
  LLSC_EXPECTS(options.ops_per_proc >= 0, "negative ops_per_proc");
  const int m = options.procs;
  const int carriers = hw_internal::carrier_count(options.threads, m);

  ServiceShared shared;
  shared.workload = options.workload;
  shared.ops_per_proc = static_cast<std::uint64_t>(options.ops_per_proc);
  shared.mean_gap_ns = options.arrival_rate_hz > 0
                           ? 1e9 * static_cast<double>(m) /
                                 options.arrival_rate_hz
                           : 0.0;
  shared.inc = make_rmw("fetch&add1", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  if (options.workload == ServiceWorkload::kCombining) {
    // One group per carrier: the pool places client p on carrier p mod N.
    shared.uc = std::make_unique<GroupCombiningUniversal>(
        m, carriers, [] { return std::make_unique<FetchAddObject>(64, 0); },
        /*base=*/0);
  }

  // The service's own run state: one line per client, one histogram per
  // carrier.
  std::vector<ClientState, LineAllocator<ClientState>> clients;
  clients.reserve(static_cast<std::size_t>(m));
  for (ProcId p = 0; p < m; ++p) {
    ClientState& c = clients.emplace_back(ClientState{
        Rng(mix64(options.seed ^ 0x53B51CE5A10ADull ^
                  (static_cast<std::uint64_t>(p) << 32)))});
    draw_arrival(&c, shared.mean_gap_ns);
  }
  std::vector<CarrierLatency, LineAllocator<CarrierLatency>> latency(
      static_cast<std::size_t>(carriers));

  OversubRunOptions run_options;
  run_options.seed = options.seed;
  run_options.backoff = options.backoff;
  run_options.timeout_ms = options.timeout_ms;
  run_options.progress_timeout_ms = options.progress_timeout_ms;
  run_options.num_threads = options.threads;
  run_options.fault = options.fault;
  // The table holds exactly the registers the workload touches: the
  // shared level's span (CombiningUniversal at n = N), or register 0 for
  // the others. Per-process link vectors are sized by it too, so the
  // default 4096-entry table would cost M × 4096 words.
  run_options.num_registers =
      shared.uc ? static_cast<std::size_t>(shared.uc->register_span()) : 1;
  if (shared.uc) run_options.register_groups = shared.uc->register_groups();

  std::atomic<std::uint64_t> in_flight_at_crash{0};
  const ProcBody body = [&](ProcCtx ctx, ProcId i, int) {
    return client_body(ctx, &shared, &clients[static_cast<std::size_t>(i)],
                       latency.data(), &in_flight_at_crash);
  };

  // The arrival clock starts a hair before the pool's start gate opens
  // (epoch is captured here, the gate inside run()); the skew is spawn
  // cost only and biases the FIRST arrival's latency upward, never any
  // steady-state percentile.
  OversubscribedExecutor exec(run_options);
  shared.epoch = Clock::now();
  ServiceResult out;
  out.run = exec.run(m, body);
  for (const CarrierLatency& c : latency) {
    out.run.latency.merge(c.histogram);
  }
  out.arrival_rate_hz = options.arrival_rate_hz;
  out.offered_ops = static_cast<std::uint64_t>(m) *
                    static_cast<std::uint64_t>(options.ops_per_proc);
  out.served_ops = out.run.latency.count();
  std::uint64_t completed = 0;
  for (const ClientState& c : clients) completed += c.completed;
  LLSC_CHECK(out.served_ops == completed,
             "every completed request records exactly one latency");
  out.throughput_ops_per_sec =
      out.run.wall_seconds > 0
          ? static_cast<double>(out.served_ops) / out.run.wall_seconds
          : 0.0;
  out.in_flight_at_crash = in_flight_at_crash.load(std::memory_order_relaxed);
  out.crashes = out.run.fault.crashes;
  out.recoveries = out.run.fault.recoveries;
  if (out.recoveries > 0 && options.fault != nullptr) {
    out.mttr_ms = static_cast<double>(out.run.fault.recovery_units) *
                  static_cast<double>(options.fault->stall_unit_ns) /
                  static_cast<double>(out.recoveries) / 1e6;
  }
  out.availability =
      out.offered_ops > 0
          ? static_cast<double>(out.served_ops) /
                static_cast<double>(out.offered_ops)
          : 1.0;
  return out;
}

}  // namespace llsc
