#include "hw/oversub_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "hw/run_support.h"
#include "util/check.h"

namespace llsc {

namespace {

using hw_internal::CancelledSignal;
using hw_internal::Clock;
using hw_internal::CrashStopSignal;
using hw_internal::MonitoredHwPlatform;
using hw_internal::RunMonitor;
using hw_internal::Watchdog;

// One run-queue shard per carrier thread. A worker pops its own shard
// from the front (FIFO keeps arrival order, which keeps service-mode
// latencies honest) and steals from a sibling's back when dry.
struct alignas(64) Shard {
  std::mutex mu;
  std::deque<Process*> q;
};

// Pool-wide scheduler state. The idle protocol mirrors the register
// ParkSpot protocol: every push bumps work_epoch and wakes registered
// waiters; an idle worker snapshots the epoch BEFORE its scan and hands
// the (word, snapshot) pair to Backoff::on_failure, whose post-register
// re-check closes the push-after-scan/park-before-wake window exactly
// like the register-side lost-wakeup fix.
//
// Without oversubscription (m <= N, so one process per shard) a shard
// only ever holds its own worker's process: nobody steals, a worker whose
// shard is empty is done, and there is no idle worker to wake.
//
// work_epoch is written on every push, so it gets its own cache line.
struct SchedState {
  SchedState(int num_threads, int m, Waiter* waiter)
      : shards(static_cast<std::size_t>(num_threads)),
        waiter(waiter),
        oversubscribed(m > num_threads) {}

  void push(int shard_idx, Process* proc) {
    {
      Shard& s = shards[static_cast<std::size_t>(shard_idx)];
      std::lock_guard<std::mutex> lock(s.mu);
      s.q.push_back(proc);
    }
    work_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (idle_spot.waiters.load(std::memory_order_seq_cst) != 0) {
      idle_spot.seq.fetch_add(1, std::memory_order_seq_cst);
      waiter->wake_all(idle_spot.seq);
    }
  }

  // Termination / cancellation: wake every idle worker unconditionally
  // (none ever parks without oversubscription).
  void broadcast() {
    if (!oversubscribed) return;
    work_epoch.fetch_add(1, std::memory_order_seq_cst);
    idle_spot.seq.fetch_add(1, std::memory_order_seq_cst);
    waiter->wake_all(idle_spot.seq);
  }

  Process* pop(int w, std::uint64_t* steals) {
    {
      Shard& own = shards[static_cast<std::size_t>(w)];
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.q.empty()) {
        Process* proc = own.q.front();
        own.q.pop_front();
        return proc;
      }
    }
    if (!oversubscribed) return nullptr;
    const int n = static_cast<int>(shards.size());
    for (int d = 1; d < n; ++d) {
      Shard& victim = shards[static_cast<std::size_t>((w + d) % n)];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.q.empty()) {
        Process* proc = victim.q.back();
        victim.q.pop_back();
        ++*steals;
        return proc;
      }
    }
    return nullptr;
  }

  std::vector<Shard> shards;
  Waiter* waiter;
  const bool oversubscribed;
  alignas(64) std::atomic<std::uint64_t> work_epoch{0};
  alignas(64) ParkSpot idle_spot;
};

}  // namespace

OversubscribedExecutor::OversubscribedExecutor(OversubRunOptions options)
    : options_(std::move(options)) {}

HwRunResult OversubscribedExecutor::run(int m, const ProcBody& body) {
  return hw_internal::run_pool(options_, m, /*yields=*/true, body);
}

namespace hw_internal {

int carrier_count(int requested, int m) {
  int num_threads = requested > 0
                        ? requested
                        : static_cast<int>(std::thread::hardware_concurrency());
  if (num_threads < 1) num_threads = 1;
  // More carriers than processes is pure overhead: the extras would have
  // nothing to run. At m <= N this leaves one process per carrier, the 1:1
  // shape HwExecutor runs.
  return std::min(num_threads, m);
}

HwRunResult run_pool(const OversubRunOptions& options, int m, bool yields,
                     const ProcBody& body) {
  LLSC_EXPECTS(m >= 1, "an execution needs at least one process");
  const int num_threads = carrier_count(options.num_threads, m);

  // Per process, the memory keeps only links; hazard slots, backoff and
  // counters are per carrier thread — N of each instead of M — indexed by
  // the carrier binding each worker sets below. That is sound because no
  // protection spans a yield: operations bracket their protections
  // internally, and coroutines yield only between operations. At m = N
  // worker w only ever runs process w, so slot w is process w's, the 1:1
  // layout.
  HwMemory memory(options.num_registers, m, options.backoff,
                  /*storage=*/{}, /*reclaim=*/{}, num_threads);
  const auto tosses = std::make_shared<SeededTossAssignment>(options.seed);
  const bool inject =
      options.fault != nullptr && options.fault->enabled();
  std::optional<FaultInjector> injector;
  if (inject) injector.emplace(*options.fault, m);
  RunMonitor monitor(num_threads, m);
  FaultInjector* const injector_ptr = injector ? &*injector : nullptr;
  const std::uint32_t stall_unit_ns =
      inject ? options.fault->stall_unit_ns : 0;
  MonitoredHwPlatform platform(&memory, tosses, injector_ptr, &monitor,
                               stall_unit_ns, yields);

  const ProcessBlock procs = make_processes(m);
  for (ProcId i = 0; i < m; ++i) {
    Process& proc = procs[static_cast<std::size_t>(i)];
    proc.set_platform(&platform);
    proc.attach(body(ProcCtx(&proc), i, m));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(m));
  std::vector<HwProcOutcome> outcome(static_cast<std::size_t>(m),
                                     HwProcOutcome::kDone);

  Waiter* waiter = options.backoff.waiter != nullptr
                       ? options.backoff.waiter
                       : &Waiter::system();
  SchedState sched(num_threads, m, waiter);
  // Initial placement p mod N, filled before any worker exists — no
  // signals needed yet.
  for (ProcId i = 0; i < m; ++i) {
    sched.shards[static_cast<std::size_t>(i % num_threads)].q.push_back(
        &procs[static_cast<std::size_t>(i)]);
  }

  // Idle-worker backoff: parks sooner than the register retry loops (an
  // idle carrier has nothing to retry); the waiter is shared so tests can
  // stub both sides at once.
  BackoffOptions idle_options;
  idle_options.park_threshold = 2;
  idle_options.waiter = waiter;

  std::mutex stats_mutex;
  HwSchedStats sched_stats;
  sched_stats.num_threads = num_threads;
  sched_stats.num_procs = m;

  const auto worker_fn = [&](int w) {
    Backoff idle(idle_options);
    std::uint64_t resumes = 0;
    std::uint64_t yields = 0;
    std::uint64_t steals = 0;
    for (;;) {
      if (monitor.remaining.load(std::memory_order_acquire) == 0) break;
      if (monitor.cancel.load(std::memory_order_relaxed)) break;
      // Epoch snapshot precedes the scan: a push landing mid-scan moves
      // the epoch, and the park's re-check sees it.
      const std::uint64_t epoch =
          sched.work_epoch.load(std::memory_order_seq_cst);
      Process* proc = sched.pop(w, &steals);
      if (proc == nullptr) {
        if (!sched.oversubscribed) break;  // this worker's process is done
        idle.on_failure(&sched.idle_spot, &sched.work_epoch, epoch);
        continue;
      }
      idle.on_success();
      const ProcId pid = proc->id();
      const std::size_t s = static_cast<std::size_t>(pid);
      monitor.tick();
      ++resumes;
      bool finished = false;
      try {
        if (proc->step_kind() == StepKind::kNotStarted) {
          proc->start();
        } else {
          proc->resume_yielded();
        }
        if (proc->step_kind() == StepKind::kYielded) {
          ++yields;
          sched.push(w, proc);  // locality: back on this worker's shard
        } else {
          finished = true;
        }
      } catch (const CrashStopSignal&) {
        // Only amnesiac (or unrecoverable) crashes unwind to here — a
        // pause-and-resume recovery is served inline by the platform. If
        // the plan owes this process a restart, serve the rejoin delay on
        // this carrier, drop the dead incarnation's reservations, respawn
        // the coroutine, and re-queue it on this worker's shard; it is
        // neither finished (remaining stays put) nor hung.
        bool restarted = false;
        RecoverySpec rspec;
        if (injector && injector->recovery_spec(pid, &rspec)) {
          const std::uint32_t units = injector->note_recovery(pid);
          try {
            platform.recovery_wait(units);
            memory.invalidate_links(pid);
            monitor.tick();
            proc->restart(body);
            sched.push(w, proc);
            restarted = true;
          } catch (const CancelledSignal&) {
            outcome[s] = HwProcOutcome::kHung;
          }
        } else {
          outcome[s] = HwProcOutcome::kCrashed;
        }
        finished = !restarted;
      } catch (const CancelledSignal&) {
        outcome[s] = HwProcOutcome::kHung;
        finished = true;
      } catch (...) {
        errors[s] = std::current_exception();
        outcome[s] = HwProcOutcome::kHung;
        // A failed body must not leave its peers running toward a result
        // the rethrow below will discard.
        monitor.cancel.store(true, std::memory_order_relaxed);
        finished = true;
      }
      if (finished) {
        if (monitor.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          sched.broadcast();  // the last finisher wakes every idle worker
        }
      }
    }
    // Cancellation path: hasten peers that are riding out a park timeout.
    sched.broadcast();
    const BackoffStats& b = idle.stats();
    std::lock_guard<std::mutex> lock(stats_mutex);
    sched_stats.resumes += resumes;
    sched_stats.yields += yields;
    sched_stats.steals += steals;
    sched_stats.idle_parks += b.parks;
    sched_stats.idle_park_skips += b.park_skips;
  };

  // Start gate: workers check in on `ready` and hold on `gate` so the wall
  // clock starts with the pool poised rather than at spawn time. Unlike a
  // std::barrier the gate has an abort value (-1): if spawning worker j
  // fails, workers 0..j-1 are released and joined instead of wedging.
  std::atomic<int> ready{0};
  std::atomic<int> gate{0};  // 0 = hold, 1 = run, -1 = abort
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  const auto join_all = [&] {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  };
  try {
    for (int w = 0; w < num_threads; ++w) {
      threads.emplace_back([&, w] {
        ready.fetch_add(1, std::memory_order_release);
        ready.notify_one();
        gate.wait(0, std::memory_order_acquire);
        if (gate.load(std::memory_order_acquire) < 0) return;
        // Carrier w for the thread's lifetime: every protection its
        // coroutines take is charged to hazard slot w, and every
        // per-carrier table of the run is indexed by w. Protections are
        // per operation, so nothing leaks across a migration.
        bind_carrier(&memory.reclaimer(), w);
        worker_fn(w);
      });
    }
  } catch (...) {
    gate.store(-1, std::memory_order_release);
    gate.notify_all();
    join_all();
    throw;
  }
  for (int seen = ready.load(std::memory_order_acquire); seen < num_threads;
       seen = ready.load(std::memory_order_acquire)) {
    ready.wait(seen, std::memory_order_acquire);
  }
  // The clock starts just before the release, not after the join: on a
  // single-core host the OS may run a worker to completion before this
  // thread is rescheduled, which would shrink the measured window.
  const Clock::time_point t0 = Clock::now();
  gate.store(1, std::memory_order_release);
  gate.notify_all();

  Watchdog watchdog(
      &monitor,
      Watchdog::Config{
          .deadline_ms = options.timeout_ms ? *options.timeout_ms
                                            : default_hw_timeout_ms(),
          .progress_timeout_ms = options.progress_timeout_ms,
          .poll_ms = options.watchdog_poll_ms,
          .oversub_factor = static_cast<std::uint64_t>(
              (m + num_threads - 1) / num_threads)},
      t0);

  join_all();
  const Clock::time_point t1 = Clock::now();
  watchdog.stop();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  HwRunResult out;
  out.n = m;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.cancelled = monitor.cancel.load(std::memory_order_relaxed);
  out.proc_status = outcome;
  out.results.resize(static_cast<std::size_t>(m));
  out.shared_ops.reserve(static_cast<std::size_t>(m));
  out.num_tosses.reserve(static_cast<std::size_t>(m));
  for (ProcId i = 0; i < m; ++i) {
    const Process& proc = procs[static_cast<std::size_t>(i)];
    const std::size_t s = static_cast<std::size_t>(i);
    if (outcome[s] == HwProcOutcome::kCrashed) {
      ++out.crashed_procs;
    } else if (outcome[s] == HwProcOutcome::kDone && proc.done()) {
      out.results[s] = proc.result();
    } else {
      // Includes coroutines still parked on a shard when the run was
      // cancelled: they are never resumed (destroying a suspended frame
      // is fine) and report as hung.
      out.proc_status[s] = HwProcOutcome::kHung;
      ++out.hung_procs;
    }
    out.shared_ops.push_back(proc.shared_ops());
    out.num_tosses.push_back(proc.num_tosses());
    out.max_shared_ops = std::max(out.max_shared_ops, proc.shared_ops());
    out.total_shared_ops += proc.shared_ops();
  }
  out.status = out.crashed_procs > 0
                   ? RunStatus::kCrashed
                   : (out.hung_procs > 0 ? RunStatus::kHung
                                         : RunStatus::kClean);
  out.ok = out.status == RunStatus::kClean;
  LLSC_CHECK(out.ok || inject || out.cancelled,
             "a process failed to run to completion on the pool");
  out.reclaim = memory.reclaim_stats();
  out.backoff = memory.backoff_stats();
  out.width = memory.width_stats();
  if (injector) {
    out.fault = injector->stats();
    out.decision_trace = injector->trace();
  }
  out.sched = sched_stats;
  return out;
}

}  // namespace hw_internal

}  // namespace llsc
