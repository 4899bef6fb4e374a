// Run plumbing of the real-thread pool.
//
// One run loop serves both public executors: OversubscribedExecutor runs
// M logical processes on N carrier threads, yielding after every shared
// op, and HwExecutor is the same pool at N = M with a platform that never
// yields. Below are the signals that unwind a worker's coroutine stack,
// the per-logical-process progress monitor the watchdog reads, the
// Platform wrapper that adds cancellation checkpoints + fault injection
// in front of HwMemory, the watchdog thread itself, and the pool's entry
// point (run_pool, defined in hw/oversub_executor.cc).
//
// The monitor tracks progress per LOGICAL PROCESS (indexed by ProcId),
// not per carrier thread — under oversubscription a correctly parked
// coroutine owns no thread, and a per-thread view would misread M-N
// runnable-but-unscheduled processes as a wedged run. The watchdog's
// stagnation window scales by ⌈M/N⌉ for the same reason: one logical
// process legitimately waits ~M/N scheduling quanta between its own
// steps, so a window tuned for 1:1 fires spuriously at 16:1. (Callers
// still apply LLSC_TIMEOUT_SCALE via scale_timeout_ms when arming tight
// windows; the two factors compose.)
//
// Everything here is an implementation detail of the executors — tests
// and benches should not include this header.
#ifndef LLSC_HW_RUN_SUPPORT_H_
#define LLSC_HW_RUN_SUPPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hw/fault.h"
#include "hw/hw_executor.h"
#include "hw/hw_memory.h"
#include "hw/platform.h"
#include "runtime/toss.h"

namespace llsc {

struct OversubRunOptions;

namespace hw_internal {

using Clock = std::chrono::steady_clock;

// Thrown out of the monitored platform to unwind a worker's coroutine
// stack; caught by the executor's worker loop and turned into a per-
// process outcome. These never escape an executor's run().
struct CrashStopSignal {};
struct CancelledSignal {};

// Per-logical-process progress state, padded so the watchdog's reads
// don't share lines with the workers' increments. Incarnations and
// recovery waits feed the watchdog's stagnation signature alongside raw
// steps: a process serving its recovery delay takes no shared steps, and
// a freshly restarted one may re-execute the same step count — neither
// must read as a wedged run, and neither must count double as progress
// (the signature sums all three, so each restart/wait-unit moves it
// exactly once).
struct alignas(64) WorkerProgress {
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint32_t> incarnations{0};
  std::atomic<std::uint64_t> recovery_waits{0};
  std::atomic<bool> finished{false};
};

// Shared run monitor: the cancel flag every worker polls at each shared
// step, plus the per-process progress counters the watchdog watches. Each
// sits on its own cache line, apart from whatever the run's stack frame
// puts next to the monitor.
struct RunMonitor {
  explicit RunMonitor(int m) : progress(static_cast<std::size_t>(m)) {}

  void check_cancel(ProcId p) const {
    if (cancel.load(std::memory_order_relaxed)) {
      (void)p;
      throw CancelledSignal{};
    }
  }
  void note_step(ProcId p) {
    progress[static_cast<std::size_t>(p)].steps.fetch_add(
        1, std::memory_order_relaxed);
  }
  // A scheduling edge (resume / cooperative yield in the oversubscribed
  // executor) counts as progress too: an open-loop service body waiting
  // for its arrival time yields in a loop without taking shared steps,
  // and must not read as stagnant while the scheduler is cycling it.
  void note_sched(ProcId p) { note_step(p); }
  // A crash-recovery restart of p (new incarnation about to run).
  void note_restart(ProcId p) {
    progress[static_cast<std::size_t>(p)].incarnations.fetch_add(
        1, std::memory_order_relaxed);
  }
  // One served unit of p's recovery delay.
  void note_recovery_wait(ProcId p) {
    progress[static_cast<std::size_t>(p)].recovery_waits.fetch_add(
        1, std::memory_order_relaxed);
  }

  alignas(64) std::atomic<bool> cancel{false};
  alignas(64) std::vector<WorkerProgress> progress;
};

// The hw platform: steps execute inline against HwMemory, with the
// robustness hooks — a cancellation checkpoint and a progress tick on
// every shared-memory op and toss, and (when a plan is installed) the
// fault injector in front of the memory. Worker bodies
// therefore observe watchdog cancellation and crash-stops as exceptions
// at step boundaries — a body that loops without ever taking a step
// cannot be cancelled (nothing can preempt a native thread), which is
// why tests keep a ctest-level timeout as backstop.
//
// With `yields` a coroutine gives its carrier back after every shared op
// and at every ctx.yield() (OversubscribedExecutor); without it, never
// (HwExecutor).
class MonitoredHwPlatform final : public Platform {
 public:
  MonitoredHwPlatform(HwMemory* memory,
                      std::shared_ptr<const TossAssignment> tosses,
                      FaultInjector* injector, RunMonitor* monitor,
                      std::uint32_t stall_unit_ns, bool yields)
      : memory_(memory),
        tosses_(std::move(tosses)),
        injector_(injector),
        monitor_(monitor),
        stall_unit_ns_(stall_unit_ns),
        yields_(yields) {}

  bool synchronous() const override { return true; }
  bool yields() const override { return yields_; }

  OpResult apply(ProcId p, const PendingOp& op) override {
    monitor_->check_cancel(p);
    OpResult result;
    if (injector_ != nullptr) {
      if (injector_->crash_pending(p)) {
        injector_->note_crash(p);
        RecoverySpec rspec;
        if (injector_->recovery_spec(p, &rspec) && !rspec.amnesia) {
          // Pause-and-resume recovery needs no frame teardown: consume
          // the crash, serve the delay in place, and fall through to the
          // op the process was about to take. Amnesiac recovery must
          // unwind the coroutine, so it throws to the worker loop.
          const std::uint32_t units = injector_->note_recovery(p);
          recovery_wait(p, units);
        } else {
          throw CrashStopSignal{};
        }
      }
      result = injector_->apply(
          p, op, [&](const PendingOp& o) { return memory_->apply(p, o); },
          [&](std::uint32_t units) { stall(p, units); });
    } else {
      result = memory_->apply(p, op);
    }
    monitor_->note_step(p);
    return result;
  }

  std::uint64_t toss(ProcId p, std::uint64_t j) override {
    monitor_->check_cancel(p);
    monitor_->note_step(p);
    return tosses_->outcome(p, j);
  }

  std::string name() const override { return "hw"; }

  // Serve p's recovery delay: like stall(), but each unit also ticks the
  // monitor's recovery_waits so the watchdog sees the wait as progress.
  // Public because the pool's worker loop serves the delay for the
  // amnesiac (thrown) path before respawning the coroutine. A cancel
  // during the wait still throws CancelledSignal — a watchdog-cancelled
  // recovery reads as kHung, not as a clean restart.
  void recovery_wait(ProcId p, std::uint32_t units) {
    for (std::uint32_t u = 0; u < units; ++u) {
      monitor_->check_cancel(p);
      monitor_->note_recovery_wait(p);
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_unit_ns_));
    }
  }

 private:
  // Injected delay: sleep unit by unit with a cancellation checkpoint per
  // unit, so a stalled worker still honours the watchdog promptly.
  void stall(ProcId p, std::uint32_t units) {
    for (std::uint32_t u = 0; u < units; ++u) {
      monitor_->check_cancel(p);
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_unit_ns_));
    }
  }

  HwMemory* memory_;
  std::shared_ptr<const TossAssignment> tosses_;
  FaultInjector* injector_;
  RunMonitor* monitor_;
  std::uint32_t stall_unit_ns_;
  bool yields_;
};

// Watchdog armed over one run: polls the wall-clock deadline and the
// per-process progress counters, and flips the monitor's cancel flag when
// the run is out of budget or wedged. Construct after the start gate
// opens (t0 = the moment the clock starts); stop() after the workers
// join. Unarmed configs (both windows 0) spawn no thread.
class Watchdog {
 public:
  struct Config {
    std::uint64_t deadline_ms = 0;          // 0 = no deadline
    std::uint64_t progress_timeout_ms = 0;  // 0 = no stagnation check
    std::uint64_t poll_ms = 5;
    // ⌈M/N⌉ — logical processes per carrier thread, 1 on a 1:1 run. Multiplies progress_timeout_ms, NOT deadline_ms: the
    // run-wide wall budget is a caller promise independent of how the
    // work is scheduled.
    std::uint64_t oversub_factor = 1;
  };

  Watchdog(RunMonitor* monitor, const Config& config, Clock::time_point t0)
      : monitor_(monitor), config_(config), t0_(t0) {
    if (config_.oversub_factor == 0) config_.oversub_factor = 1;
    if (config_.deadline_ms > 0 || config_.progress_timeout_ms > 0) {
      thread_ = std::thread([this] { loop(); });
    }
  }
  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Signal run completion and join the poll thread. Idempotent.
  void stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      run_finished_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    const auto poll = std::chrono::milliseconds(
        std::max<std::uint64_t>(1, config_.poll_ms));
    const std::chrono::milliseconds stagnation_window{
        config_.progress_timeout_ms * config_.oversub_factor};
    const int m = static_cast<int>(monitor_->progress.size());
    std::uint64_t last_sum = ~0ull;
    int last_finished = -1;
    Clock::time_point last_change = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, poll, [&] { return run_finished_; })) {
        return;
      }
      const Clock::time_point now = Clock::now();
      if (config_.deadline_ms > 0 &&
          now - t0_ >= std::chrono::milliseconds(config_.deadline_ms)) {
        monitor_->cancel.store(true, std::memory_order_relaxed);
        continue;  // keep waiting for run_finished
      }
      if (config_.progress_timeout_ms > 0) {
        // The change signature folds in restarts and recovery-delay units
        // so a recovering process is not declared hung mid-rejoin. (steps
        // can only grow, so summing the three cannot mask a stall.)
        std::uint64_t sum = 0;
        int finished = 0;
        for (const WorkerProgress& w : monitor_->progress) {
          sum += w.steps.load(std::memory_order_relaxed);
          sum += w.incarnations.load(std::memory_order_relaxed);
          sum += w.recovery_waits.load(std::memory_order_relaxed);
          finished += w.finished.load(std::memory_order_relaxed) ? 1 : 0;
        }
        if (sum != last_sum || finished != last_finished) {
          last_sum = sum;
          last_finished = finished;
          last_change = now;
        } else if (finished < m && now - last_change >= stagnation_window) {
          monitor_->cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  RunMonitor* monitor_;
  Config config_;
  Clock::time_point t0_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool run_finished_ = false;
  std::thread thread_;
};

// The pool: runs body(ctx, i, m) for i in [0, m) on
// min(options.num_threads, m) carrier threads (0 = hardware concurrency).
// With `yields` coroutines give their carrier back after every shared op;
// without it, never. At m <= N each carrier runs one process from start
// to finish: no steals, no idle parking. Returns the result both
// executors report.
HwRunResult run_pool(const OversubRunOptions& options, int m, bool yields,
                     const ProcBody& body);

}  // namespace hw_internal
}  // namespace llsc

#endif  // LLSC_HW_RUN_SUPPORT_H_
