// Run plumbing of the real-thread pool.
//
// One run loop serves both public executors: OversubscribedExecutor runs
// M logical processes on N carrier threads, yielding after every shared
// op, and HwExecutor is the same pool at N = M with a platform that never
// yields. Below are the signals that unwind a worker's coroutine stack,
// the per-carrier progress monitor the watchdog reads, the
// Platform wrapper that adds cancellation checkpoints + fault injection
// in front of HwMemory, the watchdog thread itself, and the pool's entry
// point (run_pool, defined in hw/oversub_executor.cc).
//
// The monitor counts progress per CARRIER thread: one tick counter each,
// written only by its carrier, which ticks for every step it runs of any
// process, every scheduling edge, restart and recovery-delay unit. The
// watchdog reads only their sum and the count of unfinished processes, so
// it needs nothing per process. A correctly parked coroutine owns no
// thread, so the stagnation window scales by ⌈M/N⌉: one logical process
// legitimately waits ~M/N scheduling quanta between its own steps, and a
// window tuned for 1:1 would fire spuriously at 16:1. (Callers still
// apply LLSC_TIMEOUT_SCALE via scale_timeout_ms when arming tight
// windows; the two factors compose.)
//
// Everything here is an implementation detail of the executors — tests
// and benches should not include this header.
#ifndef LLSC_HW_RUN_SUPPORT_H_
#define LLSC_HW_RUN_SUPPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "hw/fault.h"
#include "hw/hw_executor.h"
#include "hw/hw_memory.h"
#include "hw/platform.h"
#include "runtime/toss.h"
#include "util/line_allocator.h"

namespace llsc {

struct OversubRunOptions;

namespace hw_internal {

using Clock = std::chrono::steady_clock;

// Thrown out of the monitored platform to unwind a worker's coroutine
// stack; caught by the executor's worker loop and turned into a per-
// process outcome. These never escape an executor's run().
struct CrashStopSignal {};
struct CancelledSignal {};

// One carrier's progress ticks, on a line of its own so the watchdog's
// reads don't share it with another carrier's increments.
struct alignas(64) CarrierTicks {
  std::atomic<std::uint64_t> ticks{0};
};

// Shared run monitor: the cancel flag every worker polls at each shared
// step, the per-carrier ticks and the unfinished-process count the
// watchdog watches. Each hot word sits on its own cache line.
struct RunMonitor {
  RunMonitor(int carriers, int m)
      : carriers(static_cast<std::size_t>(carriers)), remaining(m) {}

  void check_cancel() const {
    if (cancel.load(std::memory_order_relaxed)) throw CancelledSignal{};
  }
  // One unit of progress on the calling carrier: a shared step or toss, a
  // scheduling edge (an open-loop service body waiting for its arrival
  // time yields in a loop without taking shared steps, and must not read
  // as stagnant while the scheduler is cycling it), a crash-recovery
  // restart (a restarted incarnation may re-execute the same step count),
  // or one served unit of a recovery delay (a recovering process takes no
  // shared steps). Each event moves the sum exactly once. Only the
  // carrier writes its counter, so a relaxed load and store suffice.
  void tick() {
    std::atomic<std::uint64_t>& t =
        carriers[static_cast<std::size_t>(current_carrier())].ticks;
    t.store(t.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  std::uint64_t tick_sum() const {
    std::uint64_t sum = 0;
    for (const CarrierTicks& c : carriers) {
      sum += c.ticks.load(std::memory_order_relaxed);
    }
    return sum;
  }

  alignas(64) std::atomic<bool> cancel{false};
  std::vector<CarrierTicks, LineAllocator<CarrierTicks>> carriers;
  // Processes not yet finished (done, crashed, hung or failed); the pool's
  // workers stop when it reaches 0.
  alignas(64) std::atomic<int> remaining;
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

  bool yields() const override { return yields_; }

  OpResult apply(ProcId p, std::uint64_t k, const PendingOp& op) override {
    monitor_->check_cancel();
    OpResult result;
    if (injector_ != nullptr) {
      if (injector_->take_crash(p, k)) {
        RecoverySpec rspec;
        if (injector_->recovery_spec(p, &rspec) && !rspec.amnesia) {
          // Pause-and-resume recovery needs no frame teardown: consume
          // the crash, serve the delay in place, and fall through to the
          // op the process was about to take. Amnesiac recovery must
          // unwind the coroutine, so it throws to the worker loop.
          const std::uint32_t units = injector_->note_recovery(p, rspec);
          recovery_wait(units);
        } else {
          throw CrashStopSignal{};
        }
      }
      result = injector_->apply(
          p, k, op, [&](const PendingOp& o) { return memory_->apply(p, o); },
          [&](std::uint32_t units) { stall(units); });
    } else {
      result = memory_->apply(p, op);
    }
    monitor_->tick();
    return result;
  }

  std::uint64_t toss(ProcId p, std::uint64_t j) override {
    monitor_->check_cancel();
    monitor_->tick();
    return tosses_->outcome(p, j);
  }

  // Serve p's recovery delay: like stall(), but each unit also ticks the
  // monitor so the watchdog sees the wait as progress.
  // Public because the pool's worker loop serves the delay for the
  // amnesiac (thrown) path before respawning the coroutine. A cancel
  // during the wait still throws CancelledSignal — a watchdog-cancelled
  // recovery reads as kHung, not as a clean restart.
  void recovery_wait(std::uint32_t units) {
    for (std::uint32_t u = 0; u < units; ++u) {
      monitor_->check_cancel();
      monitor_->tick();
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_unit_ns_));
    }
  }

 private:
  // Injected delay: sleep unit by unit with a cancellation checkpoint per
  // unit, so a stalled worker still honours the watchdog promptly.
  void stall(std::uint32_t units) {
    for (std::uint32_t u = 0; u < units; ++u) {
      monitor_->check_cancel();
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

// Watchdog poll period. A firing lands at most one period after its
// window closes.
inline constexpr std::chrono::milliseconds kWatchdogPoll{5};

// Watchdog armed over one run: polls the wall-clock deadline and the
// monitor's progress ticks every kWatchdogPoll, and flips the monitor's
// cancel flag when the run is out of budget or wedged. Construct after
// the start gate opens (t0 = the moment the clock starts); stop() after
// the workers join. Unarmed configs (both windows 0) spawn no thread.
class Watchdog {
 public:
  struct Config {
    std::uint64_t deadline_ms = 0;          // 0 = no deadline
    std::uint64_t progress_timeout_ms = 0;  // 0 = no stagnation check
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
    const std::chrono::milliseconds stagnation_window{
        config_.progress_timeout_ms * config_.oversub_factor};
    std::uint64_t last_sum = ~0ull;
    int last_remaining = -1;
    Clock::time_point last_change = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, kWatchdogPoll, [&] { return run_finished_; })) {
        return;
      }
      const Clock::time_point now = Clock::now();
      if (config_.deadline_ms > 0 &&
          now - t0_ >= std::chrono::milliseconds(config_.deadline_ms)) {
        monitor_->cancel.store(true, std::memory_order_relaxed);
        continue;  // keep waiting for run_finished
      }
      if (config_.progress_timeout_ms > 0) {
        // The ticks fold in restarts and recovery-delay units so a
        // recovering process is not declared hung mid-rejoin; ticks only
        // grow, so the sum cannot mask a stall.
        const std::uint64_t sum = monitor_->tick_sum();
        const int remaining =
            monitor_->remaining.load(std::memory_order_relaxed);
        if (sum != last_sum || remaining != last_remaining) {
          last_sum = sum;
          last_remaining = remaining;
          last_change = now;
        } else if (remaining > 0 && now - last_change >= stagnation_window) {
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

// Carrier threads (N) of a pool run of m >= 1 processes: `requested`, or
// the hardware concurrency when it is 0, at least 1 and capped at m.
// run_pool and service mode's group count both come from here.
int carrier_count(int requested, int m);

// The pool: runs body(ctx, i, m) for i in [0, m) on
// carrier_count(options.num_threads, m) carrier threads.
// With `yields` coroutines give their carrier back after every shared op;
// without it, never. At m <= N each carrier runs one process from start
// to finish: no steals, no idle parking. Returns the result both
// executors report.
HwRunResult run_pool(const OversubRunOptions& options, int m, bool yields,
                     const ProcBody& body);

}  // namespace hw_internal
}  // namespace llsc

#endif  // LLSC_HW_RUN_SUPPORT_H_
