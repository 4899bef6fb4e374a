// The simulator's one thread pool: the caller and count - 1 workers, which
// start with the crew and are pinned to distinct cores. run() hands out
// the chunks of one pass: the Fig. 2 adversary's per-process pass runs a
// pass per round, the Monte-Carlo driver (hw/mc_driver.cc) one sample per
// chunk. Thread t runs its own chunks, from t * chunks / count on, first,
// then any chunk nobody has claimed yet, so a thread whose core is slow
// holds back little. A crew of one runs every chunk on the caller, in
// order. Either way run() rethrows the exception of the lowest chunk that
// threw.
#ifndef LLSC_UTIL_CREW_H_
#define LLSC_UTIL_CREW_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/spin.h"

namespace llsc {

// Threads for `items` work items: `requested` when positive, else
// min(hardware threads, items / min_per_thread); never below 1 or above
// `items`. A negative request is a precondition failure.
int crew_size(int requested, int items, int min_per_thread);

class Crew {
 public:
  // `work(t, c)` runs chunk c of the current pass on crew thread t; the
  // caller is thread 0.
  Crew(int count, int chunks, std::function<void(int, int)> work)
      : count_(count),
        claims_(static_cast<std::size_t>(chunks)),
        errors_(static_cast<std::size_t>(chunks)),
        work_(std::move(work)) {
    workers_.reserve(static_cast<std::size_t>(count - 1));
    try {
      for (int t = 1; t < count; ++t) {
        workers_.emplace_back([this, t] { serve(t); });
      }
    } catch (...) {
      stop();
      throw;
    }
    pin_workers(workers_);
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;
  ~Crew() { stop(); }

  // Runs every chunk and returns when all of them finished. With `here`
  // on, the calling thread runs them all, in chunk order.
  void run(bool here = false) {
    const int chunks = static_cast<int>(claims_.size());
    if (here || workers_.empty()) {
      for (int c = 0; c < chunks; ++c) work_(0, c);
      return;
    }
    done_.store(0, std::memory_order_relaxed);
    // Publishes the pass: a worker that reads the new epoch sees every
    // write the caller made before it.
    const std::uint64_t epoch =
        epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    claim(0, epoch);
    wait_until(
        [&] { return done_.load(std::memory_order_acquire) == chunks; });
    for (const std::exception_ptr& e : errors_) {
      if (e != nullptr) std::rethrow_exception(e);
    }
  }

 private:
  // Polls a waiter spins before it yields its core: workers yield through
  // the tens to hundreds of microseconds the adversary's caller applies a
  // round alone, and catch the short end-of-pass join while spinning.
  static constexpr int kSpinPolls = 1 << 12;

  template <typename Ready>
  static void wait_until(const Ready& ready) {
    for (int polls = 0; !ready(); ++polls) {
      if (polls < kSpinPolls) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  static void pin_workers(std::vector<std::thread>& workers);

  // Runs the chunks of pass `epoch` that thread t wins, its own first. A
  // chunk goes to the first thread that moves its claim from below `epoch`
  // to `epoch`; a worker still holding an older epoch wins none.
  void claim(int t, std::uint64_t epoch) {
    const int chunks = static_cast<int>(claims_.size());
    const int first = t * chunks / count_;
    for (int k = 0; k < chunks; ++k) {
      const int c = (first + k) % chunks;
      std::atomic<std::uint64_t>& claim = claims_[static_cast<std::size_t>(c)];
      std::uint64_t seen = claim.load(std::memory_order_relaxed);
      if (seen >= epoch ||
          !claim.compare_exchange_strong(seen, epoch,
                                         std::memory_order_acq_rel)) {
        continue;
      }
      std::exception_ptr& error = errors_[static_cast<std::size_t>(c)];
      error = nullptr;
      try {
        work_(t, c);
      } catch (...) {
        error = std::current_exception();
      }
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  void serve(int t) {
    std::uint64_t seen = 0;
    for (;;) {
      wait_until([&] {
        return epoch_.load(std::memory_order_acquire) != seen ||
               stop_.load(std::memory_order_acquire);
      });
      if (stop_.load(std::memory_order_acquire)) return;
      seen = epoch_.load(std::memory_order_acquire);
      claim(t, seen);
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  const int count_;
  // Per chunk: the last pass (epoch) it was claimed in, and what it threw.
  std::vector<std::atomic<std::uint64_t>> claims_;
  std::vector<std::exception_ptr> errors_;
  const std::function<void(int, int)> work_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace llsc

#endif  // LLSC_UTIL_CREW_H_
