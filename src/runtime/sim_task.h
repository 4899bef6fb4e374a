// Coroutine type for simulated processes.
//
// A process body is a C++20 coroutine returning SimTask. Each shared-memory
// operation and each coin toss is a co_await that suspends the coroutine;
// while suspended, the process's control block (runtime/process.h) exposes
// the *pending* step so a scheduler can inspect it — the Fig. 2 adversary
// partitions processes by the type of their next shared-memory operation
// before deciding who runs when, which is exactly this inspection.
//
// The coroutine starts suspended (the scheduler decides when the first local
// computation happens) and finishes suspended (the frame stays alive until
// the owning Process is destroyed, so the return value can be read).
#ifndef LLSC_RUNTIME_SIM_TASK_H_
#define LLSC_RUNTIME_SIM_TASK_H_

#include <coroutine>
#include <exception>
#include <utility>

#include "memory/value.h"
#include "runtime/frame_arena.h"

namespace llsc {

class SimTask {
 public:
  struct promise_type {
    Value result;
    std::exception_ptr exception;

    SimTask get_return_object() {
      return SimTask(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(Value v) { result = std::move(v); }
    void unhandled_exception() { exception = std::current_exception(); }

    // From the thread's open FrameArena scope, else the heap.
    static void* operator new(std::size_t size) {
      return FrameArena::allocate_frame(size);
    }
    static void operator delete(void* frame) noexcept {
      FrameArena::free_frame(frame);
    }
  };

  SimTask() = default;
  explicit SimTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  SimTask(SimTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~SimTask() { destroy(); }

  std::coroutine_handle<promise_type> handle() const { return handle_; }
  bool valid() const { return handle_ != nullptr; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace llsc

#endif  // LLSC_RUNTIME_SIM_TASK_H_
