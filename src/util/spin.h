// The pause a spin-wait issues between two polls of a shared word. Used by
// the hw retry loops' backoff (hw/backoff.h) and the simulator's thread
// crew (util/crew.h), which the adversary and the Monte-Carlo driver run on.
#ifndef LLSC_UTIL_SPIN_H_
#define LLSC_UTIL_SPIN_H_

#include <atomic>

namespace llsc {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace llsc

#endif  // LLSC_UTIL_SPIN_H_
