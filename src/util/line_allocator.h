// LineAllocator — the allocator of the per-process and per-carrier tables
// (process control blocks, HwMemory's link rows and slot contexts,
// FaultInjector's lanes), whose element types are cache-line aligned so
// that no two rows share a line.
//
// It hands out alignof(T)-aligned blocks without an aligned allocation. glibc
// serves an aligned request by asking its heap for `alignment` more bytes
// than it returns, so a freed table never fits the next request for a table
// of the same size; a process that builds and frees many same-sized tables
// (one per run or Monte-Carlo sample) then grows its heap by whole tables
// (peak RSS +3 MB for the 16384-process simulator). A plain allocation with
// the slack added by hand is reused like any other block.
#ifndef LLSC_UTIL_LINE_ALLOCATOR_H_
#define LLSC_UTIL_LINE_ALLOCATOR_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>

namespace llsc {

template <typename T>
struct LineAllocator {
  using value_type = T;

  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    // The block, its alignment slack, and the raw pointer, kept just below
    // the block for deallocate.
    std::size_t space = n * sizeof(T) + alignof(T) + sizeof(void*);
    void* const raw = ::operator new(space);
    void* block = static_cast<char*>(raw) + sizeof(void*);
    space -= sizeof(void*);
    std::align(alignof(T), n * sizeof(T), block, space);
    std::memcpy(static_cast<char*>(block) - sizeof(void*), &raw,
                sizeof(void*));
    return static_cast<T*>(block);
  }

  void deallocate(T* block, std::size_t /*n*/) noexcept {
    void* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<char*>(block) - sizeof(void*),
                sizeof(void*));
    ::operator delete(raw);
  }

  friend bool operator==(const LineAllocator&, const LineAllocator&) {
    return true;
  }
};

}  // namespace llsc

#endif  // LLSC_UTIL_LINE_ALLOCATOR_H_
