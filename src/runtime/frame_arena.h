// FrameArena — where a System's bodies keep their first coroutine frames.
//
// Every SimTask frame is allocated through SimTask::promise_type's operator
// new. While a FrameArena::Scope is open on a thread, the SimTask frames
// built on that thread are cut, in creation order, from the arena's large
// blocks, and the arena releases them all at once when it dies; every other
// frame comes from the global heap. System opens a scope around building
// its bodies, so p_0..p_{n-1}'s frames sit in id order and cost no
// allocator call each. That matters beyond the saved calls: once a process
// has started a second thread (the adversary's pass, the Monte-Carlo
// workers), glibc's malloc takes its arena lock on every call for the rest
// of the process's life. On a 4-core x86-64 host that made building and
// tearing down a 16384-process System ~25% slower (1.1 ms -> 1.5 ms).
//
// A frame carries a 16-byte header saying where it came from, so delete
// needs no arena at hand. Under AddressSanitizer there is no arena: every
// frame comes from the heap, so a use after free is still caught.
#ifndef LLSC_RUNTIME_FRAME_ARENA_H_
#define LLSC_RUNTIME_FRAME_ARENA_H_

#include <cstddef>
#include <new>
#include <vector>

namespace llsc {

#if defined(__SANITIZE_ADDRESS__)
#define LLSC_FRAME_ARENA 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LLSC_FRAME_ARENA 0
#endif
#endif
#ifndef LLSC_FRAME_ARENA
#define LLSC_FRAME_ARENA 1
#endif

class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena() {
    for (void* block : blocks_) ::operator delete(block);
  }

  // Routes the SimTask frames built on this thread into `arena` until the
  // scope closes.
  class Scope {
   public:
    explicit Scope(FrameArena& arena) : saved_(current_) {
      if (LLSC_FRAME_ARENA) current_ = &arena;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { current_ = saved_; }

   private:
    FrameArena* saved_;
  };

  // A frame of `size` bytes: from the open scope's arena, else the heap.
  static void* allocate_frame(std::size_t size) {
    const std::size_t total = kHeader + size;
    Header* h = current_ != nullptr
                    ? static_cast<Header*>(current_->cut(total))
                    : static_cast<Header*>(::operator new(total));
    h->from_arena = current_ != nullptr;
    return reinterpret_cast<char*>(h) + kHeader;
  }

  static void free_frame(void* frame) noexcept {
    Header* h = reinterpret_cast<Header*>(static_cast<char*>(frame) - kHeader);
    if (!h->from_arena) ::operator delete(h);
  }

 private:
  struct Header {
    bool from_arena;
  };
  static constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  static constexpr std::size_t kBlock = std::size_t{1} << 18;
  static_assert(sizeof(Header) <= kHeader);

  void* cut(std::size_t size) {
    size = (size + kHeader - 1) / kHeader * kHeader;
    if (left_ < size) {
      const std::size_t block = size > kBlock ? size : kBlock;
      blocks_.push_back(nullptr);  // first, so a throw here leaks nothing
      blocks_.back() = next_ = static_cast<char*>(::operator new(block));
      left_ = block;
    }
    void* out = next_;
    next_ += size;
    left_ -= size;
    return out;
  }

  static inline thread_local FrameArena* current_ = nullptr;
  std::vector<void*> blocks_;
  char* next_ = nullptr;
  std::size_t left_ = 0;
};

}  // namespace llsc

#endif  // LLSC_RUNTIME_FRAME_ARENA_H_
