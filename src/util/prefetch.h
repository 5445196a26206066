// Software prefetch hints for the batched datapath. The batch pipeline
// computes all hash indexes for a chunk first, issues prefetches for every
// bit-vector word the chunk will touch, and only then dereferences them --
// turning a serial chain of dependent cache misses into overlapped ones
// (memory-level parallelism). On compilers without __builtin_prefetch the
// hints compile to nothing; correctness never depends on them.
//
// Every function whose only effect is a prefetch must be always_inline,
// these helpers included. GCC counts a prefetch as no side effect, so a
// call to such a function that is not inlined early is a call to a
// "const" function returning nothing -- and is deleted, hint and all.
#pragma once

#include <cstddef>
#include <cstdint>

namespace upbound {

[[gnu::always_inline]] inline void prefetch_read(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 3);
#else
  (void)addr;
#endif
}

[[gnu::always_inline]] inline void prefetch_write(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 1, 3);
#else
  (void)addr;
#endif
}

/// prefetch_write for every 64-byte line overlapping [addr, addr + bytes).
[[gnu::always_inline]] inline void prefetch_write_lines(const void* addr,
                                                        std::size_t bytes) {
  constexpr std::uintptr_t kLine = 64;
  const auto first = reinterpret_cast<std::uintptr_t>(addr) & ~(kLine - 1);
  const auto end = reinterpret_cast<std::uintptr_t>(addr) + bytes;
  for (std::uintptr_t line = first; line < end; line += kLine) {
    prefetch_write(reinterpret_cast<const void*>(line));
  }
}

}  // namespace upbound
