// Pike VM: executes a compiled NFA program over a byte buffer in
// O(input * program) worst case with no backtracking -- classification sits
// on the packet path, so pathological patterns must not blow up.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rex/program.h"

namespace upbound::rex {

/// Reusable VM scratch state. Not thread-safe; create one per thread.
class PikeVm {
 public:
  /// True if the pattern matches starting at input offset 0.
  bool match_at_start(const Program& program,
                      std::span<const std::uint8_t> input);

  /// True if the pattern matches anywhere in the input (unanchored search).
  /// A program compiled as `anchored` runs anchored.
  bool search(const Program& program, std::span<const std::uint8_t> input);

 private:
  bool run(const Program& program, std::span<const std::uint8_t> input,
           bool anchored);

  // Adds pc (following epsilon transitions) to the next thread list.
  void add_thread(const Program& program, std::uint32_t pc, std::size_t pos,
                  std::size_t input_size, std::vector<std::uint32_t>& list);

  /// Starts a new epsilon-closure generation; clears the stamps only when
  /// the counter wraps.
  void next_generation();

  std::vector<std::uint32_t> current_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> stack_;   // add_thread's closure stack
  std::vector<std::uint32_t> seen_;    // generation stamps per pc
  std::uint32_t generation_ = 0;
  bool matched_ = false;
};

}  // namespace upbound::rex
