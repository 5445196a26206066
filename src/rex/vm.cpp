#include "rex/vm.h"

#include <algorithm>

namespace upbound::rex {

void PikeVm::add_thread(const Program& program, std::uint32_t pc,
                        std::size_t pos, std::size_t input_size,
                        std::vector<std::uint32_t>& list) {
  // Iterative epsilon closure; the explicit stack keeps deep programs from
  // overflowing the call stack.
  stack_.clear();
  stack_.push_back(pc);
  while (!stack_.empty()) {
    const std::uint32_t p = stack_.back();
    stack_.pop_back();
    if (seen_[p] == generation_) continue;
    seen_[p] = generation_;
    const Instruction& ins = program.code[p];
    switch (ins.op) {
      case OpCode::kJump:
        stack_.push_back(ins.arg1);
        break;
      case OpCode::kSplit:
        // Push arg2 first so arg1 (the greedy branch) is explored first;
        // for boolean matching order does not change the answer.
        stack_.push_back(ins.arg2);
        stack_.push_back(ins.arg1);
        break;
      case OpCode::kAssertStart:
        if (pos == 0) stack_.push_back(p + 1);
        break;
      case OpCode::kAssertEnd:
        if (pos == input_size) stack_.push_back(p + 1);
        break;
      case OpCode::kMatch:
        matched_ = true;
        break;
      default:
        list.push_back(p);
        break;
    }
  }
}

void PikeVm::next_generation() {
  if (++generation_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    generation_ = 1;
  }
}

bool PikeVm::run(const Program& program, std::span<const std::uint8_t> input,
                 bool anchored) {
  // An anchored match must consume a first byte the entry closure accepts
  // (or match empty): reject the rest without touching the VM state.
  if (anchored && !input.empty() && !program.matches_empty_prefix &&
      !program.first_bytes.test(input[0])) {
    return false;
  }
  current_.clear();
  next_.clear();
  if (seen_.size() != program.code.size()) {
    seen_.assign(program.code.size(), 0);
    generation_ = 0;
  }
  matched_ = false;

  next_generation();
  add_thread(program, 0, 0, input.size(), current_);
  if (matched_) return true;

  for (std::size_t pos = 0; pos < input.size(); ++pos) {
    if (current_.empty() && (anchored || matched_)) break;
    const std::uint8_t byte = input[pos];
    next_generation();
    next_.clear();
    for (const std::uint32_t pc : current_) {
      const Instruction& ins = program.code[pc];
      const bool consumes =
          ins.op == OpCode::kAny ||
          (ins.op == OpCode::kByteSet && program.classes[ins.arg1].test(byte));
      if (consumes) {
        add_thread(program, pc + 1, pos + 1, input.size(), next_);
        if (matched_) return true;
      }
    }
    if (!anchored) {
      // Unanchored search: seed a fresh attempt at every offset.
      add_thread(program, 0, pos + 1, input.size(), next_);
      if (matched_) return true;
    }
    std::swap(current_, next_);
  }
  return matched_;
}

bool PikeVm::match_at_start(const Program& program,
                            std::span<const std::uint8_t> input) {
  return run(program, input, /*anchored=*/true);
}

bool PikeVm::search(const Program& program,
                    std::span<const std::uint8_t> input) {
  return run(program, input, program.anchored);
}

}  // namespace upbound::rex
