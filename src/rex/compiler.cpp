#include "rex/compiler.h"

#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace upbound::rex {

namespace {

class Compiler {
 public:
  Program run(const Node& root) {
    emit_node(root);
    emit(OpCode::kMatch);
    analyze_entry();
    return std::move(program_);
  }

 private:
  /// Walks the epsilon closure of pc 0 at position 0 of a non-empty input
  /// (`^` holds there, `$` does not) and records what it can consume.
  void analyze_entry() {
    Program& p = program_;
    p.anchored = p.code.front().op == OpCode::kAssertStart;
    std::vector<bool> seen(p.code.size(), false);
    std::vector<std::uint32_t> stack{0};
    while (!stack.empty()) {
      const std::uint32_t pc = stack.back();
      stack.pop_back();
      if (seen[pc]) continue;
      seen[pc] = true;
      const Instruction& ins = p.code[pc];
      switch (ins.op) {
        case OpCode::kByteSet:
          p.first_bytes |= p.classes[ins.arg1];
          break;
        case OpCode::kAny:
          p.first_bytes.set();
          break;
        case OpCode::kSplit:
          stack.push_back(ins.arg2);
          stack.push_back(ins.arg1);
          break;
        case OpCode::kJump:
          stack.push_back(ins.arg1);
          break;
        case OpCode::kAssertStart:
          stack.push_back(pc + 1);
          break;
        case OpCode::kAssertEnd:
          break;
        case OpCode::kMatch:
          p.matches_empty_prefix = true;
          break;
      }
    }
  }

  std::uint32_t emit(OpCode op, std::uint32_t arg1 = 0,
                     std::uint32_t arg2 = 0) {
    program_.code.push_back(Instruction{op, arg1, arg2});
    return static_cast<std::uint32_t>(program_.code.size() - 1);
  }

  std::uint32_t here() const {
    return static_cast<std::uint32_t>(program_.code.size());
  }

  std::uint32_t class_index(const ByteSet& set) {
    // Dedupe classes; patterns reuse the same sets heavily.
    const std::string key = set.to_string();
    const auto [it, inserted] =
        class_cache_.try_emplace(key, program_.classes.size());
    if (inserted) program_.classes.push_back(set);
    return static_cast<std::uint32_t>(it->second);
  }

  void emit_node(const Node& node) {
    switch (node.kind) {
      case NodeKind::kEmpty:
        break;
      case NodeKind::kByteSet:
        emit(OpCode::kByteSet, class_index(node.bytes));
        break;
      case NodeKind::kAny:
        emit(OpCode::kAny);
        break;
      case NodeKind::kAssertStart:
        emit(OpCode::kAssertStart);
        break;
      case NodeKind::kAssertEnd:
        emit(OpCode::kAssertEnd);
        break;
      case NodeKind::kConcat:
        for (const auto& child : node.children) emit_node(*child);
        break;
      case NodeKind::kAlternate:
        emit_alternate(node);
        break;
      case NodeKind::kRepeat:
        emit_repeat(node);
        break;
    }
  }

  void emit_alternate(const Node& node) {
    // branch_i preceded by Split(branch_i, next_split); each branch ends
    // with Jump(end).
    std::vector<std::uint32_t> jumps;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      const bool last = i + 1 == node.children.size();
      std::uint32_t split = 0;
      if (!last) split = emit(OpCode::kSplit);
      emit_node(*node.children[i]);
      if (!last) {
        jumps.push_back(emit(OpCode::kJump));
        // First alternative begins right after the split.
        program_.code[split].arg1 = split + 1;
        program_.code[split].arg2 = here();
      }
    }
    for (std::uint32_t j : jumps) program_.code[j].arg1 = here();
  }

  void emit_repeat(const Node& node) {
    const Node& child = *node.children.front();
    const int min = node.min;
    const int max = node.max;

    // Mandatory copies.
    for (int i = 0; i < min; ++i) emit_node(child);

    if (max == kUnbounded) {
      // Kleene star over the remainder: L1: Split(L2, L3); L2: child;
      // Jump(L1); L3:
      const std::uint32_t l1 = emit(OpCode::kSplit);
      emit_node(child);
      emit(OpCode::kJump, l1);
      program_.code[l1].arg1 = l1 + 1;
      program_.code[l1].arg2 = here();
      return;
    }

    // (max - min) optional copies, each guarded by a Split that can bail
    // straight to the end.
    std::vector<std::uint32_t> splits;
    for (int i = min; i < max; ++i) {
      const std::uint32_t s = emit(OpCode::kSplit);
      splits.push_back(s);
      program_.code[s].arg1 = s + 1;
      emit_node(child);
    }
    for (std::uint32_t s : splits) program_.code[s].arg2 = here();
  }

  Program program_;
  std::unordered_map<std::string, std::size_t> class_cache_;
};

}  // namespace

Program compile(const Node& root) { return Compiler{}.run(root); }

std::string Program::disassemble() const {
  std::string out;
  char line[96];
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Instruction& ins = code[i];
    switch (ins.op) {
      case OpCode::kByteSet: {
        const std::size_t population = classes[ins.arg1].count();
        std::snprintf(line, sizeof(line), "%4zu  byteset class=%u (|%zu|)\n",
                      i, ins.arg1, population);
        break;
      }
      case OpCode::kAny:
        std::snprintf(line, sizeof(line), "%4zu  any\n", i);
        break;
      case OpCode::kSplit:
        std::snprintf(line, sizeof(line), "%4zu  split -> %u, %u\n", i,
                      ins.arg1, ins.arg2);
        break;
      case OpCode::kJump:
        std::snprintf(line, sizeof(line), "%4zu  jump -> %u\n", i, ins.arg1);
        break;
      case OpCode::kAssertStart:
        std::snprintf(line, sizeof(line), "%4zu  assert ^\n", i);
        break;
      case OpCode::kAssertEnd:
        std::snprintf(line, sizeof(line), "%4zu  assert $\n", i);
        break;
      case OpCode::kMatch:
        std::snprintf(line, sizeof(line), "%4zu  match\n", i);
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace upbound::rex
