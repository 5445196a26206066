// Compiled NFA program: a flat instruction array executed by the Pike VM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rex/ast.h"

namespace upbound::rex {

enum class OpCode : std::uint8_t {
  kByteSet,  // consume one byte if class_table[arg1] contains it
  kAny,      // consume any byte
  kSplit,    // fork execution to arg1 and arg2
  kJump,     // continue at arg1
  kAssertStart,
  kAssertEnd,
  kMatch,
};

struct Instruction {
  OpCode op;
  std::uint32_t arg1 = 0;
  std::uint32_t arg2 = 0;
};

struct Program {
  std::vector<Instruction> code;
  std::vector<ByteSet> classes;  // referenced by kByteSet.arg1

  // Entry facts, filled in by compile() from the epsilon closure of pc 0
  // at input position 0 of a non-empty input.
  /// code[0] is kAssertStart: no match can begin past offset 0, so an
  /// unanchored search is an anchored one.
  bool anchored = false;
  /// Bytes some consuming instruction of the closure accepts: an anchored
  /// run over input whose first byte is outside the set cannot match,
  /// unless `matches_empty_prefix`.
  ByteSet first_bytes;
  /// The closure reaches kMatch: every non-empty input matches at offset 0.
  bool matches_empty_prefix = false;

  std::size_t size() const { return code.size(); }

  /// Human-readable disassembly for debugging.
  std::string disassemble() const;
};

}  // namespace upbound::rex
