// Property tests: the Pike VM is cross-checked against a tiny brute-force
// backtracking matcher over a restricted grammar (an optional leading '^',
// literals, '.', '*', '?', an optional trailing '$', optional case
// folding) on random inputs, and structural invariants are exercised with
// random byte strings.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "rex/regex.h"
#include "util/rng.h"

namespace upbound::rex {
namespace {

// Reference semantics for patterns limited to: an optional leading '^',
// literal bytes, '.', postfix '*' / '?' on the preceding element, and an
// optional trailing '$'. Backtracking search from every start offset (only
// offset 0 after '^'); `ignore_case` folds ASCII letters.
class ReferenceMatcher {
 public:
  explicit ReferenceMatcher(std::string_view pattern,
                            bool ignore_case = false)
      : ignore_case_(ignore_case) {
    if (!pattern.empty() && pattern.front() == '^') {
      anchored_ = true;
      pattern.remove_prefix(1);
    }
    if (!pattern.empty() && pattern.back() == '$') {
      end_anchored_ = true;
      pattern.remove_suffix(1);
    }
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      Element e;
      e.byte = pattern[i];
      e.any = pattern[i] == '.';
      if (i + 1 < pattern.size() &&
          (pattern[i + 1] == '*' || pattern[i + 1] == '?')) {
        e.star = pattern[i + 1] == '*';
        e.opt = pattern[i + 1] == '?';
        ++i;
      }
      elements_.push_back(e);
    }
  }

  bool search(std::string_view input) const {
    const std::size_t last_start = anchored_ ? 0 : input.size();
    for (std::size_t start = 0; start <= last_start; ++start) {
      if (match_here(0, input, start)) return true;
    }
    return false;
  }

  /// A match starting at offset 0.
  bool match_prefix(std::string_view input) const {
    return match_here(0, input, 0);
  }

 private:
  struct Element {
    char byte = 0;
    bool any = false;
    bool star = false;
    bool opt = false;
  };

  bool consumes(const Element& e, char c) const {
    if (e.any || e.byte == c) return true;
    return ignore_case_ &&
           std::tolower(static_cast<unsigned char>(e.byte)) ==
               std::tolower(static_cast<unsigned char>(c));
  }

  bool match_here(std::size_t ei, std::string_view input,
                  std::size_t pos) const {
    if (ei == elements_.size()) return !end_anchored_ || pos == input.size();
    const Element& e = elements_[ei];
    if (e.star) {
      for (std::size_t k = pos;; ++k) {
        if (match_here(ei + 1, input, k)) return true;
        if (k >= input.size() || !consumes(e, input[k])) return false;
      }
    }
    if (e.opt) {
      if (match_here(ei + 1, input, pos)) return true;
      return pos < input.size() && consumes(e, input[pos]) &&
             match_here(ei + 1, input, pos + 1);
    }
    return pos < input.size() && consumes(e, input[pos]) &&
           match_here(ei + 1, input, pos + 1);
  }

  bool ignore_case_ = false;
  bool anchored_ = false;
  bool end_anchored_ = false;
  std::vector<Element> elements_;
};

std::string random_pattern(Rng& rng, std::size_t len) {
  static constexpr char kAlphabet[] = "abc.";
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.next_below(4)];
    if (rng.next_bool(0.3)) out += rng.next_bool(0.5) ? '*' : '?';
  }
  return out;
}

std::string random_input(Rng& rng, std::size_t len) {
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>('a' + rng.next_below(3));
  }
  return out;
}

TEST(RexProperty, AgreesWithReferenceOnRandomPatterns) {
  Rng rng{20260706};
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string pattern = random_pattern(rng, 1 + rng.next_below(6));
    const ReferenceMatcher ref{pattern};
    const Regex re{pattern};
    for (int j = 0; j < 25; ++j) {
      const std::string input = random_input(rng, rng.next_below(12));
      ASSERT_EQ(re.search(input), ref.search(input))
          << "pattern '" << pattern << "' input '" << input << "'";
      ++checked;
    }
  }
  EXPECT_EQ(checked, 400 * 25);
}

// Anchored patterns, case folding and the empty input: the anchored fast
// path (first-byte rejection, anchored runs of '^' programs) must answer
// search and match_prefix exactly as the reference does.
TEST(RexProperty, AnchoredAndCaseFoldedAgreeWithReference) {
  Rng rng{20261019};
  static constexpr char kAlphabet[] = "abAB.";
  int checked = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string pattern = rng.next_bool(0.6) ? "^" : "";
    const std::size_t len = rng.next_below(5);
    for (std::size_t i = 0; i < len; ++i) {
      pattern += kAlphabet[rng.next_below(5)];
      if (rng.next_bool(0.3)) pattern += rng.next_bool(0.5) ? '*' : '?';
    }
    if (rng.next_bool(0.2)) pattern += '$';
    const bool ignore_case = rng.next_bool(0.5);
    const ReferenceMatcher ref{pattern, ignore_case};
    const Regex re{pattern, {.ignore_case = ignore_case}};
    for (int j = 0; j < 20; ++j) {
      std::string input;
      const std::size_t n = j == 0 ? 0 : rng.next_below(8);
      for (std::size_t k = 0; k < n; ++k) input += "abcAB"[rng.next_below(5)];
      ASSERT_EQ(re.search(input), ref.search(input))
          << "pattern '" << pattern << "' icase " << ignore_case
          << " input '" << input << "'";
      ASSERT_EQ(re.match_prefix(input), ref.match_prefix(input))
          << "pattern '" << pattern << "' icase " << ignore_case
          << " input '" << input << "'";
      ++checked;
    }
  }
  EXPECT_EQ(checked, 600 * 20);
}

struct AnchoredCase {
  const char* pattern;
  bool ignore_case;
  const char* input;
  bool matches;
};

// Shapes the first-byte analysis must get right: programs that match
// empty, an optional or repeated first element, '^' in one branch only
// (which must keep the unanchored walk), and a case-folded first byte.
TEST(RexProperty, AnchoredEntryShapes) {
  const AnchoredCase cases[] = {
      {"^", false, "", true},          {"^", false, "zzz", true},
      {"^a*", false, "", true},        {"^a*", false, "bbb", true},
      {"^$", false, "", true},         {"^$", false, "a", false},
      {"^a?b", false, "b", true},      {"^a?b", false, "ab", true},
      {"^a?b", false, "cb", false},    {"^a?b", false, "", false},
      {"^.*x", false, "abcx", true},   {"^.*x", false, "abc", false},
      {"^a|b", false, "a", true},      {"^a|b", false, "cb", true},
      {"^a|b", false, "ca", false},    {"^a|b", false, "", false},
      {"^GET", true, "get /", true},   {"^GET", true, "GeT", true},
      {"^GET", true, "xget", false},   {"^GET", false, "get", false},
      {"^[\\x00-\\x01]x", false, "\x01x", true},
  };
  for (const AnchoredCase& c : cases) {
    const Regex re{c.pattern, {.ignore_case = c.ignore_case}};
    EXPECT_EQ(re.search(c.input), c.matches)
        << "pattern '" << c.pattern << "' input '" << c.input << "'";
  }
  // match_prefix agrees with search on every '^' pattern.
  for (const AnchoredCase& c : cases) {
    if (std::string_view{c.pattern} == "^a|b") continue;
    const Regex re{c.pattern, {.ignore_case = c.ignore_case}};
    EXPECT_EQ(re.match_prefix(c.input), c.matches)
        << "pattern '" << c.pattern << "' input '" << c.input << "'";
  }
}

// One Regex searched many times keeps its VM scratch between calls;
// answers must not depend on what was searched before.
TEST(RexProperty, RepeatedSearchesAreIndependent) {
  const Regex re{"^(ab|a)*c", {.ignore_case = true}};
  const std::string inputs[] = {"ababc", "abx", "", "AbAC", "c", "ab"};
  const bool expected[] = {true, false, false, true, true, false};
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < std::size(inputs); ++i) {
      ASSERT_EQ(re.search(inputs[i]), expected[i])
          << "round " << round << " input '" << inputs[i] << "'";
    }
  }
}

std::string escape_all(const std::string& raw) {
  std::string out;
  char buf[8];
  for (unsigned char c : raw) {
    std::snprintf(buf, sizeof(buf), "\\x%02x", c);
    out += buf;
  }
  return out;
}

TEST(RexProperty, EscapedRandomBytesAlwaysSelfMatch) {
  Rng rng{7};
  for (int trial = 0; trial < 200; ++trial) {
    std::string raw;
    const std::size_t len = 1 + rng.next_below(16);
    for (std::size_t i = 0; i < len; ++i) {
      raw += static_cast<char>(rng.next_below(256));
    }
    const Regex re{"^" + escape_all(raw) + "$"};
    EXPECT_TRUE(re.search(raw));
    // A one-byte perturbation must not full-match.
    std::string mutated = raw;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>(mutated[rng.next_below(mutated.size())] ^ 0x5a);
    if (mutated != raw) {
      EXPECT_FALSE(re.search(mutated));
    }
  }
}

TEST(RexProperty, DotStarMatchesEverything) {
  Rng rng{11};
  const Regex re{".*"};
  for (int trial = 0; trial < 100; ++trial) {
    EXPECT_TRUE(re.search(random_input(rng, rng.next_below(50))));
  }
}

TEST(RexProperty, SearchEqualsPrefixMatchWithDotStarPrefix) {
  Rng rng{13};
  for (int trial = 0; trial < 100; ++trial) {
    const std::string pattern = random_pattern(rng, 1 + rng.next_below(5));
    const Regex plain{pattern};
    const Regex prefixed{".*" + pattern};
    const std::string input = random_input(rng, rng.next_below(15));
    EXPECT_EQ(plain.search(input), prefixed.match_prefix(
                                       std::span<const std::uint8_t>{
                                           reinterpret_cast<const std::uint8_t*>(
                                               input.data()),
                                           input.size()}))
        << "pattern '" << pattern << "' input '" << input << "'";
  }
}

TEST(RexProperty, CountedRepeatEqualsManualExpansion) {
  Rng rng{17};
  for (int reps = 0; reps <= 6; ++reps) {
    const Regex counted{"^(ab){" + std::to_string(reps) + "}$"};
    std::string expansion;
    for (int i = 0; i < reps; ++i) expansion += "ab";
    const Regex expanded{"^" + expansion + "$"};
    for (int j = 0; j < 10; ++j) {
      std::string input;
      const int n = static_cast<int>(rng.next_below(8));
      for (int k = 0; k < n; ++k) input += "ab";
      EXPECT_EQ(counted.search(input), expanded.search(input))
          << "reps=" << reps << " input=" << input;
    }
  }
}

}  // namespace
}  // namespace upbound::rex
