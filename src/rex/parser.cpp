#include "rex/parser.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

namespace upbound::rex {

namespace {

ByteSet fold_case(ByteSet set, bool ignore_case) {
  if (!ignore_case) return set;
  for (int b = 'a'; b <= 'z'; ++b) {
    const int upper = b - 'a' + 'A';
    if (set.test(static_cast<std::size_t>(b))) set.set(static_cast<std::size_t>(upper));
    if (set.test(static_cast<std::size_t>(upper))) set.set(static_cast<std::size_t>(b));
  }
  return set;
}

ByteSet single(std::uint8_t b) {
  ByteSet set;
  set.set(b);
  return set;
}

ByteSet digit_set() {
  ByteSet set;
  for (int b = '0'; b <= '9'; ++b) set.set(static_cast<std::size_t>(b));
  return set;
}

ByteSet word_set() {
  ByteSet set = digit_set();
  for (int b = 'a'; b <= 'z'; ++b) set.set(static_cast<std::size_t>(b));
  for (int b = 'A'; b <= 'Z'; ++b) set.set(static_cast<std::size_t>(b));
  set.set('_');
  return set;
}

ByteSet space_set() {
  ByteSet set;
  for (char c : {' ', '\t', '\n', '\r', '\f', '\v'}) {
    set.set(static_cast<std::uint8_t>(c));
  }
  return set;
}

// Each group nests four recursive parser frames (and the compiler recurses
// over the tree again): a depth cap keeps pathological nesting a
// ParseError instead of a stack overflow, also in sanitizer builds whose
// frames are several times larger.
constexpr std::size_t kMaxGroupDepth = 256;

class Parser {
 public:
  Parser(std::string_view pattern, const ParseOptions& options)
      : pattern_(pattern), options_(options) {}

  NodePtr run() {
    NodePtr node = parse_alternation();
    if (!at_end()) {
      throw ParseError("unexpected '" + std::string(1, peek()) + "'", pos_);
    }
    return node;
  }

 private:
  bool at_end() const { return pos_ >= pattern_.size(); }
  char peek() const { return pattern_[pos_]; }
  char take() { return pattern_[pos_++]; }
  bool consume(char c) {
    if (!at_end() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  NodePtr parse_alternation() {
    std::vector<NodePtr> branches;
    branches.push_back(parse_concat());
    while (consume('|')) branches.push_back(parse_concat());
    if (branches.size() == 1) return std::move(branches.front());
    return Node::alternate(std::move(branches));
  }

  NodePtr parse_concat() {
    std::vector<NodePtr> parts;
    while (!at_end() && peek() != '|' && peek() != ')') {
      parts.push_back(parse_repetition());
    }
    if (parts.empty()) return Node::empty();
    if (parts.size() == 1) return std::move(parts.front());
    return Node::concat(std::move(parts));
  }

  NodePtr parse_repetition() {
    NodePtr atom = parse_atom();
    for (;;) {
      if (consume('*')) {
        atom = Node::repeat(std::move(atom), 0, kUnbounded);
      } else if (consume('+')) {
        atom = Node::repeat(std::move(atom), 1, kUnbounded);
      } else if (consume('?')) {
        atom = Node::repeat(std::move(atom), 0, 1);
      } else if (!at_end() && peek() == '{') {
        const std::size_t brace = pos_;
        auto counted = try_parse_counted();
        if (!counted) {
          // A '{' that is not a well-formed counted repeat is a literal.
          break;
        }
        const auto [min, max] = *counted;
        if (min < 0 || (max != kUnbounded && max < min)) {
          throw ParseError("bad repeat bounds", brace);
        }
        if (min > options_.max_counted_repeat ||
            (max != kUnbounded && max > options_.max_counted_repeat)) {
          throw ParseError("counted repeat too large", brace);
        }
        atom = Node::repeat(std::move(atom), min, max);
      } else {
        break;
      }
    }
    return atom;
  }

  // Parses "{n}", "{n,}", or "{n,m}". Returns nullopt (without consuming)
  // when the braces do not form a counted repeat.
  std::optional<std::pair<int, int>> try_parse_counted() {
    const std::size_t start = pos_;
    ++pos_;  // '{'
    auto read_int = [&]() -> std::optional<int> {
      // Digits saturate well above any legal bound so oversized repeats
      // parse as counted repeats and fail the range check (rather than
      // silently degrading to literal braces).
      constexpr int kSaturate = 2'000'000;
      int value = 0;
      bool any = false;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        value = std::min(kSaturate, value * 10 + (take() - '0'));
        any = true;
      }
      return any ? std::optional<int>(value) : std::nullopt;
    };
    const auto min = read_int();
    if (!min) {
      pos_ = start;
      return std::nullopt;
    }
    int max;
    if (consume(',')) {
      if (!at_end() && peek() == '}') {
        max = kUnbounded;
      } else {
        const auto m = read_int();
        if (!m) {
          pos_ = start;
          return std::nullopt;
        }
        max = *m;
      }
    } else {
      max = *min;
    }
    if (!consume('}')) {
      pos_ = start;
      return std::nullopt;
    }
    return std::make_pair(*min, max);
  }

  NodePtr parse_atom() {
    if (at_end()) throw ParseError("pattern ends where atom expected", pos_);
    const char c = take();
    switch (c) {
      case '(': {
        if (++depth_ > kMaxGroupDepth) {
          throw ParseError("groups nested too deeply", pos_ - 1);
        }
        // Accept both "(...)" and the explicit non-capturing "(?:...)";
        // the engine has no captures, so they are identical.
        if (!at_end() && peek() == '?') {
          const std::size_t mark = pos_;
          ++pos_;
          if (!consume(':')) {
            throw ParseError("only (?: groups are supported", mark);
          }
        }
        NodePtr inner = parse_alternation();
        if (!consume(')')) throw ParseError("unterminated group", pos_);
        --depth_;
        return inner;
      }
      case ')':
        throw ParseError("unmatched ')'", pos_ - 1);
      case '[':
        return parse_class();
      case '.':
        return Node::any();
      case '^':
        return Node::assert_start();
      case '$':
        return Node::assert_end();
      case '*':
      case '+':
      case '?':
        throw ParseError("quantifier with nothing to repeat", pos_ - 1);
      case '\\':
        return parse_escape(/*in_class=*/false).node();
      default:
        return Node::byte_set(fold_case(single(static_cast<std::uint8_t>(c)),
                                        options_.ignore_case));
    }
  }

  // An escape is either a single byte or a predefined class.
  class Escaped {
   public:
    static Escaped byte(std::uint8_t b) {
      Escaped e;
      e.is_byte_ = true;
      e.byte_ = b;
      return e;
    }
    static Escaped cls(ByteSet set) {
      Escaped e;
      e.set_ = set;
      return e;
    }

    bool is_byte() const { return is_byte_; }
    std::uint8_t byte_value() const { return byte_; }
    const ByteSet& set() const { return set_; }

    NodePtr node() const {
      if (is_byte_) return Node::byte_set(single(byte_));
      return Node::byte_set(set_);
    }

   private:
    bool is_byte_ = false;
    std::uint8_t byte_ = 0;
    ByteSet set_;
  };

  Escaped parse_escape(bool in_class) {
    if (at_end()) throw ParseError("dangling backslash", pos_);
    const char c = take();
    switch (c) {
      case 'x': {
        int value = 0;
        int digits = 0;
        while (digits < 2 && !at_end() &&
               std::isxdigit(static_cast<unsigned char>(peek()))) {
          const char h = take();
          value = value * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                    ? h - '0'
                                    : std::tolower(h) - 'a' + 10);
          ++digits;
        }
        if (digits == 0) throw ParseError("\\x needs hex digits", pos_);
        return Escaped::byte(static_cast<std::uint8_t>(value));
      }
      case 'n': return Escaped::byte('\n');
      case 'r': return Escaped::byte('\r');
      case 't': return Escaped::byte('\t');
      case 'f': return Escaped::byte('\f');
      case 'v': return Escaped::byte('\v');
      case 'a': return Escaped::byte('\a');
      case '0': return Escaped::byte(0);
      case 'd': return Escaped::cls(digit_set());
      case 'D': return Escaped::cls(~digit_set());
      case 'w': return Escaped::cls(word_set());
      case 'W': return Escaped::cls(~word_set());
      case 's': return Escaped::cls(space_set());
      case 'S': return Escaped::cls(~space_set());
      default:
        if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
          throw ParseError("unknown escape \\" + std::string(1, c), pos_ - 1);
        }
        (void)in_class;
        return Escaped::byte(static_cast<std::uint8_t>(c));
    }
  }

  NodePtr parse_class() {
    const std::size_t start = pos_ - 1;
    bool negate = consume('^');
    ByteSet set;
    bool first = true;
    for (;;) {
      if (at_end()) throw ParseError("unterminated class", start);
      if (peek() == ']' && !first) {
        ++pos_;
        break;
      }
      first = false;

      // Lead element: literal byte, escape, or ']' as the first member.
      std::optional<std::uint8_t> lead_byte;
      const char c = take();
      if (c == '\\') {
        const Escaped e = parse_escape(/*in_class=*/true);
        if (e.is_byte()) {
          lead_byte = e.byte_value();
        } else {
          set |= e.set();
          continue;  // class escapes cannot start a range
        }
      } else {
        lead_byte = static_cast<std::uint8_t>(c);
      }

      // Range "a-z"? A '-' followed by ']' is a literal dash.
      if (!at_end() && peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        ++pos_;  // '-'
        std::uint8_t hi;
        const char hc = take();
        if (hc == '\\') {
          const Escaped e = parse_escape(/*in_class=*/true);
          if (!e.is_byte()) {
            throw ParseError("class escape cannot end a range", pos_);
          }
          hi = e.byte_value();
        } else {
          hi = static_cast<std::uint8_t>(hc);
        }
        if (hi < *lead_byte) throw ParseError("reversed class range", pos_);
        for (int b = *lead_byte; b <= hi; ++b) {
          set.set(static_cast<std::size_t>(b));
        }
      } else {
        set.set(*lead_byte);
      }
    }
    set = fold_case(set, options_.ignore_case);
    if (negate) set = ~set;
    if (set.none()) throw ParseError("class matches nothing", start);
    return Node::byte_set(set);
  }

  std::string_view pattern_;
  ParseOptions options_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open groups around pos_
};

}  // namespace

NodePtr parse(std::string_view pattern, const ParseOptions& options) {
  return Parser{pattern, options}.run();
}

}  // namespace upbound::rex
