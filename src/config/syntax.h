#ifndef BISTRO_CONFIG_SYNTAX_H_
#define BISTRO_CONFIG_SYNTAX_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"

namespace bistro {

/// The lexical layer shared by the configuration language
/// (config/parser.h) and fault plans (fault/plan.h): identifiers (which
/// may contain dots), double-quoted strings with \" and \\ escapes,
/// numbers with an optional unit suffix ("30s", "2.5", "-1"), the
/// punctuation { } ; , and '#' line comments.
enum class TokKind { kIdent, kString, kNumber, kPunct, kEof };

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  int line = 0;
};

/// A token stream plus the expect/take helpers both parsers use. Errors
/// read "<source> line N: <what> (got '<token>')".
class TokenCursor {
 public:
  /// Tokenizes `text`; `source` names it in errors ("config", "fault
  /// plan"). With `leading_dot_numbers`, ".5" lexes as a number.
  static Result<TokenCursor> Lex(std::string_view text, std::string source,
                                 bool leading_dot_numbers = false);

  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEof() const { return Peek().kind == TokKind::kEof; }

  /// Consume the next token when it is the punctuation / identifier given.
  bool TakePunct(std::string_view p) { return Take(TokKind::kPunct, p); }
  bool TakeWord(std::string_view word) { return Take(TokKind::kIdent, word); }
  Status ExpectPunct(std::string_view p) { return Expect(TokKind::kPunct, p); }
  Status ExpectWord(std::string_view w) { return Expect(TokKind::kIdent, w); }

  Result<std::string> TakeIdent() {
    return TakeText(TokKind::kIdent, "identifier");
  }
  Result<std::string> TakeString() {
    return TakeText(TokKind::kString, "quoted string");
  }
  /// The raw text of a number token, for callers with their own numeric
  /// type.
  Result<std::string> TakeNumber() {
    return TakeText(TokKind::kNumber, "number");
  }
  Result<int64_t> TakeInt() { return TakeParsed(ParseInt, "integer"); }
  Result<double> TakeDouble() { return TakeParsed(ParseDouble, "number"); }
  Result<Duration> TakeDuration() {
    return TakeParsed(ParseDuration, "duration");
  }

  /// A number within [lo, hi] ((lo, hi] with `above_lo`); `what` names
  /// it in the range error.
  Result<int64_t> TakeInt(const std::string& what, int64_t lo, int64_t hi);
  Result<double> TakeDouble(const std::string& what, double lo, double hi,
                            bool above_lo = false);
  /// A duration of at least `lo` (0: not negative, 1us: positive).
  Result<Duration> TakeDuration(const std::string& what, Duration lo);

  /// An error located at the next token.
  Status Err(const std::string& what) const;
  /// An error located at an earlier line, e.g. the keyword of a block
  /// whose closing brace has already been consumed.
  Status ErrAt(int line, const std::string& what) const;

 private:
  TokenCursor(std::vector<Token> tokens, std::string source)
      : tokens_(std::move(tokens)), source_(std::move(source)) {}

  bool Take(TokKind kind, std::string_view text);
  Status Expect(TokKind kind, std::string_view text);
  Result<std::string> TakeText(TokKind kind, const char* what);

  template <class T>
  Result<T> TakeParsed(std::optional<T> (*parse)(std::string_view),
                       const char* what) {
    if (Peek().kind != TokKind::kNumber) {
      return Err(std::string("expected ") + what);
    }
    std::optional<T> v = parse(Peek().text);
    if (!v) return Err(std::string("bad ") + what);
    ++pos_;
    return *v;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string source_;
};

/// `s` as a double-quoted string literal the lexer reads back verbatim.
std::string Quote(std::string_view s);

/// A duration in the single-unit form the lexer accepts ("90s", "2h");
/// FormatDuration's human form ("1m30s") does not parse back.
std::string DurationLiteral(Duration d);

/// A number literal that parses back to exactly `v`: printf's "%g" when
/// that is exact, otherwise more digits, never exponent notation.
std::string DoubleLiteral(double v);

}  // namespace bistro

#endif  // BISTRO_CONFIG_SYNTAX_H_
