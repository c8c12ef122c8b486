#include "config/syntax.h"

#include <cctype>
#include <cmath>

#include "common/strings.h"

namespace bistro {

Result<TokenCursor> TokenCursor::Lex(std::string_view src, std::string source,
                                     bool leading_dot_numbers) {
  std::vector<Token> out;
  size_t pos = 0;
  int line = 1;
  auto error = [&](int at, const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("%s line %d: %s", source.c_str(), at, what.c_str()));
  };
  while (pos < src.size()) {
    char c = src[pos];
    size_t start = pos;
    if (c == '\n') {
      ++line;
      ++pos;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
    } else if (c == '#') {
      while (pos < src.size() && src[pos] != '\n') ++pos;
    } else if (c == '"') {
      ++pos;  // opening quote
      std::string text;
      while (pos < src.size() && src[pos] != '"' && src[pos] != '\n') {
        if (src[pos] == '\\' && pos + 1 < src.size()) {
          ++pos;
          if (src[pos] != '"' && src[pos] != '\\') {
            return error(line, StrFormat("bad escape \\%c", src[pos]));
          }
        }
        text += src[pos++];
      }
      if (pos >= src.size() || src[pos] != '"') {
        return error(line, "unterminated string");
      }
      ++pos;  // closing quote
      out.push_back(Token{TokKind::kString, std::move(text), line});
    } else if (IsAlpha(c) || c == '_') {
      while (pos < src.size() &&
             (IsAlnum(src[pos]) || src[pos] == '_' || src[pos] == '.')) {
        ++pos;
      }
      out.push_back(Token{TokKind::kIdent,
                          std::string(src.substr(start, pos - start)), line});
    } else if (IsDigit(c) || c == '-' || (c == '.' && leading_dot_numbers)) {
      if (c == '-') ++pos;
      while (pos < src.size() && (IsDigit(src[pos]) || src[pos] == '.')) ++pos;
      while (pos < src.size() && IsAlpha(src[pos])) ++pos;  // unit suffix
      out.push_back(Token{TokKind::kNumber,
                          std::string(src.substr(start, pos - start)), line});
    } else if (c == '{' || c == '}' || c == ';' || c == ',') {
      out.push_back(Token{TokKind::kPunct, std::string(1, c), line});
      ++pos;
    } else {
      return error(line, StrFormat("unexpected character '%c'", c));
    }
  }
  out.push_back(Token{TokKind::kEof, "", line});
  return TokenCursor(std::move(out), std::move(source));
}

bool TokenCursor::Take(TokKind kind, std::string_view text) {
  if (Peek().kind != kind || Peek().text != text) return false;
  ++pos_;
  return true;
}

Status TokenCursor::Expect(TokKind kind, std::string_view text) {
  if (Take(kind, text)) return Status::OK();
  return Err("expected '" + std::string(text) + "'");
}

Result<std::string> TokenCursor::TakeText(TokKind kind, const char* what) {
  if (Peek().kind != kind) return Err(std::string("expected ") + what);
  return tokens_[pos_++].text;
}

Result<int64_t> TokenCursor::TakeInt(const std::string& what, int64_t lo,
                                     int64_t hi) {
  BISTRO_ASSIGN_OR_RETURN(int64_t v, TakeInt());
  if (v >= lo && v <= hi) return v;
  return Err(StrFormat("%s must be in [%lld, %lld]", what.c_str(),
                       (long long)lo, (long long)hi));
}

Result<double> TokenCursor::TakeDouble(const std::string& what, double lo,
                                       double hi, bool above_lo) {
  BISTRO_ASSIGN_OR_RETURN(double v, TakeDouble());
  if ((above_lo ? v > lo : v >= lo) && v <= hi) return v;
  return Err(StrFormat("%s must be in %c%g, %g]", what.c_str(),
                       above_lo ? '(' : '[', lo, hi));
}

Result<Duration> TokenCursor::TakeDuration(const std::string& what,
                                           Duration lo) {
  BISTRO_ASSIGN_OR_RETURN(Duration v, TakeDuration());
  if (v >= lo) return v;
  return Err(what + (lo > 0 ? " must be positive" : " must not be negative"));
}

Status TokenCursor::Err(const std::string& what) const {
  return Status::InvalidArgument(
      StrFormat("%s line %d: %s (got '%s')", source_.c_str(), Peek().line,
                what.c_str(), Peek().text.c_str()));
}

Status TokenCursor::ErrAt(int line, const std::string& what) const {
  return Status::InvalidArgument(
      StrFormat("%s line %d: %s", source_.c_str(), line, what.c_str()));
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string DurationLiteral(Duration d) {
  if (d == 0) return "0s";
  const std::pair<Duration, const char*> kUnits[] = {
      {kDay, "d"},    {kHour, "h"},        {kMinute, "m"},
      {kSecond, "s"}, {kMillisecond, "ms"}, {kMicrosecond, "us"}};
  for (const auto& [unit, suffix] : kUnits) {
    if (d % unit == 0) {
      return StrFormat("%lld%s", (long long)(d / unit), suffix);
    }
  }
  return "";  // unreachable: the last unit divides every duration
}

std::string DoubleLiteral(double v) {
  if (!std::isfinite(v)) return StrFormat("%g", v);  // has no literal form
  for (int digits = 6; digits <= 17; ++digits) {
    std::string s = StrFormat("%.*g", digits, v);
    if (s.find('e') == std::string::npos && ParseDouble(s) == v) return s;
  }
  // Magnitudes "%g" writes with an exponent, which the lexer does not
  // accept: fixed notation, with as many decimals as exactness needs.
  for (int decimals = 0;; ++decimals) {
    std::string s = StrFormat("%.*f", decimals, v);
    if (ParseDouble(s) == v) return s;
  }
}

}  // namespace bistro
