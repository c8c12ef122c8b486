// Shared reporting for the bench/ binaries: the environment they read, a
// steady clock, one percentile rule, and result rows that print as a
// stdout table and serialize into the BENCH_*.json snapshot from a single
// declaration.
//
// Env:
//   BISTRO_BENCH_QUICK  set (any value) -> smaller corpora (CI smoke mode)
//   BISTRO_BENCH_OUT    JSON output path (each bench has a default)
//
// Header-only so tests can include it without linking a bench binary.

#ifndef BISTRO_BENCH_REPORT_H_
#define BISTRO_BENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/strings.h"

namespace bistro::bench {

inline bool Quick() { return std::getenv("BISTRO_BENCH_QUICK") != nullptr; }

/// BISTRO_BENCH_OUT when set, else `default_path`.
inline std::string OutPath(const char* default_path) {
  const char* env = std::getenv("BISTRO_BENCH_OUT");
  return env != nullptr ? env : default_path;
}

/// Steady-clock seconds from an arbitrary origin; subtract two readings.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact percentile: v[floor(q * (n - 1))] of the sorted values, so q = 1
/// is the max. Empty input yields T{}.
template <typename T>
T Percentile(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * (values.size() - 1))];
}

/// `s` as a JSON string literal.
inline std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// One result value: its JSON key, its stdout column header (nullptr
/// keeps it out of the table) and the printf format that renders it in
/// both places. Strings serialize quoted; bools render "true"/"false"
/// through the format. `width` widens the column past the header.
struct Field {
  template <typename T>
  Field(const char* key, const char* header, const char* format,
        const T& value, int width = 0)
      : key(key), header(header), width(width) {
    if constexpr (std::is_same_v<T, bool>) {
      text = StrFormat(format, value ? "true" : "false");
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      text = StrFormat(format, std::string(std::string_view(value)).c_str());
      quoted = true;
    } else {
      text = StrFormat(format, value);
    }
  }

  std::string Json() const { return quoted ? Quote(text) : text; }

  const char* key;
  const char* header;
  std::string text;
  bool quoted = false;
  int width;
};

using Row = std::vector<Field>;

/// `row` as a one-line JSON object, keys in declaration order.
inline std::string Object(const Row& row) {
  std::string out = "{";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(row[i].key) + ": " + row[i].Json();
  }
  return out + "}";
}

/// Prints rows as an aligned stdout table: strings left-aligned, numbers
/// right-aligned, the header line going out with the first row.
class Table {
 public:
  void Print(const Row& row) {
    if (!header_printed_) {
      header_printed_ = true;
      Line(row, [](const Field& f) { return std::string(f.header); });
    }
    Line(row, [](const Field& f) { return f.text; });
  }

 private:
  template <typename CellFn>
  static void Line(const Row& row, CellFn cell) {
    std::string line;
    for (const Field& f : row) {
      if (f.header == nullptr) continue;
      const int width =
          std::max(f.width, static_cast<int>(std::strlen(f.header)));
      if (!line.empty()) line += ' ';
      line += StrFormat(f.quoted ? "%-*s" : "%*s", width, cell(f).c_str());
    }
    std::printf("%s\n", line.c_str());
  }

  bool header_printed_ = false;
};

/// Writes `text` to `path`; on failure says so on stderr and returns
/// false.
inline bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

/// A BENCH_*.json snapshot: top-level scalars, arrays of one-line row
/// objects and one-line nested objects, in the order they are added.
class Document {
 public:
  explicit Document(const char* bench) {
    Add({"bench", nullptr, "%s", bench});
  }

  void Add(const Field& scalar) { Entry(scalar.key, scalar.Json()); }
  void Add(const char* key, const Row& object) { Entry(key, Object(object)); }
  void Add(const char* key, const std::vector<Row>& rows) {
    std::string array = "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      array += "    " + Object(rows[i]) + (i + 1 < rows.size() ? ",\n" : "\n");
    }
    Entry(key, array + "  ]");
  }

  std::string Text() const { return "{\n" + body_ + "\n}\n"; }

  /// Writes the snapshot to `path` and reports "wrote <path>" on stdout.
  bool Write(const std::string& path) const {
    if (!WriteFile(path, Text())) return false;
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  void Entry(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ",\n";
    body_ += "  " + Quote(key) + ": " + value;
  }

  std::string body_;
};

}  // namespace bistro::bench

#endif  // BISTRO_BENCH_REPORT_H_
