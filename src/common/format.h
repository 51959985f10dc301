#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/check.h"

namespace setsched {

/// Writes the shortest decimal form that parses back to exactly `v` via
/// std::to_chars: locale-independent and lossless, so serialized streams are
/// byte-stable across runs and platforms (operator<< truncates to 6 digits).
/// The one double formatter of every writer (core/io, the expt rows and
/// reports, the Chrome trace); non-finite values format as "inf"/"nan" per
/// to_chars, so callers wanting to reject or remap them must check first.
inline void write_shortest_double(std::ostream& os, double v) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  check(ec == std::errc{}, "failed to format double value");
  os.write(buffer, end - buffer);
}

/// write_shortest_double restricted to finite values: throws CheckError
/// (prefixed with `what`) otherwise. For formats with no non-finite spelling
/// (JSON writers).
inline void write_finite_double(std::ostream& os, double v,
                                std::string_view what) {
  check(std::isfinite(v), std::string(what) + ": non-finite value");
  write_shortest_double(os, v);
}

/// The one JSON string encoder: quotes `s` and escapes `"`, `\` and every
/// control byte (\n, \r, \t by name, the rest as \u00XX), so any byte
/// string, a track name with a tab included, yields valid JSON. Bytes from
/// 0x20 up pass through unchanged, so UTF-8 text stays UTF-8.
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// One JSON value: a bool as true/false, an integer in decimal, a double by
/// write_finite_double (`what` names the writer in its error), a string by
/// write_json_string, and any other range as a compact array of its items.
/// Numbers and bools spell the same in CSV, so the CSV writer uses it for
/// those too.
template <class T>
void write_json_value(std::ostream& os, const T& v, std::string_view what) {
  if constexpr (std::is_same_v<T, bool>) {
    os << (v ? "true" : "false");
  } else if constexpr (std::is_integral_v<T>) {
    os << v;
  } else if constexpr (std::is_floating_point_v<T>) {
    write_finite_double(os, v, what);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    write_json_string(os, v);
  } else {
    char sep = '[';
    for (const auto& item : v) {
      os << sep;
      sep = ',';
      write_json_value(os, item, what);
    }
    if (sep == '[') os << '[';
    os << ']';
  }
}

}  // namespace setsched
