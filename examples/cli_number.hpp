// Strict numeric flag values for the run_experiment and run_campaign CLIs.
//
// The whole token must parse as a T, be finite, and lie in [lo, hi] (by
// default the range of T).  Anything else — "1e3" or "-1" for a count,
// "20x", "nan", an empty string — prints `error: bad --<flag> '<value>'` and
// exits 2 before any run starts.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "geom/vec2.hpp"

namespace rmacsim::cli {

[[noreturn]] inline void bad_value(std::string_view flag, std::string_view value) {
  std::fprintf(stderr, "error: bad %.*s '%.*s'\n", static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(value.size()), value.data());
  std::exit(2);
}

// True when all of `text` is one finite T.
template <typename T>
[[nodiscard]] bool parse(std::string_view text, T& value) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(value);
  return true;
}

template <typename T>
[[nodiscard]] T number(std::string_view flag, std::string_view text,
                       T lo = std::numeric_limits<T>::lowest(),
                       T hi = std::numeric_limits<T>::max()) {
  T value{};
  if (!parse(text, value) || value < lo || value > hi) bad_value(flag, text);
  return value;
}

// "WxH" in metres, both sides > 0.
[[nodiscard]] inline Rect area(std::string_view flag, std::string_view text) {
  const std::size_t x = text.find('x');
  double w = 0.0;
  double h = 0.0;
  if (x == std::string_view::npos || !parse(text.substr(0, x), w) ||
      !parse(text.substr(x + 1), h) || w <= 0.0 || h <= 0.0) {
    bad_value(flag, text);
  }
  return Rect{w, h};
}

}  // namespace rmacsim::cli
