// Flag-value parsing shared by the xtalk_serve and xtalk_client binaries.
//
// A malformed or out-of-range value is a usage error: it prints why and
// exits 2. std::stoul would instead abort on an uncaught exception, and a
// cast to a narrower type would wrap a value like --tcp-port 70000 silently.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

namespace xtalk::service {

[[noreturn]] inline void flag_value_error(const std::string& flag,
                                          const std::string& text,
                                          const std::string& expected) {
  std::cerr << "invalid value '" << text << "' for " << flag << " (expected "
            << expected << ")\n";
  std::exit(2);
}

/// The whole of `text` as a decimal integer in [lo, hi].
inline long long parse_int_flag(const std::string& flag,
                                const std::string& text, long long lo,
                                long long hi) {
  long long v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    flag_value_error(flag, text,
                     "an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
  }
  return v;
}

/// The whole of `text` as a finite real >= 0.
inline double parse_nonneg_real_flag(const std::string& flag,
                                     const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0.0) {
    flag_value_error(flag, text, "a finite number >= 0");
  }
  return v;
}

}  // namespace xtalk::service
