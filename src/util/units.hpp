// Number and unit parsing and formatting: whole-token numbers, byte sizes
// ("64KiB"), rates ("1Gbps", "125MBps"), durations ("50us"). Used by the
// command-line tools, the platform XML parser and the bench table printers.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>

#include "util/check.hpp"

namespace smpi::util {

// The whole of `text` as a number of type T (int, long long, double).
// Throws ContractError "invalid value '<text>' for <what>" on anything else
// (empty, trailing characters, out of range), where std::stoi/stod would
// take the longest numeric prefix. "nan" and "inf" are doubles: a caller
// that needs a finite value checks for one.
template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw ContractError("invalid value '" + text + "' for " + what);
  }
  return value;
}

// "64KiB" -> 65536; accepts B, KiB, MiB, GiB, KB, MB, GB (decimal) and bare
// numbers. Throws ContractError on malformed input.
std::uint64_t parse_bytes(const std::string& text);

// "1Gbps" (bits/s) or "125MBps" (bytes/s) -> bytes per second.
double parse_bandwidth(const std::string& text);

// "50us", "1.5ms", "2s" -> seconds.
double parse_duration(const std::string& text);

// "1Gf", "2.5Gf", "1e9f" -> flops (floating point operations).
double parse_flops(const std::string& text);

std::string format_bytes(std::uint64_t bytes);     // "4.0MiB"
std::string format_duration(double seconds);       // "1.234ms"
std::string format_rate(double bytes_per_second);  // "117.7MiB/s"

}  // namespace smpi::util
