// Checked numeric parsing for untrusted inputs.
//
// Every byte that arrives from outside the process — NDJSON request
// fields, snapshot MANIFEST rows, TSV cells, argv — must go through one
// of these helpers instead of atoi/stoi/strtol. The contract is strict
// on purpose:
//
//   * the WHOLE string must be consumed ("2junk", "1 ", "" all fail),
//   * the value must land inside the caller-supplied closed range,
//   * failure is a Status (INVALID_ARGUMENT for malformed text,
//     OUT_OF_RANGE for well-formed values outside the bounds), never a
//     silent 0 or a partial prefix.
//
// exea_lint's `atoi-on-untrusted` rule bans the libc/std parsers across
// src/, tools/ and bench/; its taint pass treats these functions as
// sanitizers that kill taint on the parsed output.

#ifndef EXEA_UTIL_PARSE_H_
#define EXEA_UTIL_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <system_error>

#include "util/status.h"

namespace exea {
namespace util {

// Parses `text` as a base-10 signed integer into `*out`. The full string
// must parse and the value must satisfy min_value <= value <= max_value;
// on failure `*out` is left untouched.
[[nodiscard]] Status ParseInt32(std::string_view text, int32_t min_value,
                                int32_t max_value, int32_t* out);
[[nodiscard]] Status ParseInt64(std::string_view text, int64_t min_value,
                                int64_t max_value, int64_t* out);

// Parses `text` as a base-10 unsigned integer no larger than `max_value`
// (no sign: "-5" and "+5" both fail).
[[nodiscard]] Status ParseUint64(std::string_view text, uint64_t max_value,
                                 uint64_t* out);

// Parses `text` as a decimal floating-point value. NaN never satisfies
// the range check, so "nan" is rejected; "inf" only passes if the bounds
// admit it (they never should for untrusted input).
[[nodiscard]] Status ParseDouble(std::string_view text, double min_value,
                                 double max_value, double* out);

namespace internal {
// The Status ParseFloat returns for `text` once the fast path refused it.
[[nodiscard]] Status FloatError(std::string_view text);
}  // namespace internal

// Parses `text` as a finite IEEE single. Decimal and exponent forms only:
// "nan", "inf", a leading '+' and values that overflow or underflow to
// zero all fail. Nine significant digits (what la::SaveMatrix writes)
// parse back to the same bits. Inline because the matrix loaders call it
// once per stored float; only the error path leaves the header.
[[nodiscard]] inline Status ParseFloat(std::string_view text, float* out) {
  const char* end = text.data() + text.size();
  float value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return internal::FloatError(text);
  }
  *out = value;
  return Status::Ok();
}

// Parses `text` as an unsigned base-16 integer (no "0x" prefix), the
// format snapshot MANIFEST checksums are written in.
[[nodiscard]] Status ParseUint64Hex(std::string_view text, uint64_t* out);

}  // namespace util
}  // namespace exea

#endif  // EXEA_UTIL_PARSE_H_
