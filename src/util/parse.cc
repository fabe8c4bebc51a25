#include "util/parse.h"

#include <string>

namespace exea {
namespace util {

namespace {

// Untrusted strings end up quoted in Status messages and from there in
// logs and NDJSON error responses; keep them short and printable.
std::string Excerpt(std::string_view text) {
  constexpr size_t kMax = 48;
  std::string out;
  out.reserve(text.size() < kMax ? text.size() : kMax + 3);
  for (size_t i = 0; i < text.size() && i < kMax; ++i) {
    char c = text[i];
    out.push_back((c >= 0x20 && c < 0x7f) ? c : '?');
  }
  if (text.size() > kMax) out += "...";
  return out;
}

// `args` is the base for integers and empty for floating point.
template <typename T, typename... Args>
Status ParseWhole(std::string_view text, T* value, Args... args) {
  if (text.empty()) {
    return Status::InvalidArgument("expected a number, got an empty string");
  }
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *value, args...);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("number out of range: '" + Excerpt(text) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("not a number: '" + Excerpt(text) + "'");
  }
  return Status::Ok();
}

template <typename T>
Status CheckRange(T value, T min_value, T max_value, std::string_view text) {
  // Written as a negated conjunction so a NaN (which fails every
  // comparison) is rejected rather than accepted.
  if (!(value >= min_value && value <= max_value)) {
    return Status::OutOfRange("value '" + Excerpt(text) +
                              "' is outside the allowed range");
  }
  return Status::Ok();
}

template <typename T, typename... Args>
Status ParseInRange(std::string_view text, T min_value, T max_value, T* out,
                    Args... args) {
  T value = 0;
  Status parsed = ParseWhole(text, &value, args...);
  if (!parsed.ok()) return parsed;
  Status ranged = CheckRange(value, min_value, max_value, text);
  if (!ranged.ok()) return ranged;
  *out = value;
  return Status::Ok();
}

}  // namespace

Status ParseInt32(std::string_view text, int32_t min_value,
                  int32_t max_value, int32_t* out) {
  return ParseInRange(text, min_value, max_value, out, 10);
}

Status ParseInt64(std::string_view text, int64_t min_value,
                  int64_t max_value, int64_t* out) {
  return ParseInRange(text, min_value, max_value, out, 10);
}

Status ParseUint64(std::string_view text, uint64_t max_value, uint64_t* out) {
  return ParseInRange(text, uint64_t{0}, max_value, out, 10);
}

Status ParseDouble(std::string_view text, double min_value, double max_value,
                   double* out) {
  return ParseInRange(text, min_value, max_value, out);
}

Status internal::FloatError(std::string_view text) {
  float value = 0;
  Status parsed = ParseWhole(text, &value);
  if (!parsed.ok()) return parsed;
  return Status::InvalidArgument("not a finite number: '" + Excerpt(text) +
                                 "'");
}

Status ParseUint64Hex(std::string_view text, uint64_t* out) {
  uint64_t value = 0;
  Status parsed = ParseWhole(text, &value, 16);
  if (!parsed.ok()) return parsed;
  *out = value;
  return Status::Ok();
}

}  // namespace util
}  // namespace exea
