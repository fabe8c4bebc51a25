#include "la/matrix_io.h"

#include <charconv>
#include <cstdio>
#include <string_view>

#include "util/chunked_reader.h"
#include "util/parse.h"
#include "util/string_util.h"

namespace exea::la {

Status SaveMatrix(const Matrix& matrix, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  std::fprintf(out, "%zu %zu\n", matrix.rows(), matrix.cols());
  // One row per fwrite. Nine significant digits in %g style round-trip
  // every IEEE single; to_chars spells them exactly as printf("%.9g").
  std::string line;
  char number[32];
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const float* row = matrix.Row(r);
    line.clear();
    for (size_t c = 0; c < matrix.cols(); ++c) {
      if (c > 0) line.push_back(' ');
      auto [end, ec] = std::to_chars(number, number + sizeof(number), row[c],
                                     std::chars_format::general, 9);
      line.append(number, end);
    }
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), out);
  }
  bool ok = std::fflush(out) == 0 && std::ferror(out) == 0;
  std::fclose(out);
  if (!ok) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<Matrix> LoadMatrix(const std::string& path) {
  util::ChunkedReader reader(path);
  if (!reader.status().ok()) return reader.status();
  // A garbled header can decode to absurd dimensions; refuse before the
  // allocation instead of aborting inside it. The element budget caps the
  // buffer at kMaxElements * sizeof(float) = 400 MB, far beyond any
  // embedding table this library produces. The product is tested by
  // division so rows * cols cannot wrap around 64 bits and sneak a huge
  // allocation past the guard.
  constexpr uint64_t kMaxElements = 100'000'000;
  // Each dimension has its own token so the taint check follows each one
  // from the file to the allocation. A view only lives until the next
  // read, so each is parsed before the next token is read.
  std::string_view rows_text;
  std::string_view cols_text;
  uint64_t rows = 0;
  uint64_t cols = 0;
  if (!reader.NextToken(&rows_text) ||
      !util::ParseUint64(rows_text, kMaxElements, &rows).ok() ||
      !reader.NextToken(&cols_text) ||
      !util::ParseUint64(cols_text, kMaxElements, &cols).ok()) {
    if (!reader.status().ok()) return reader.status();
    return Status::InvalidArgument("bad matrix header in " + path);
  }
  if (cols != 0 && rows > kMaxElements / cols) {
    return Status::InvalidArgument(
        StrFormat("%s: implausible matrix dimensions %llux%llu", path.c_str(),
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(cols)));
  }
  Matrix matrix(rows, cols);
  std::string_view token;
  for (size_t r = 0; r < rows; ++r) {
    float* row = matrix.Row(r);
    for (size_t c = 0; c < cols; ++c) {
      if (!reader.NextToken(&token)) {
        if (!reader.status().ok()) return reader.status();
        return Status::InvalidArgument(
            StrFormat("%s: truncated at row %zu col %zu", path.c_str(), r, c));
      }
      Status parsed = util::ParseFloat(token, &row[c]);
      if (!parsed.ok()) {
        return Status::InvalidArgument(StrFormat(
            "%s: row %zu col %zu: %s", path.c_str(), r, c,
            parsed.message().c_str()));
      }
    }
  }
  if (reader.NextToken(&token)) {
    return Status::InvalidArgument(
        StrFormat("%s: data after row %llu", path.c_str(),
                  static_cast<unsigned long long>(rows)));
  }
  if (!reader.status().ok()) return reader.status();
  return matrix;
}

}  // namespace exea::la
