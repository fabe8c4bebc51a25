#include "util/tsv.h"

#include <fstream>
#include <string_view>

#include "util/chunked_reader.h"
#include "util/string_util.h"

namespace exea {

StatusOr<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path, size_t min_fields) {
  util::ChunkedReader reader(path);
  if (!reader.status().ok()) return reader.status();
  std::vector<std::vector<std::string>> rows;
  std::string_view line;
  size_t line_no = 0;
  while (reader.NextLine(&line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> fields = Split(trimmed, '\t');
    if (fields.size() < min_fields) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: expected at least %zu fields, got %zu",
                    path.c_str(), line_no, min_fields, fields.size()));
    }
    rows.push_back(std::move(fields));
  }
  if (!reader.status().ok()) return reader.status();
  return rows;
}

Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << '\t';
      out << row[i];
    }
    out << '\n';
  }
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace exea
