// Tab-separated-value reading/writing, the on-disk format for KG triples
// and alignment files (matching the DBP15K/OpenEA distribution format).

#ifndef EXEA_UTIL_TSV_H_
#define EXEA_UTIL_TSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace exea {

// Reads a TSV file into rows of fields, streaming it through
// util::ChunkedReader. Each line is trimmed of surrounding whitespace
// (so "\r\n" line ends read like "\n"); blank lines and lines starting
// with '#' are skipped. Fails if any row has fewer than `min_fields`
// fields.
[[nodiscard]] StatusOr<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path, size_t min_fields);

// Writes rows as TSV. Overwrites `path`.
[[nodiscard]] Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows);

}  // namespace exea

#endif  // EXEA_UTIL_TSV_H_
