// Plain-text persistence for dense matrices (embedding tables).
//
// Format: first line "rows cols", then one whitespace-separated row per
// line, full float precision (%.9g round-trips IEEE single).
//
// LoadMatrix reads through util::ChunkedReader and parses with
// std::from_chars: every value must be one finite float token, and a
// short body or data after the last row is INVALID_ARGUMENT.

#ifndef EXEA_LA_MATRIX_IO_H_
#define EXEA_LA_MATRIX_IO_H_

#include <string>

#include "la/matrix.h"
#include "util/status.h"

namespace exea::la {

[[nodiscard]] Status SaveMatrix(const Matrix& matrix, const std::string& path);

[[nodiscard]] StatusOr<Matrix> LoadMatrix(const std::string& path);

}  // namespace exea::la

#endif  // EXEA_LA_MATRIX_IO_H_
