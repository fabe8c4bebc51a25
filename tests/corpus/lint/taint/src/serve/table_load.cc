// Snapshot-payload case: a chunked reader hands out file tokens, and a
// matrix header's two dimensions size the table allocation. One
// dimension is range-checked before the allocation, the other is not.
#include <cstdint>
#include <string_view>

namespace demo::serve {

class ChunkedReader {
 public:
  // Configured source: fills *token with the next run of file bytes.
  bool NextToken(std::string_view* token);
};

struct Matrix {
  Matrix(uint64_t rows, uint64_t cols);
};

// Converts a token without any range check (defined out of view).
uint64_t ToCount(std::string_view text);

Matrix LoadTable(ChunkedReader& reader) {
  std::string_view token;
  reader.NextToken(&token);
  uint64_t rows = ToCount(token);
  reader.NextToken(&token);
  uint64_t cols = ToCount(token);
  // Negative: the EXEA_CHECK range-validates cols.
  EXEA_CHECK(cols <= 4096);
  // Positive (taint-unchecked-sink): the unchecked header dimension
  // `rows` sizes the allocation.
  Matrix table(rows, cols);
  return table;
}

}  // namespace demo::serve
