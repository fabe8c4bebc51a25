// ChunkedReader: the one decoder front end for on-disk text payloads
// (embedding matrices, IVF index files, and every TSV through ReadTsv).
//
// The file is read with fread into a fixed buffer of kChunkBytes that is
// refilled as it drains, so memory stays flat however large the file.
// Tokens and lines are handed out as views into that buffer; a view is
// valid until the next call on the reader. A record that straddles a
// refill is moved to the front of the buffer first, and one longer than
// the buffer grows it, up to kMaxRecordBytes.
//
// The reader only splits bytes. Numbers are converted by the checked
// util::Parse* functions (std::from_chars), so a token must parse in
// full or the load fails.

#ifndef EXEA_UTIL_CHUNKED_READER_H_
#define EXEA_UTIL_CHUNKED_READER_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace exea {
namespace util {

class ChunkedReader {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;
  static constexpr size_t kMaxRecordBytes = 16 * 1024 * 1024;

  // Opens `path` for reading; on failure status() is an IoError and every
  // Next* call returns false.
  explicit ChunkedReader(const std::string& path);

  // Stores the next run of non-whitespace bytes in `*token`. Returns
  // false at the end of the input or on an error (see status()).
  bool NextToken(std::string_view* token);

  // Stores the next line, without its "\n", in `*line`. A last line
  // without a terminator still counts. Returns false at the end of the
  // input or on an error (see status()).
  bool NextLine(std::string_view* line);

  // OK unless the file could not be opened, a read failed, or a record
  // outgrew kMaxRecordBytes. Check it after the last Next* call.
  const Status& status() const { return status_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  // Moves the unread bytes to the front of the buffer and appends what
  // the file has next. Returns false when nothing was added.
  bool Refill();

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // first unread byte
  size_t end_ = 0;    // one past the last buffered byte
  bool eof_ = false;
  Status status_;
};

}  // namespace util
}  // namespace exea

#endif  // EXEA_UTIL_CHUNKED_READER_H_
