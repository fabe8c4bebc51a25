#include "util/chunked_reader.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace exea {
namespace util {
namespace {

// The separators of `std::istream >>` (space, \t, \n, \v, \f, \r), so
// token boundaries match the text the writers produce. One compare and
// one bit test per byte: this runs once for every byte of a payload.
bool IsSpace(char c) {
  constexpr uint64_t kSpaces = (1ULL << ' ') | (1ULL << '\t') |
                               (1ULL << '\n') | (1ULL << '\v') |
                               (1ULL << '\f') | (1ULL << '\r');
  auto byte = static_cast<unsigned char>(c);
  return byte <= ' ' && ((kSpaces >> byte) & 1) != 0;
}

}  // namespace

ChunkedReader::ChunkedReader(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "rb")) {
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for reading: " + path);
    eof_ = true;
    return;
  }
  buffer_.resize(kChunkBytes);
}

bool ChunkedReader::Refill() {
  if (eof_ || !status_.ok()) return false;
  if (begin_ > 0) {
    std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(begin_),
              buffer_.begin() + static_cast<std::ptrdiff_t>(end_),
              buffer_.begin());
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) {
    if (buffer_.size() >= kMaxRecordBytes) {
      status_ = Status::InvalidArgument(
          path_ + ": a token or line is longer than " +
          std::to_string(kMaxRecordBytes) + " bytes");
      return false;
    }
    buffer_.resize(buffer_.size() * 2);
  }
  size_t want = buffer_.size() - end_;
  size_t got = std::fread(buffer_.data() + end_, 1, want, file_.get());
  end_ += got;
  if (got < want) {
    eof_ = true;
    if (std::ferror(file_.get()) != 0) {
      status_ = Status::IoError("read failed: " + path_);
      return false;
    }
  }
  return got > 0;
}

bool ChunkedReader::NextToken(std::string_view* token) {
  for (;;) {
    const char* data = buffer_.data();
    while (begin_ < end_ && IsSpace(data[begin_])) ++begin_;
    if (begin_ < end_) break;
    if (!Refill()) return false;
  }
  size_t scanned = 1;  // bytes after begin_ known to belong to the token
  for (;;) {
    const char* data = buffer_.data() + begin_;
    const char* stop = data + scanned;
    const char* end = buffer_.data() + end_;
    while (stop < end && !IsSpace(*stop)) ++stop;
    scanned = static_cast<size_t>(stop - data);
    if (stop < end) break;
    if (!Refill()) {
      if (!status_.ok()) return false;
      break;  // the token ends the file
    }
  }
  *token = std::string_view(buffer_.data() + begin_, scanned);
  begin_ += scanned;
  return true;
}

bool ChunkedReader::NextLine(std::string_view* line) {
  if (!status_.ok()) return false;
  size_t scanned = 0;  // bytes after begin_ known to hold no '\n'
  size_t stop = 0;
  size_t next = 0;
  for (;;) {
    const char* from = buffer_.data() + begin_ + scanned;
    const void* newline = std::memchr(from, '\n', end_ - begin_ - scanned);
    if (newline != nullptr) {
      stop = static_cast<size_t>(static_cast<const char*>(newline) -
                                 buffer_.data());
      next = stop + 1;
      break;
    }
    scanned = end_ - begin_;
    if (!Refill()) {
      if (!status_.ok() || begin_ == end_) return false;
      stop = next = end_;  // a last line without a terminator
      break;
    }
  }
  *line = std::string_view(buffer_.data() + begin_, stop - begin_);
  begin_ = next;
  return true;
}

}  // namespace util
}  // namespace exea
