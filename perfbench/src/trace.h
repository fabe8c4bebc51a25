// The benchmark's own span recorder (traced runs only). Spans are
// recorded around the benchmark's calls into each layer and around every
// client request; they stay in memory and are written out as JSON lines
// when the run ends. Disabled, every call is a branch and nothing else.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by the spans of one request; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t request,
                  int64_t start_ns, int64_t end_ns);

  // Reserves an id for a span whose children are recorded before it.
  uint64_t NextId();
  void RecordWithId(uint64_t id, const std::string& name, uint64_t parent,
                    uint64_t request, int64_t start_ns, int64_t end_ns);

  size_t size() const;

  // One JSON object per line: name, id, parent, request, start_ns, end_ns.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

// RAII span around one call: records [construction, destruction).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
