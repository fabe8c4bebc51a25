#include "trace.h"

#include <cstdio>

namespace perfbench {

uint64_t Tracer::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(const std::string& name, uint64_t parent,
                        uint64_t request, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  uint64_t id = NextId();
  RecordWithId(id, name, parent, request, start_ns, end_ns);
  return id;
}

void Tracer::RecordWithId(uint64_t id, const std::string& name,
                          uint64_t parent, uint64_t request, int64_t start_ns,
                          int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{name, id, parent, request, start_ns, end_ns});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 JsonEscape(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name,
                       uint64_t parent, uint64_t request)
    : tracer_(tracer),
      parent_(parent),
      request_(request),
      id_(0),
      start_ns_(0) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  name_ = name;
  id_ = tracer_->NextId();
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  tracer_->RecordWithId(id_, name_, parent_, request_, start_ns_, NowNs());
}

}  // namespace perfbench
