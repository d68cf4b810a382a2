#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace parisax::suite {

TraceLog::TraceLog(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) {
    MutexLock lock(&mu_);
    spans_.reserve(capacity_);
  }
}

uint32_t TraceLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                       uint32_t parent, uint64_t request, int64_t slot) {
  if (!enabled_) return 0;
  MutexLock lock(&mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const auto id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, request, slot});
  return id;
}

void TraceLog::Finish(uint32_t id, int64_t end_ns) {
  if (id == 0) return;
  MutexLock lock(&mu_);
  spans_[id - 1].end_ns = end_ns;
}

size_t TraceLog::recorded() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

size_t TraceLog::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

Status TraceLog::WriteJson(const std::string& path) const {
  MutexLock lock(&mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"dropped\": %zu, \"spans\": [\n", dropped_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"request\": %llu, \"slot\": %lld, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}%s\n",
                 s.id, s.parent, s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.slot),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("cannot finish " + path);
}

}  // namespace parisax::suite
