// In-memory span log of a traced run (--trace 1), written to JSON at
// exit. Spans are recorded by the benchmark around its calls into each
// layer's public functions; nothing inside the library is instrumented.
#ifndef PARISAX_BENCH_SUITE_TRACE_H_
#define PARISAX_BENCH_SUITE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace parisax::suite {

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;      // 1-based; 0 means "no span"
  uint32_t parent = 0;  // 0: root
  /// Wire request id; 0 for spans of in-process replays, which send no
  /// wire request.
  uint64_t request = 0;
  /// Pool slot of the query (the batch number for index.append); -1
  /// when the span belongs to no query.
  int64_t slot = -1;
};

/// Thread-safe, capacity-bounded span store. A disabled log (the
/// untraced runs) records nothing and costs one branch per call.
class TraceLog {
 public:
  TraceLog(bool enabled, size_t capacity);

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id, or 0 when disabled or
  /// the capacity is exhausted (the span is then only counted).
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint64_t request, int64_t slot);

  /// Sets the end of span `id`, for a parent span recorded before its
  /// children (with a provisional end). No-op for id 0.
  void Finish(uint32_t id, int64_t end_ns);

  size_t recorded() const;
  /// Spans that did not fit in the capacity.
  size_t dropped() const;

  /// {"spans": [...], "dropped": n}; times relative to the first span.
  Status WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const size_t capacity_;
  mutable Mutex mu_{"suite::TraceLog::mu_", LockRank::kLeaf};
  std::vector<Span> spans_ PARISAX_GUARDED_BY(mu_);
  size_t dropped_ PARISAX_GUARDED_BY(mu_) = 0;
};

}  // namespace parisax::suite

#endif  // PARISAX_BENCH_SUITE_TRACE_H_
