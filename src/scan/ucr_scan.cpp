#include "scan/ucr_scan.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "dist/dtw.h"
#include "index/knn_heap.h"
#include "util/timer.h"

namespace parisax {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

bool Improves(const Neighbor& candidate, const Neighbor& best) {
  return candidate.distance_sq < best.distance_sq ||
         (candidate.distance_sq == best.distance_sq &&
          candidate.id < best.id);
}

/// The in-memory scans iterate a RawDataView over the source's
/// contiguous block. Addressability is a documented precondition (the
/// Engine facade gates it through the capability table); a violating
/// source asserts in debug builds and scans as empty in release builds
/// (count 0), never dereferencing the null block.
struct ScanView {
  RawDataView raw;
  size_t count = 0;
};

ScanView ViewOf(const RawSeriesSource& source) {
  assert(source.addressable() &&
         "in-memory scan requires an addressable source");
  if (!source.addressable()) return {};
  return {RawDataView{source.ContiguousData(), source.length()},
          source.count()};
}

}  // namespace

Neighbor BruteForceNn(const RawSeriesSource& source, SeriesView query,
                      KernelPolicy kernel) {
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  Neighbor best{0, kInf};
  for (SeriesId i = 0; i < view.count; ++i) {
    const float d = SquaredEuclidean(query, raw.series(i), kernel);
    if (Improves({i, d}, best)) best = {i, d};
  }
  return best;
}

std::vector<Neighbor> BruteForceKnn(const RawSeriesSource& source,
                                    SeriesView query, size_t k,
                                    KernelPolicy kernel) {
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  std::vector<Neighbor> all;
  all.reserve(view.count);
  for (SeriesId i = 0; i < view.count; ++i) {
    all.push_back({i, SquaredEuclidean(query, raw.series(i), kernel)});
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance_sq < b.distance_sq ||
                             (a.distance_sq == b.distance_sq && a.id < b.id);
                    });
  all.resize(take);
  return all;
}

Neighbor UcrScanSerial(const RawSeriesSource& source, SeriesView query,
                       ScanStats* stats, KernelPolicy kernel) {
  WallTimer timer;
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  Neighbor best{0, kInf};
  uint64_t abandoned = 0;
  for (SeriesId i = 0; i < view.count; ++i) {
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(i),
                                                 best.distance_sq, kernel);
    if (d < best.distance_sq) {
      best = {i, d};
    } else {
      ++abandoned;
    }
  }
  if (stats != nullptr) {
    stats->distance_calcs += view.count;
    stats->abandoned += abandoned;
    stats->seconds += timer.ElapsedSeconds();
  }
  return best;
}

Neighbor UcrScanParallel(const RawSeriesSource& source, SeriesView query,
                         Executor* exec, ScanStats* stats,
                         KernelPolicy kernel) {
  WallTimer timer;
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  BestNeighbor best(Neighbor{0, kInf});
  std::atomic<uint64_t> abandoned{0};

  constexpr size_t kGrain = 256;
  WorkCounter counter(view.count);
  exec->Run([&](int) {
    uint64_t local_abandoned = 0;
    size_t begin, end;
    while (counter.NextBatch(kGrain, &begin, &end)) {
      for (SeriesId i = begin; i < end; ++i) {
        const float bound = best.Bound();
        const float d = SquaredEuclideanEarlyAbandon(query, raw.series(i),
                                                     bound, kernel);
        if (d < bound) {
          best.Offer(i, d);
        } else {
          ++local_abandoned;
        }
      }
    }
    abandoned.fetch_add(local_abandoned, std::memory_order_relaxed);
  });

  if (stats != nullptr) {
    stats->distance_calcs += view.count;
    stats->abandoned += abandoned.load();
    stats->seconds += timer.ElapsedSeconds();
  }
  return best.Take();
}

Result<Neighbor> UcrScanStream(const RawSeriesSource& source,
                               SeriesView query, size_t batch_series,
                               ScanStats* stats, KernelPolicy kernel) {
  WallTimer timer;
  if (source.length() != query.size()) {
    return Status::InvalidArgument("query length does not match the source");
  }
  std::unique_ptr<SeriesStream> stream;
  PARISAX_ASSIGN_OR_RETURN(stream, source.OpenStream(batch_series));
  Neighbor best{0, kInf};
  uint64_t total = 0, abandoned = 0;
  for (;;) {
    SeriesBatch batch;
    PARISAX_RETURN_IF_ERROR(stream->NextBatch(&batch));
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.count; ++i) {
      const float d = SquaredEuclideanEarlyAbandon(query, batch.series(i),
                                                   best.distance_sq, kernel);
      if (d < best.distance_sq) {
        best = {batch.first_id + i, d};
      } else {
        ++abandoned;
      }
      ++total;
    }
  }
  if (stats != nullptr) {
    stats->distance_calcs += total;
    stats->abandoned += abandoned;
    stats->seconds += timer.ElapsedSeconds();
  }
  return best;
}

Neighbor BruteForceDtwNn(const RawSeriesSource& source, SeriesView query,
                         size_t band) {
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  Neighbor best{0, kInf};
  for (SeriesId i = 0; i < view.count; ++i) {
    const float d = DtwBand(query, raw.series(i), band, kInf);
    if (Improves({i, d}, best)) best = {i, d};
  }
  return best;
}

Neighbor DtwScanSerial(const RawSeriesSource& source, SeriesView query,
                       size_t band, ScanStats* stats) {
  WallTimer timer;
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  std::vector<Value> lower, upper;
  ComputeEnvelope(query, band, &lower, &upper);

  Neighbor best{0, kInf};
  DtwScratch scratch;
  uint64_t dtw_calcs = 0, abandoned = 0;
  for (SeriesId i = 0; i < view.count; ++i) {
    const float lb = LbKeoghSq(lower, upper, raw.series(i),
                               best.distance_sq, &scratch.suffix);
    if (lb >= best.distance_sq) {
      ++abandoned;
      continue;
    }
    const float d = DtwBand(query, raw.series(i), band, best.distance_sq,
                            &scratch, &scratch.suffix);
    ++dtw_calcs;
    if (d < best.distance_sq) best = {i, d};
  }
  if (stats != nullptr) {
    stats->distance_calcs += dtw_calcs;
    stats->abandoned += abandoned;
    stats->seconds += timer.ElapsedSeconds();
  }
  return best;
}

Neighbor DtwScanParallel(const RawSeriesSource& source, SeriesView query,
                         size_t band, Executor* exec, ScanStats* stats) {
  WallTimer timer;
  const ScanView view = ViewOf(source);
  const RawDataView raw = view.raw;
  std::vector<Value> lower, upper;
  ComputeEnvelope(query, band, &lower, &upper);

  BestNeighbor best(Neighbor{0, kInf});
  std::atomic<uint64_t> dtw_calcs{0}, abandoned{0};

  constexpr size_t kGrain = 128;
  WorkCounter counter(view.count);
  exec->Run([&](int) {
    DtwScratch scratch;
    uint64_t local_calcs = 0, local_abandoned = 0;
    size_t begin, end;
    while (counter.NextBatch(kGrain, &begin, &end)) {
      for (SeriesId i = begin; i < end; ++i) {
        const float bound = best.Bound();
        const float lb =
            LbKeoghSq(lower, upper, raw.series(i), bound, &scratch.suffix);
        if (lb >= bound) {
          ++local_abandoned;
          continue;
        }
        const float d = DtwBand(query, raw.series(i), band, bound, &scratch,
                                &scratch.suffix);
        ++local_calcs;
        if (d < bound) best.Offer(i, d);
      }
    }
    dtw_calcs.fetch_add(local_calcs, std::memory_order_relaxed);
    abandoned.fetch_add(local_abandoned, std::memory_order_relaxed);
  });

  if (stats != nullptr) {
    stats->distance_calcs += dtw_calcs.load();
    stats->abandoned += abandoned.load();
    stats->seconds += timer.ElapsedSeconds();
  }
  return best.Take();
}

}  // namespace parisax
