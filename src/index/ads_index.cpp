#include "index/ads_index.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "sax/mindist.h"
#include "sax/paa.h"
#include "util/timer.h"

namespace parisax {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Flat-SAX rows bounded per batched MinDistTable call in the filter.
constexpr size_t kFilterBlock = 1024;

}  // namespace

Result<std::unique_ptr<AdsIndex>> AdsIndex::Build(
    std::unique_ptr<RawSeriesSource> source,
    const AdsBuildOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  if (source->length() != options.tree.series_length) {
    return Status::InvalidArgument(
        "tree.series_length does not match the source");
  }
  if (!source->addressable() && options.leaf_storage_path.empty()) {
    return Status::InvalidArgument(
        "streamed (on-disk) ADS+ build requires leaf_storage_path");
  }
  WallTimer wall;
  auto index = std::unique_ptr<AdsIndex>(new AdsIndex(options.tree));
  if (!options.leaf_storage_path.empty()) {
    PARISAX_ASSIGN_OR_RETURN(
        index->leaf_storage_,
        LeafStorage::Create(options.leaf_storage_path,
                            options.leaf_write_mbps));
  }
  index->cache_ = FlatSaxCache(source->count());
  LeafStorage* storage = index->leaf_storage_.get();

  const int w = options.tree.segments;
  float paa[kMaxSegments];
  if (source->addressable()) {
    // Summarize in place: works identically over an in-RAM Dataset and
    // an mmap-ed file (no copy either way).
    const RawDataView raw{source->ContiguousData(), source->length()};
    WallTimer cpu;
    for (SeriesId i = 0; i < source->count(); ++i) {
      ComputePaa(raw.series(i), w, paa);
      LeafEntry entry;
      entry.id = i;
      SymbolsFromPaa(paa, w, &entry.sax);
      *index->cache_.MutableAt(i) = entry.sax;
      PARISAX_RETURN_IF_ERROR(index->tree_.Insert(entry, storage));
    }
    index->build_stats_.cpu_seconds = cpu.ElapsedSeconds();
  } else {
    std::unique_ptr<SeriesStream> stream;
    PARISAX_ASSIGN_OR_RETURN(stream,
                             source->OpenStream(options.batch_series));
    for (;;) {
      SeriesBatch batch;
      {
        WallTimer read;
        PARISAX_RETURN_IF_ERROR(stream->NextBatch(&batch));
        index->build_stats_.read_seconds += read.ElapsedSeconds();
      }
      if (batch.empty()) break;
      WallTimer cpu;
      for (size_t i = 0; i < batch.count; ++i) {
        ComputePaa(batch.series(i), w, paa);
        LeafEntry entry;
        entry.id = batch.first_id + i;
        SymbolsFromPaa(paa, w, &entry.sax);
        *index->cache_.MutableAt(entry.id) = entry.sax;
        PARISAX_RETURN_IF_ERROR(index->tree_.Insert(entry, storage));
      }
      index->build_stats_.cpu_seconds += cpu.ElapsedSeconds();
    }
  }

  // Materialize every leaf when a leaf store is configured (ADS+ is an
  // on-disk index in the paper's pipeline).
  if (storage != nullptr) {
    WallTimer write;
    Status flush_status = Status::OK();
    index->tree_.VisitLeaves(nullptr, [&](Node* leaf) {
      if (!flush_status.ok() || leaf->entries().empty()) return;
      auto ref = storage->AppendChunk(leaf->entries());
      if (!ref.ok()) {
        flush_status = ref.status();
        return;
      }
      leaf->flushed_chunks().push_back(*ref);
      leaf->entries().clear();
      leaf->entries().shrink_to_fit();
    });
    PARISAX_RETURN_IF_ERROR(flush_status);
    index->build_stats_.write_seconds = write.ElapsedSeconds();
  }

  index->source_ = std::move(source);
  index->tree_.SealRoots();
  index->build_stats_.tree = index->tree_.Collect();
  index->build_stats_.wall_seconds = wall.ElapsedSeconds();
  return index;
}

Result<Neighbor> AdsIndex::ApproximateInternal(SeriesView query,
                                               const float* paa,
                                               const SaxSymbols& sax,
                                               KernelPolicy kernel,
                                               QueryStats* stats) const {
  Neighbor best{0, kInf};
  Node* leaf = tree_.ApproximateLeaf(sax, paa);
  if (leaf == nullptr) return best;  // empty index

  std::vector<LeafEntry> entries;
  PARISAX_RETURN_IF_ERROR(
      CollectLeafEntries(*leaf, leaf_storage_.get(), &entries));
  std::vector<Value> buffer(source_->length());
  for (const LeafEntry& e : entries) {
    SeriesView view = source_->TryView(e.id);
    if (view.empty()) {
      PARISAX_RETURN_IF_ERROR(source_->GetSeries(e.id, buffer.data()));
      view = SeriesView(buffer.data(), buffer.size());
    }
    const float d = SquaredEuclideanEarlyAbandon(query, view,
                                                 best.distance_sq, kernel);
    if (stats != nullptr) stats->real_dist_calcs++;
    if (d < best.distance_sq) best = Neighbor{e.id, d};
  }
  if (stats != nullptr) stats->leaves_inspected++;
  return best;
}

Result<Neighbor> AdsIndex::SearchApproximate(SeriesView query,
                                             QueryStats* stats) const {
  if (query.size() != tree_.options().series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer timer;
  const int w = tree_.options().segments;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);
  auto result = ApproximateInternal(query, paa, sax, KernelPolicy::kAuto,
                                    stats);
  if (stats != nullptr) stats->total_seconds = timer.ElapsedSeconds();
  return result;
}

Result<Neighbor> AdsIndex::SearchExact(SeriesView query,
                                       const AdsQueryOptions& options,
                                       QueryStats* stats) const {
  if (query.size() != tree_.options().series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer total;
  const int w = tree_.options().segments;
  const size_t n = tree_.options().series_length;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // Phase 1: approximate answer seeds the BSF.
  WallTimer approx;
  Neighbor best;
  PARISAX_ASSIGN_OR_RETURN(
      best, ApproximateInternal(query, paa, sax, options.kernel, stats));
  if (stats != nullptr) stats->approx_phase_seconds = approx.ElapsedSeconds();

  // Phase 2: serial mindist filtering over the flat SAX array, four
  // summaries per step.
  WallTimer filter;
  const MinDistTable lbs(paa, paa, w, n);
  std::vector<std::pair<SeriesId, float>> candidates;  // (id, bound)
  float bounds[kFilterBlock];
  for (SeriesId begin = 0; begin < cache_.count(); begin += kFilterBlock) {
    const size_t count = std::min(kFilterBlock, cache_.count() - begin);
    lbs.ToSymbolsSq(&cache_.At(begin), sizeof(SaxSymbols), count, bounds);
    for (size_t i = 0; i < count; ++i) {
      if (bounds[i] < best.distance_sq) {
        candidates.emplace_back(begin + i, bounds[i]);
      }
    }
  }
  if (stats != nullptr) {
    stats->lb_checks += cache_.count();
    stats->candidates += candidates.size();
    stats->filter_phase_seconds = filter.ElapsedSeconds();
  }

  // Phase 3: skip-sequential refinement in position order (the serial
  // filter emits candidates in id order). A candidate whose bound has
  // reached the BSF is skipped before it is read (SIMS).
  WallTimer refine;
  std::vector<Value> buffer(source_->length());
  for (const auto& [id, bound] : candidates) {
    if (bound >= best.distance_sq) continue;
    SeriesView view = source_->TryView(id);
    if (view.empty()) {
      PARISAX_RETURN_IF_ERROR(source_->GetSeries(id, buffer.data()));
      view = SeriesView(buffer.data(), buffer.size());
    }
    const float d = SquaredEuclideanEarlyAbandon(query, view,
                                                 best.distance_sq,
                                                 options.kernel);
    if (stats != nullptr) stats->real_dist_calcs++;
    if (d < best.distance_sq) best = Neighbor{id, d};
  }
  if (stats != nullptr) {
    stats->refine_phase_seconds = refine.ElapsedSeconds();
    stats->total_seconds = total.ElapsedSeconds();
  }
  return best;
}

}  // namespace parisax
