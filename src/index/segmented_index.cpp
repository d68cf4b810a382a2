#include "index/segmented_index.h"

#include <cassert>
#include <limits>
#include <utility>

#include "index/approx_search.h"
#include "sax/paa.h"
#include "sax/word.h"
#include "util/timer.h"

namespace parisax {

namespace {

/// Best (distance, id) across `a` and `b`.
Neighbor BetterNeighbor(const Neighbor& a, const Neighbor& b) {
  if (b.distance_sq < a.distance_sq ||
      (b.distance_sq == a.distance_sq && b.id < a.id)) {
    return b;
  }
  return a;
}

}  // namespace

Status SegmentedIndex::AttachSource(std::unique_ptr<RawSeriesSource> source) {
  if (source->length() != tree_options_.series_length) {
    return Status::InvalidArgument(
        "raw source length does not match the index");
  }
  if (!flat_sax_ && source->ContiguousData() == nullptr &&
      source->count() > 0) {
    return Status::NotSupported(
        "MESSI requires a directly addressable raw source (in-memory or "
        "mmap)");
  }
  source_ = std::move(source);
  return Status::OK();
}

void SegmentedIndex::PublishInitial(std::shared_ptr<ServingState> state) {
  // Streamed sources have no contiguous block: raw.base stays null and
  // queries fetch through the source.
  state->raw =
      RawDataView{source_->ContiguousData(), tree_options_.series_length};
  dock_.Publish(std::move(state));
}

Result<size_t> SegmentedIndex::Append(const Value* values, size_t count) {
  if (count == 0) return size_t{0};
  const SeriesId first = dock_.get()->count;

  // Grow the source first (no source invalidates a reader as it grows),
  // then build the segment from the caller's values and publish both in
  // one atomic step. Queries keep whichever snapshot they captured. The
  // segment is one batch, so building it inline beats contending for a
  // shared pool.
  PARISAX_RETURN_IF_ERROR(source_->AppendSeries(values, count));
  InlineExecutor inline_exec;
  std::shared_ptr<const Segment> segment;
  PARISAX_ASSIGN_OR_RETURN(segment, BuildSegment(values, count, first,
                                                 tree_options_, flat_sax_,
                                                 &inline_exec));
  const size_t touched_roots = segment->tree.PresentRoots().size();
  dock_.PublishAppend(std::move(segment),
                      RawDataView{source_->ContiguousData(),
                                  tree_options_.series_length},
                      source_->count());
  tree_stats_.total_entries += count;
#ifndef NDEBUG
  {
    const auto snap = dock_.get();
    size_t total = snap->base->Collect().total_entries;
    for (const auto& seg : snap->segments) {
      total += seg->tree.Collect().total_entries;
    }
    assert(total == snap->count);
  }
#endif
  return touched_roots;
}

Result<bool> SegmentedIndex::FoldSegments(
    const std::shared_ptr<const ServingState>& snap, size_t folded,
    Executor* exec) {
  if (folded == 0) return true;
  if (folded > snap->segments.size()) {
    return Status::InvalidArgument("fold count exceeds the segment list");
  }
  // Collect the base's entries (reading back any flushed chunks) plus
  // the folded segments'.
  std::vector<LeafEntry> entries;
  PARISAX_RETURN_IF_ERROR(
      CollectTreeEntries(*snap->base, leaf_storage_.get(), &entries));
  size_t new_base_count = snap->base_count;
  for (size_t i = 0; i < folded; ++i) {
    PARISAX_RETURN_IF_ERROR(CollectTreeEntries(snap->segments[i]->tree,
                                               /*storage=*/nullptr,
                                               &entries));
    new_base_count += snap->segments[i]->count;
  }
  auto base = std::make_shared<SaxTree>(tree_options_);
  PARISAX_RETURN_IF_ERROR(BuildTreeFromEntries(base.get(), entries, exec));
  if (base->Collect().total_entries != new_base_count) {
    return Status::Internal("segment fold lost series");
  }
  std::shared_ptr<FlatSaxCache> cache;
  if (flat_sax_) {
    cache = std::make_shared<FlatSaxCache>(new_base_count);
    for (const LeafEntry& e : entries) *cache->MutableAt(e.id) = e.sax;
  }
  return dock_.TryFold(snap, folded, std::move(base), std::move(cache),
                       new_base_count);
}

Result<bool> SegmentedIndex::MergeSegmentRun(
    const std::shared_ptr<const ServingState>& snap, size_t folded,
    Executor* exec) {
  if (folded < 2 || folded > snap->segments.size()) {
    return Status::InvalidArgument("merge run out of range");
  }
  const std::vector<std::shared_ptr<const Segment>> parts(
      snap->segments.begin(), snap->segments.begin() + folded);
  std::shared_ptr<const Segment> merged;
  PARISAX_ASSIGN_OR_RETURN(merged,
                           MergeSegments(parts, tree_options_, exec));
  return dock_.TryMergeSegments(snap, folded, std::move(merged));
}

Result<std::shared_ptr<const Segment>> SegmentedIndex::DeltaSegment(
    const std::shared_ptr<const ServingState>& snap, SeriesId head,
    Executor* exec) const {
  // Fast path: a live segment covering exactly [head, count) — the
  // common case when saves line up with append boundaries and the
  // compactor has not merged across the head.
  for (const auto& segment : snap->segments) {
    if (segment->first == head &&
        segment->first + segment->count == snap->count) {
      return segment;
    }
  }
  // Re-section: collect every entry with id >= head (merged segments
  // may straddle the head) and build the covering segment fresh.
  std::vector<LeafEntry> entries;
  for (const auto& segment : snap->segments) {
    if (segment->first + segment->count <= head) continue;
    std::vector<LeafEntry> collected;
    PARISAX_RETURN_IF_ERROR(
        CollectTreeEntries(segment->tree, /*storage=*/nullptr,
                           &collected));
    for (const LeafEntry& e : collected) {
      if (e.id >= head) entries.push_back(e);
    }
  }
  return SegmentFromEntries(entries, head, snap->count - head,
                            tree_options_, flat_sax_, exec);
}

Result<Neighbor> SegmentedIndex::ProbeAllTrees(const ServingState& snap,
                                               SeriesView query,
                                               const float* paa,
                                               const SaxSymbols& sax,
                                               KernelPolicy kernel,
                                               QueryStats* stats) const {
  // Addressable snapshots read through the pinned raw view, with no
  // virtual call per series; streamed ones go through the source.
  const auto probe = [&](const SaxTree& tree, LeafStorage* storage) {
    return snap.raw.base != nullptr
               ? ApproximateLeafSearch(tree, storage, snap.raw, query, paa,
                                       sax, kernel, stats)
               : ApproximateLeafSearch(tree, storage, *source_, query, paa,
                                       sax, kernel, stats);
  };
  Neighbor best{0, std::numeric_limits<float>::infinity()};
  Neighbor cand;
  PARISAX_ASSIGN_OR_RETURN(cand, probe(*snap.base, leaf_storage_.get()));
  best = BetterNeighbor(best, cand);
  for (const auto& seg : snap.segments) {
    // Segment leaves are always fully in memory (no flushed chunks).
    PARISAX_ASSIGN_OR_RETURN(cand, probe(seg->tree, /*storage=*/nullptr));
    best = BetterNeighbor(best, cand);
  }
  return best;
}

Result<Neighbor> SegmentedIndex::SearchApproximate(SeriesView query,
                                                   QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer timer;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);
  auto result =
      ProbeAllTrees(*snap, query, paa, sax, KernelPolicy::kAuto, stats);
  if (stats != nullptr) stats->total_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace parisax
