#include "paris/paris_index.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "index/knn_heap.h"
#include "paris/recbuf.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace parisax {

namespace {

/// ParIS+ flushes a leaf once it holds at least this fraction of
/// leaf_capacity in memory (lower = more eager flushing).
constexpr double kFlushFillFraction = 0.5;
/// SAX-array block size per Fetch&Inc claim in the filtering phase.
constexpr size_t kFilterGrain = 4096;
/// Candidates per Fetch&Inc claim in the refinement phase.
constexpr size_t kRefineGrain = 4;
/// Survivors sorted into the first bound-order refinement window; each
/// later window is four times larger.
constexpr size_t kFirstRefineWindow = 512;
/// Series one skip-sequential read pass fetches before the pool
/// computes their distances.
constexpr size_t kSequentialChunk = 256;

/// A series that survived the lower-bound filter, with its bound.
struct Survivor {
  float bound;
  SeriesId id;
};

bool BoundOrder(const Survivor& a, const Survivor& b) {
  return a.bound < b.bound || (a.bound == b.bound && a.id < b.id);
}

bool IdOrder(const Survivor& a, const Survivor& b) { return a.id < b.id; }

/// Refines `survivors` on the pool against `best`, reading each series
/// from the pinned `raw` view when the snapshot has one, else from
/// `source`. Returns the number of survivors refined, or the first read
/// error.
///
/// With `bound_order` (random reads cost the same in any order: memory,
/// mmap, an unmetered file) the survivors go in ascending (bound, id)
/// order and a worker stops at the first bound that has reached the BSF:
/// every later bound is no smaller and the BSF only falls, so no later
/// survivor can win. A loose seed leaves many survivors that are never
/// refined, so only the next window is selected and sorted, after
/// dropping what the BSF has already overtaken.
///
/// Without it (a metered device with several channels, the SSD model)
/// the survivors go in position order, so each worker's reads stay
/// forward and mostly inside the device's read-through window, and a
/// survivor whose bound has reached the BSF is skipped before it is read
/// (SIMS's rule).
Result<uint64_t> RefineParallel(std::vector<Survivor>* survivors,
                                bool bound_order, SeriesView query,
                                const ParisQueryOptions& options,
                                Executor* exec, BestNeighbor* best,
                                const RawDataView& raw,
                                const RawSeriesSource& source) {
  Survivor* const s = survivors->data();
  size_t begin = 0;
  size_t live = survivors->size();
  if (!bound_order) std::sort(s, s + live, IdOrder);
  std::atomic<uint64_t> refined{0};
  std::atomic<bool> stop{false};
  Mutex error_mu{"RefineParallel::error_mu", LockRank::kFirstError};
  Status error;
  for (size_t window = kFirstRefineWindow; begin < live && !stop.load();
       window *= 4) {
    size_t end = live;  // position order: one pass over every survivor
    if (bound_order) {
      const float bsf = best->Bound();
      live = std::partition(
                 s + begin, s + live,
                 [bsf](const Survivor& c) { return c.bound < bsf; }) -
             s;
      end = std::min(live, begin + window);
      if (end < live) {
        std::nth_element(s + begin, s + end, s + live, BoundOrder);
      }
      std::sort(s + begin, s + end, BoundOrder);
    }
    WorkCounter counter(end - begin);
    exec->Run([&](int) {
      std::vector<Value> buffer(query.size());
      uint64_t count = 0;
      size_t first, last;
      while (!stop.load(std::memory_order_relaxed) &&
             counter.NextBatch(kRefineGrain, &first, &last)) {
        if (Expired(options.cancel)) break;
        for (const Survivor* c = s + begin + first; c < s + begin + last;
             ++c) {
          const float bound = best->Bound();
          if (c->bound >= bound) {
            if (!bound_order) continue;
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          // The pinned view needs no source virtuals, so a concurrent
          // append cannot interfere.
          SeriesView view = raw.base != nullptr ? raw.series(c->id)
                                                : source.TryView(c->id);
          if (view.empty()) {
            const Status st = source.GetSeries(c->id, buffer.data());
            if (!st.ok()) {
              MutexLock lock(&error_mu);
              if (error.ok()) error = st;
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            view = SeriesView(buffer.data(), buffer.size());
          }
          ++count;
          const float d =
              SquaredEuclideanEarlyAbandon(query, view, bound, options.kernel);
          if (d < bound) best->Offer(c->id, d);
        }
      }
      refined.fetch_add(count, std::memory_order_relaxed);
    });
    if (Expired(options.cancel)) break;
    begin = end;
  }
  MutexLock lock(&error_mu);
  if (!error.ok()) return error;
  return refined.load();
}

/// Seek-bound device (an HDD): racing workers would destroy the
/// skip-sequential order and pay a seek per candidate. One I/O stream
/// reads the survivors in position order, a chunk at a time, and skips
/// any whose bound has reached the BSF before reading it (SIMS's rule);
/// the pool computes each chunk's distances. Returns the number of
/// survivors read and refined.
Result<uint64_t> RefineSkipSequential(std::vector<Survivor>* survivors,
                                      SeriesView query,
                                      const ParisQueryOptions& options,
                                      Executor* exec, BestNeighbor* best,
                                      const RawSeriesSource& source) {
  std::sort(survivors->begin(), survivors->end(), IdOrder);
  const size_t n = query.size();
  std::vector<Value> values(kSequentialChunk * n);
  SeriesId ids[kSequentialChunk];
  uint64_t refined = 0;
  size_t next = 0;
  while (next < survivors->size() && !Expired(options.cancel)) {
    size_t count = 0;
    for (; next < survivors->size() && count < kSequentialChunk; ++next) {
      const Survivor& c = (*survivors)[next];
      if (c.bound >= best->Bound()) continue;
      PARISAX_RETURN_IF_ERROR(
          source.GetSeries(c.id, values.data() + count * n));
      ids[count++] = c.id;
    }
    refined += count;
    WorkCounter counter(count);
    exec->Run([&](int) {
      size_t c;
      while (counter.NextItem(&c)) {
        const float bound = best->Bound();
        const float d = SquaredEuclideanEarlyAbandon(
            query.data(), values.data() + c * n, n, bound, options.kernel);
        if (d < bound) best->Offer(ids[c], d);
      }
    });
  }
  return refined;
}

/// One half of the double-buffered raw data buffer (Stage 1 <-> Stage 2).
struct BatchSlot {
  Mutex mu{"ParisBuilder::BatchSlot::mu", LockRank::kBuildSlot};
  CondVar cv;

  // Buffer contents. `storage` backs streamed builds; addressable
  // sources point `values` straight into the contiguous block.
  AlignedBuffer<Value> storage;
  const Value* values = nullptr;
  SeriesId first_id = 0;
  size_t count = 0;

  // Protocol state. The remaining fields (buffer contents, work
  // counters, drain list) are handed off by the protocol itself: the
  // coordinator writes them while it holds exclusive buffer access
  // (between observing `free` and re-publishing) and workers read them
  // only after the publication / barrier edges below.
  int64_t published PARISAX_GUARDED_BY(mu) = -1;  ///< batch in the buffer
  bool free PARISAX_GUARDED_BY(mu) = true;   ///< coordinator may refill
  int arrived PARISAX_GUARDED_BY(mu) = 0;    ///< workers done summarizing
  int64_t drain_ready PARISAX_GUARDED_BY(mu) = -1;  ///< drain list ready

  WorkCounter summarize{0};          // claims over [0, count)
  std::vector<uint32_t> drain_list;  // ParIS+: keys to drain this batch
  WorkCounter drain{0};              // claims over drain_list
};

}  // namespace

/// Orchestrates one index build. Owns the transient pipeline state; the
/// durable result lands in the tree/cache the caller will publish.
class ParisBuilder {
 public:
  ParisBuilder(ParisIndex* index, SaxTree* tree, FlatSaxCache* cache,
               const ParisBuildOptions& options, size_t total_series)
      : index_(index),
        tree_(tree),
        cache_(cache),
        options_(options),
        total_series_(total_series),
        recbufs_(options.tree.segments),
        flush_threshold_(std::max<size_t>(
            1, static_cast<size_t>(kFlushFillFraction *
                                   static_cast<double>(
                                       options.tree.leaf_capacity)))) {
    total_batches_ =
        static_cast<int64_t>((total_series_ + options_.batch_series - 1) /
                             options_.batch_series);
  }

  /// Runs the pipeline over `source`: zero-copy batches when the source
  /// is addressable, metered sequential streaming otherwise.
  Status Run(const RawSeriesSource& source);

 private:
  Status CoordinatorLoop(SeriesStream* stream, const Value* base);
  void WorkerLoop(int worker_id);

  /// Drains RecBuf `key` into its subtree; flushes leaves holding at
  /// least `flush_threshold` entries when `flush` is set.
  Status DrainKey(uint32_t key, bool flush, size_t flush_threshold,
                  std::vector<LeafEntry>* scratch);

  /// ParIS stage 3: construction workers drain all touched RecBufs while
  /// the coordinator is paused.
  Status Stage3Round();

  /// Flushes every leaf still holding in-memory entries (build tail).
  Status FinalFlush();

  void RecordError(const Status& status) {
    {
      MutexLock lock(&error_mu_);
      if (first_error_.ok()) first_error_ = status;
      failed_.store(true, std::memory_order_release);
    }
    // Wake anyone blocked on a slot so the pipeline can unwind. Waiters
    // test failed_ under the slot mutex, so notify under it too: a
    // waiter that read failed_ == false holds the mutex until it
    // blocks, and a notify sent in that window would be lost.
    for (BatchSlot& s : slots_) {
      MutexLock lock(&s.mu);
      s.cv.NotifyAll();
    }
  }

  bool materialize_leaves() const {
    return index_->leaf_storage_ != nullptr;
  }

  ParisIndex* index_;
  SaxTree* tree_;
  FlatSaxCache* cache_;
  const ParisBuildOptions& options_;
  const size_t total_series_;
  int64_t total_batches_ = 0;

  RecBufSet recbufs_;
  const size_t flush_threshold_;
  BatchSlot slots_[2];

  std::unique_ptr<ThreadPool> construction_pool_;  // ParIS stage 3

  StageAccumulator summarize_cpu_;
  StageAccumulator tree_cpu_;

  Mutex error_mu_{"ParisBuilder::error_mu_", LockRank::kFirstError};
  Status first_error_ PARISAX_GUARDED_BY(error_mu_);
  std::atomic<bool> failed_{false};
};

Status ParisBuilder::Run(const RawSeriesSource& source) {
  if (source.length() != options_.tree.series_length) {
    return Status::InvalidArgument(
        "tree.series_length does not match the source");
  }
  const Value* base = source.ContiguousData();
  if (base != nullptr) {
    // Addressable source: slots point straight into the block (zero
    // copy, no coordinator read phase).
    return CoordinatorLoop(nullptr, base);
  }
  // Streamed source: the coordinator copies batches into slot-owned
  // buffers, paying the device model's sequential cost per batch.
  std::unique_ptr<SeriesStream> stream;
  PARISAX_ASSIGN_OR_RETURN(stream,
                           source.OpenStream(options_.batch_series));
  for (BatchSlot& slot : slots_) {
    slot.storage.Allocate(options_.batch_series *
                          options_.tree.series_length);
    slot.values = slot.storage.data();
  }
  return CoordinatorLoop(stream.get(), nullptr);
}

Status ParisBuilder::CoordinatorLoop(SeriesStream* stream,
                                     const Value* base) {
  WallTimer wall;
  ParisBuildStats& stats = index_->build_stats_;

  if (!options_.plus_mode) {
    construction_pool_ =
        std::make_unique<ThreadPool>(options_.num_workers);
  }
  ThreadPool bulk_pool(options_.num_workers);

  // The bulk-loading workers run as one long parallel region; the
  // coordinator (this thread) feeds them batches. Run() blocks, so the
  // coordinator logic itself executes on a dedicated thread.
  Status coord_status;
  std::thread coordinator([&] {
    for (int64_t b = 0; b < total_batches_; ++b) {
      if (failed_.load(std::memory_order_acquire)) break;
      BatchSlot& slot = slots_[b % 2];
      {
        MutexLock lock(&slot.mu);
        while (!slot.free && !failed_.load(std::memory_order_acquire)) {
          slot.cv.Wait(slot.mu);
        }
      }
      if (failed_.load(std::memory_order_acquire)) break;
      // Exclusive buffer access between `free` and re-publication.
      const SeriesId first = static_cast<SeriesId>(b) *
                             options_.batch_series;
      size_t count;
      if (stream != nullptr) {
        SeriesBatch batch;
        WallTimer read;
        const Status st = stream->NextBatch(&batch);
        stats.read_wall_seconds += read.ElapsedSeconds();
        if (!st.ok()) {
          coord_status = st;
          RecordError(st);
          break;
        }
        count = batch.count;
        std::copy(batch.values,
                  batch.values + count * options_.tree.series_length,
                  slot.storage.data());
      } else {
        count = std::min(options_.batch_series,
                         total_series_ - static_cast<size_t>(first));
        slot.values = base + static_cast<size_t>(first) *
                                 options_.tree.series_length;
      }
      {
        MutexLock lock(&slot.mu);
        slot.first_id = first;
        slot.count = count;
        slot.free = false;
        slot.arrived = 0;
        slot.summarize.Reset(count);
        slot.published = b;
      }
      slot.cv.NotifyAll();

      // ParIS: "main memory full" -> pause reading, run stage 3.
      if (!options_.plus_mode &&
          ((b + 1) % static_cast<int64_t>(options_.batches_per_round) == 0 ||
           b + 1 == total_batches_)) {
        for (BatchSlot& s : slots_) {
          MutexLock lock(&s.mu);
          while (!s.free && !failed_.load(std::memory_order_acquire)) {
            s.cv.Wait(s.mu);
          }
        }
        if (failed_.load(std::memory_order_acquire)) break;
        WallTimer stage3;
        const Status st = Stage3Round();
        stats.stage3_wall_seconds += stage3.ElapsedSeconds();
        if (!st.ok()) {
          coord_status = st;
          RecordError(st);
          break;
        }
      }
    }
    // Ensure workers blocked on publication observe the end state.
    for (BatchSlot& s : slots_) s.cv.NotifyAll();
  });

  bulk_pool.Run([&](int worker) { WorkerLoop(worker); });
  coordinator.join();

  PARISAX_RETURN_IF_ERROR(coord_status);
  {
    MutexLock lock(&error_mu_);
    PARISAX_RETURN_IF_ERROR(first_error_);
  }

  // Tail: ParIS+ drains whatever the last batches re-listed; ParIS's
  // final stage-3 round already ran. Then materialize remaining leaves.
  if (recbufs_.HasTouched()) {
    WallTimer stage3;
    PARISAX_RETURN_IF_ERROR(Stage3Round());
    stats.stage3_wall_seconds += stage3.ElapsedSeconds();
  }
  if (materialize_leaves()) {
    WallTimer flush;
    PARISAX_RETURN_IF_ERROR(FinalFlush());
    stats.final_flush_wall_seconds = flush.ElapsedSeconds();
  }

  tree_->SealRoots();
  stats.tree = tree_->Collect();
  stats.summarize_cpu_seconds = summarize_cpu_.TotalSeconds();
  stats.tree_cpu_seconds = tree_cpu_.TotalSeconds();
  if (index_->leaf_storage_ != nullptr) {
    stats.leaf_chunks_flushed = index_->leaf_storage_->chunks_appended();
    stats.leaf_chunk_readbacks = index_->leaf_storage_->chunks_read();
  }
  stats.wall_seconds = wall.ElapsedSeconds();

  if (stats.tree.total_entries != total_series_) {
    return Status::Internal("index lost series during the build");
  }
  return Status::OK();
}

void ParisBuilder::WorkerLoop(int worker_id) {
  (void)worker_id;
  const int w = options_.tree.segments;
  std::vector<LeafEntry> scratch;

  for (int64_t b = 0; b < total_batches_; ++b) {
    BatchSlot& slot = slots_[b % 2];
    {
      MutexLock lock(&slot.mu);
      while (slot.published < b &&
             !failed_.load(std::memory_order_acquire)) {
        slot.cv.Wait(slot.mu);
      }
    }
    if (failed_.load(std::memory_order_acquire)) return;

    // Stage 2: summarize claimed ranges of the raw data buffer.
    {
      StageAccumulator::Scope timed(&summarize_cpu_);
      float paa[kMaxSegments];
      size_t begin, end;
      while (slot.summarize.NextBatch(64, &begin, &end)) {
        for (size_t i = begin; i < end; ++i) {
          const SeriesView series(
              slot.values + i * options_.tree.series_length,
              options_.tree.series_length);
          ComputePaa(series, w, paa);
          LeafEntry entry;
          entry.id = slot.first_id + i;
          SymbolsFromPaa(paa, w, &entry.sax);
          *cache_->MutableAt(entry.id) = entry.sax;
          recbufs_.Append(RootKey(entry.sax, w), entry);
        }
      }
    }

    // Per-batch barrier; the last arriver frees the buffer for the
    // coordinator and, in ParIS+ mode, snapshots the drain work list.
    {
      MutexLock lock(&slot.mu);
      if (++slot.arrived == options_.num_workers) {
        slot.free = true;
        if (options_.plus_mode) {
          slot.drain_list = recbufs_.TakeTouched();
          slot.drain.Reset(slot.drain_list.size());
        }
        slot.drain_ready = b;
        slot.cv.NotifyAll();
      } else {
        while (slot.drain_ready < b &&
               !failed_.load(std::memory_order_acquire)) {
          slot.cv.Wait(slot.mu);
        }
        if (failed_.load(std::memory_order_acquire)) return;
      }
    }

    // ParIS+ tree growth, overlapped with the coordinator's next read.
    if (options_.plus_mode) {
      StageAccumulator::Scope timed(&tree_cpu_);
      size_t item;
      while (slot.drain.NextItem(&item)) {
        const Status st = DrainKey(slot.drain_list[item],
                                   materialize_leaves(), flush_threshold_,
                                   &scratch);
        if (!st.ok()) {
          RecordError(st);
          return;
        }
      }
    }
  }
}

Status ParisBuilder::DrainKey(uint32_t key, bool flush,
                              size_t flush_threshold,
                              std::vector<LeafEntry>* scratch) {
  recbufs_.Drain(key, scratch);
  if (scratch->empty()) return Status::OK();
  Node* root = tree_->GetOrCreateRoot(key);
  LeafStorage* storage = index_->leaf_storage_.get();
  for (const LeafEntry& e : *scratch) {
    PARISAX_RETURN_IF_ERROR(tree_->InsertIntoSubtree(root, e, storage));
  }
  if (!flush) return Status::OK();

  Status flush_status;
  tree_->VisitLeaves(root, [&](Node* leaf) {
    if (!flush_status.ok()) return;
    if (leaf->entries().size() < flush_threshold) return;
    auto ref = storage->AppendChunk(leaf->entries());
    if (!ref.ok()) {
      flush_status = ref.status();
      return;
    }
    leaf->flushed_chunks().push_back(*ref);
    leaf->entries().clear();
  });
  return flush_status;
}

Status ParisBuilder::Stage3Round() {
  const std::vector<uint32_t> keys = recbufs_.TakeTouched();
  if (keys.empty()) return Status::OK();
  WorkCounter counter(keys.size());
  const bool flush = materialize_leaves();

  const auto drain_all = [&](int) {
    StageAccumulator::Scope timed(&tree_cpu_);
    std::vector<LeafEntry> scratch;
    size_t item;
    while (counter.NextItem(&item)) {
      // ParIS flushes every leaf it grew in this round ("flush subtree
      // leaves to disk"), hence threshold 1.
      const Status st = DrainKey(keys[item], flush, 1, &scratch);
      if (!st.ok()) {
        RecordError(st);
        return;
      }
    }
  };

  if (construction_pool_ != nullptr) {
    construction_pool_->Run(drain_all);
  } else {
    drain_all(0);
  }
  MutexLock lock(&error_mu_);
  return first_error_;
}

Status ParisBuilder::FinalFlush() {
  LeafStorage* storage = index_->leaf_storage_.get();
  Status flush_status;
  tree_->VisitLeaves(nullptr, [&](Node* leaf) {
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
  return flush_status;
}

Result<std::unique_ptr<ParisIndex>> ParisIndex::Build(
    std::unique_ptr<RawSeriesSource> source,
    const ParisBuildOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  if (!source->addressable() && options.leaf_storage_path.empty()) {
    return Status::InvalidArgument(
        "streamed (on-disk) ParIS build requires leaf_storage_path");
  }
  auto index = std::unique_ptr<ParisIndex>(new ParisIndex(options.tree));
  const size_t total_series = source->count();
  auto base = std::make_shared<SaxTree>(options.tree);
  auto cache = std::make_shared<FlatSaxCache>(total_series);
  if (!options.leaf_storage_path.empty()) {
    PARISAX_ASSIGN_OR_RETURN(
        index->leaf_storage_,
        LeafStorage::Create(options.leaf_storage_path,
                            options.leaf_write_mbps));
  }

  ParisBuilder builder(index.get(), base.get(), cache.get(), options,
                       total_series);
  PARISAX_RETURN_IF_ERROR(builder.Run(*source));
  PARISAX_RETURN_IF_ERROR(index->AttachSource(std::move(source)));
  index->tree_stats_ = index->build_stats_.tree;

  auto state = std::make_shared<ServingState>();
  state->base = std::move(base);
  state->base_count = total_series;
  state->cache = std::move(cache);
  state->count = total_series;
  index->PublishInitial(std::move(state));
  return index;
}

Result<Neighbor> ParisIndex::SearchExact(SeriesView query,
                                         const ParisQueryOptions& options,
                                         Executor* exec,
                                         QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // Phase 1: BSF from the approximate-match leaves (base + segments).
  WallTimer approx_timer;
  Neighbor seed;
  PARISAX_ASSIGN_OR_RETURN(
      seed, ProbeAllTrees(*snap, query, paa, sax, options.kernel, stats));
  if (stats != nullptr) {
    stats->approx_phase_seconds = approx_timer.ElapsedSeconds();
  }

  // The snapshot's SAX summaries as contiguous runs in id order: the
  // base's flat array, then each segment's rows.
  struct SaxRun {
    SeriesId first;
    size_t count;
    const SaxSymbols* rows;
  };
  std::vector<SaxRun> runs;
  if (snap->base_count > 0) {
    runs.push_back({0, snap->base_count, &snap->cache->At(0)});
  }
  for (const auto& seg : snap->segments) {
    if (seg->count > 0) {
      runs.push_back({seg->first, seg->count, seg->sax_rows.data()});
    }
  }

  // Phase 2: lower-bound workers filter the SAX summaries in parallel
  // against the frozen seed bound. A claimed block is bounded run by
  // run, four summaries per step, into a block of bounds on the stack;
  // each worker keeps its survivors with their bounds.
  WallTimer filter_timer;
  const float bsf0 = seed.distance_sq;
  const MinDistTable lbs(paa, paa, w, n);
  std::vector<std::vector<Survivor>> kept(exec->num_threads());
  {
    WorkCounter counter(snap->count);
    exec->Run([&](int worker) {
      std::vector<Survivor>& out = kept[worker];
      float bounds[kFilterGrain];
      size_t begin, end;
      while (counter.NextBatch(kFilterGrain, &begin, &end)) {
        if (Expired(options.cancel)) return;
        for (const SaxRun& run : runs) {
          const SeriesId lo = std::max<SeriesId>(begin, run.first);
          const SeriesId hi = std::min<SeriesId>(end, run.first + run.count);
          if (lo >= hi) continue;
          lbs.ToSymbolsSq(run.rows + (lo - run.first), sizeof(SaxSymbols),
                          hi - lo, bounds);
          for (SeriesId i = lo; i < hi; ++i) {
            if (bounds[i - lo] < bsf0) out.push_back({bounds[i - lo], i});
          }
        }
      }
    });
  }
  std::vector<Survivor> survivors = std::move(kept[0]);
  for (size_t t = 1; t < kept.size(); ++t) {
    survivors.insert(survivors.end(), kept[t].begin(), kept[t].end());
  }
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  if (stats != nullptr) {
    stats->lb_checks += snap->count;
    stats->candidates += survivors.size();
    stats->filter_phase_seconds = filter_timer.ElapsedSeconds();
  }

  // Phase 3: real-distance workers refine the survivors against a
  // shared BSF: in ascending-bound order where random reads cost nothing,
  // in position order on a metered device (one read stream on a
  // seek-bound one).
  WallTimer refine_timer;
  BestNeighbor best(seed);
  const Result<uint64_t> refined =
      source_->PrefersSequentialAccess()
          ? RefineSkipSequential(&survivors, query, options, exec, &best,
                                 *source_)
          : RefineParallel(&survivors,
                           snap->raw.base != nullptr ||
                               !source_->MetersRandomReads(),
                           query, options, exec, &best, snap->raw, *source_);
  PARISAX_RETURN_IF_ERROR(refined.status());
  if (stats != nullptr) {
    stats->real_dist_calcs += *refined;
    stats->refine_phase_seconds = refine_timer.ElapsedSeconds();
    stats->total_seconds = total.ElapsedSeconds();
  }
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return best.Take();
}

}  // namespace parisax
