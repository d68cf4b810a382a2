#include "messi/messi_index.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>
#include <utility>

#include "dist/dtw.h"
#include "index/knn_heap.h"
#include "messi/isax_buffers.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace parisax {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

struct QueueItem {
  float lb = 0.0f;
  Node* leaf = nullptr;
};

struct QueueItemGreater {
  bool operator()(const QueueItem& a, const QueueItem& b) const {
    return a.lb > b.lb;
  }
};

/// One of the K shared minimum priority queues of Stage 3.
struct SharedQueue {
  Mutex mu{"SharedQueue::mu", LockRank::kQueryQueue};
  std::priority_queue<QueueItem, std::vector<QueueItem>, QueueItemGreater> pq
      PARISAX_GUARDED_BY(mu);
  bool done PARISAX_GUARDED_BY(mu) = false;
};

struct AtomicCounters {
  std::atomic<uint64_t> lb_checks{0};
  std::atomic<uint64_t> real_dist_calcs{0};
  std::atomic<uint64_t> nodes_visited{0};
  std::atomic<uint64_t> leaves_inspected{0};
  std::atomic<uint64_t> queue_abandons{0};

  void FlushInto(QueryStats* stats) const {
    if (stats == nullptr) return;
    stats->lb_checks += lb_checks.load();
    stats->real_dist_calcs += real_dist_calcs.load();
    stats->nodes_visited += nodes_visited.load();
    stats->leaves_inspected += leaves_inspected.load();
    stats->queue_abandons += queue_abandons.load();
  }
};

/// Root subtrees of one serving snapshot: the base's present roots
/// followed by every segment's. Stage 3 treats them as one flat forest
/// pruned against one shared bound — the read-side merge.
std::vector<Node*> CollectRoots(const ServingState& snap) {
  std::vector<Node*> roots;
  for (const uint32_t key : snap.base->PresentRoots()) {
    roots.push_back(snap.base->RootAt(key));
  }
  for (const auto& seg : snap.segments) {
    for (const uint32_t key : seg->tree.PresentRoots()) {
      roots.push_back(seg->tree.RootAt(key));
    }
  }
  return roots;
}

/// Tree traversal + priority-queue consumption shared by the ED-NN,
/// ED-kNN and DTW-NN searches, over the merged root forest of one
/// serving snapshot. `Policy` supplies the pruning bound, the
/// node/entry lower bounds and the entry refinement:
///   float Bound() const;
///   float NodeLb(const Node&) const;
///   void ProcessEntry(const LeafEntry&, AtomicCounters*, int worker);
/// Everything mutable lives in the policy or on this stack frame, so any
/// number of queued searches can run concurrently on different
/// executors.
template <typename Policy>
void RunQueuedSearch(const std::vector<Node*>& roots, Policy* policy,
                     int num_queues, Executor* exec,
                     AtomicCounters* counters,
                     const CancellationToken* cancel = nullptr) {
  std::vector<SharedQueue> queues(num_queues);
  std::atomic<uint64_t> round_robin{0};

  // Stage 3a: parallel traversal, leaves into queues (round-robin for
  // load balance, as in the paper). Workers poll the cancel token per
  // node visit and bail out; the caller turns an expired token into
  // kDeadlineExceeded instead of returning the partial bound.
  WorkCounter root_counter(roots.size());
  exec->Run([&](int) {
    std::vector<Node*> stack;
    size_t item;
    while (root_counter.NextItem(&item)) {
      stack.push_back(roots[item]);
      while (!stack.empty()) {
        if (Expired(cancel)) return;
        Node* node = stack.back();
        stack.pop_back();
        counters->nodes_visited.fetch_add(1, std::memory_order_relaxed);
        const float lb = policy->NodeLb(*node);
        if (lb >= policy->Bound()) continue;  // prune the whole subtree
        if (node->IsLeaf()) {
          if (node->entries().empty()) continue;
          const uint64_t slot =
              round_robin.fetch_add(1, std::memory_order_relaxed);
          SharedQueue& q = queues[slot % queues.size()];
          MutexLock lock(&q.mu);
          q.pq.push(QueueItem{lb, node});
        } else {
          stack.push_back(node->child(0));
          stack.push_back(node->child(1));
        }
      }
    }
  });

  // Stage 3b: workers consume the queues; a queue whose minimum exceeds
  // the BSF is abandoned wholesale (everything below it is farther).
  std::atomic<uint64_t> start_counter{0};
  exec->Run([&](int worker) {
    const int k_queues = static_cast<int>(queues.size());
    const int start = static_cast<int>(
        start_counter.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint64_t>(k_queues));
    for (;;) {
      bool all_done = true;
      for (int offset = 0; offset < k_queues; ++offset) {
        SharedQueue& q = queues[(start + offset) % k_queues];
        for (;;) {
          QueueItem item;
          {
            MutexLock lock(&q.mu);
            if (q.done) break;
            if (q.pq.empty()) {
              q.done = true;
              break;
            }
            item = q.pq.top();
            if (item.lb >= policy->Bound()) {
              q.done = true;
              counters->queue_abandons.fetch_add(1,
                                                 std::memory_order_relaxed);
              break;
            }
            q.pq.pop();
          }
          if (Expired(cancel)) return;
          all_done = false;
          counters->leaves_inspected.fetch_add(1, std::memory_order_relaxed);
          for (const LeafEntry& e : item.leaf->entries()) {
            policy->ProcessEntry(e, counters, worker);
          }
        }
      }
      if (all_done) return;
    }
  });
}

/// Thread-safe single best neighbor (1-NN result set). When a shared
/// cross-search bound cell is attached, Bound() folds it in with min()
/// and every improvement (the seed included) is published to it — so
/// the shard router's other searches prune on this search's progress.
/// `best` itself only tracks distances computed *here*, which keeps the
/// merged cross-shard result exact: the cell never drops below the true
/// global answer, so the globally best series is never pruned on its
/// own shard.
struct BestNeighbor {
  BestNeighbor(Neighbor seed, AtomicMinFloat* shared)
      : bsf(seed.distance_sq), shared(shared), best(seed) {
    if (shared != nullptr) shared->UpdateMin(seed.distance_sq);
  }

  float Bound() const {
    const float local = bsf.Load();
    return shared != nullptr ? std::min(local, shared->Load()) : local;
  }

  void Offer(SeriesId id, float d) {
    if (shared != nullptr) shared->UpdateMin(d);
    if (!bsf.UpdateMin(d) && d > bsf.Load()) return;
    MutexLock lock(&mu);
    if (d < best.distance_sq || (d == best.distance_sq && id < best.id)) {
      best = Neighbor{id, d};
    }
  }

  /// Final answer; the searches read it only after the worker fan-in
  /// (Executor::Run has joined), but it still locks for the analysis
  /// and for any future streaming reader.
  Neighbor Take() const {
    MutexLock lock(&mu);
    return best;
  }

  AtomicMinFloat bsf;
  AtomicMinFloat* shared;
  mutable Mutex mu{"BestNeighbor::mu", LockRank::kResultMerge};
  Neighbor best PARISAX_GUARDED_BY(mu);
};

/// Exact-ED 1-NN policy.
struct EdNnPolicy {
  RawDataView raw;
  const float* paa;
  int w;
  size_t n;
  KernelPolicy kernel;
  SeriesView query;
  BestNeighbor* result;

  float Bound() const { return result->Bound(); }

  float NodeLb(const Node& node) const {
    return MinDistPaaToWordSq(paa, node.word(), w, n);
  }

  void ProcessEntry(const LeafEntry& e, AtomicCounters* counters,
                    int /*worker*/) {
    counters->lb_checks.fetch_add(1, std::memory_order_relaxed);
    const float bound = Bound();
    if (MinDistPaaToSymbolsSq(paa, e.sax, w, n) >= bound) return;
    counters->real_dist_calcs.fetch_add(1, std::memory_order_relaxed);
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(e.id),
                                                 bound, kernel);
    if (d < bound) result->Offer(e.id, d);
  }
};

/// Exact-ED kNN policy: the bound is the k-th best distance, optionally
/// folded with a shared cross-search bound. Publishing the local heap's
/// bound is sound because every shard's local k-th distance is an upper
/// bound on the global k-th distance.
struct EdKnnPolicy {
  RawDataView raw;
  const float* paa;
  int w;
  size_t n;
  KernelPolicy kernel;
  SeriesView query;
  KnnHeap* heap;
  AtomicMinFloat* shared;

  float Bound() const {
    const float local = heap->Bound();
    return shared != nullptr ? std::min(local, shared->Load()) : local;
  }

  float NodeLb(const Node& node) const {
    return MinDistPaaToWordSq(paa, node.word(), w, n);
  }

  void ProcessEntry(const LeafEntry& e, AtomicCounters* counters,
                    int /*worker*/) {
    counters->lb_checks.fetch_add(1, std::memory_order_relaxed);
    const float bound = Bound();
    if (MinDistPaaToSymbolsSq(paa, e.sax, w, n) >= bound) return;
    counters->real_dist_calcs.fetch_add(1, std::memory_order_relaxed);
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(e.id),
                                                 bound, kernel);
    if (d < bound) {
      heap->Update(Neighbor{e.id, d});
      if (shared != nullptr) shared->UpdateMin(heap->Bound());
    }
  }
};

/// Exact-DTW 1-NN policy: envelope-based lower bounds cascade into
/// LB_Keogh and finally early-abandoning banded DTW.
struct DtwNnPolicy {
  RawDataView raw;
  const float* env_lower_paa;
  const float* env_upper_paa;
  const std::vector<Value>* env_lower;
  const std::vector<Value>* env_upper;
  int w;
  size_t n;
  size_t band;
  SeriesView query;
  BestNeighbor* result;
  /// Per-worker DP arenas owned by the query (one per executor worker),
  /// so concurrent DTW queries never share scratch state.
  std::vector<DtwScratch>* scratches;

  float Bound() const { return result->Bound(); }

  float NodeLb(const Node& node) const {
    return MinDistEnvelopePaaToWordSq(env_lower_paa, env_upper_paa,
                                      node.word(), w, n);
  }

  void ProcessEntry(const LeafEntry& e, AtomicCounters* counters,
                    int worker) {
    counters->lb_checks.fetch_add(1, std::memory_order_relaxed);
    float bound = Bound();
    if (MinDistEnvelopePaaToSymbolsSq(env_lower_paa, env_upper_paa, e.sax, w,
                                      n) >= bound) {
      return;
    }
    const SeriesView candidate = raw.series(e.id);
    if (LbKeoghSq(*env_lower, *env_upper, candidate, bound) >= bound) return;
    counters->real_dist_calcs.fetch_add(1, std::memory_order_relaxed);
    bound = Bound();
    const float d =
        DtwBand(query, candidate, band, bound, &(*scratches)[worker]);
    if (d < bound) result->Offer(e.id, d);
  }
};

}  // namespace

Result<std::unique_ptr<MessiIndex>> MessiIndex::Build(
    std::unique_ptr<RawSeriesSource> source,
    const MessiBuildOptions& options, ThreadPool* pool) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  if (source->length() != options.tree.series_length) {
    return Status::InvalidArgument(
        "tree.series_length does not match the source");
  }
  if (pool->num_threads() < options.num_workers) {
    return Status::InvalidArgument(
        "thread pool is smaller than num_workers");
  }
  WallTimer wall;
  auto index = std::unique_ptr<MessiIndex>(new MessiIndex(options.tree));
  const size_t total_series = source->count();
  PARISAX_RETURN_IF_ERROR(index->AttachSource(std::move(source)));
  // Stage 1 reads through the hot-path view, so an mmap-backed source is
  // summarized straight off the page cache (no in-RAM copy).
  const RawDataView raw{index->source_->ContiguousData(),
                        options.tree.series_length};
  const int w = options.tree.segments;

  auto base = std::make_shared<SaxTree>(options.tree);
  IsaxBufferSet buffers(w, pool->num_threads(), options.locked_buffers);

  // Stage 1: summarization into the iSAX buffers, chunks by Fetch&Inc.
  WallTimer summarize_timer;
  {
    WorkCounter chunks(total_series);
    pool->Run([&](int worker) {
      float paa[kMaxSegments];
      size_t begin, end;
      while (chunks.NextBatch(options.chunk_series, &begin, &end)) {
        for (SeriesId i = begin; i < end; ++i) {
          ComputePaa(raw.series(i), w, paa);
          LeafEntry entry;
          entry.id = i;
          SymbolsFromPaa(paa, w, &entry.sax);
          buffers.Append(worker, RootKey(entry.sax, w), entry);
        }
      }
    });
  }
  index->build_stats_.summarize_wall_seconds =
      summarize_timer.ElapsedSeconds();

  // Stage 2: each worker builds whole root subtrees, claimed by
  // Fetch&Inc; no synchronization inside a subtree.
  WallTimer tree_timer;
  Mutex error_mu{"error_mu", LockRank::kFirstError};
  Status first_error;
  {
    const std::vector<uint32_t> keys = buffers.CollectKeys();
    WorkCounter key_counter(keys.size());
    pool->Run([&](int) {
      std::vector<LeafEntry> gathered;
      size_t item;
      while (key_counter.NextItem(&item)) {
        const uint32_t key = keys[item];
        gathered.clear();
        buffers.Gather(key, &gathered);
        Node* root = base->GetOrCreateRoot(key);
        for (const LeafEntry& e : gathered) {
          const Status st = base->InsertIntoSubtree(root, e, nullptr);
          if (!st.ok()) {
            MutexLock lock(&error_mu);
            if (first_error.ok()) first_error = st;
            return;
          }
        }
      }
    });
  }
  PARISAX_RETURN_IF_ERROR(first_error);
  index->build_stats_.tree_wall_seconds = tree_timer.ElapsedSeconds();

  base->SealRoots();
  index->build_stats_.tree = base->Collect();
  index->build_stats_.wall_seconds = wall.ElapsedSeconds();
  if (index->build_stats_.tree.total_entries != total_series) {
    return Status::Internal("MESSI build lost series");
  }
  index->tree_stats_ = index->build_stats_.tree;

  auto state = std::make_shared<ServingState>();
  state->base = std::move(base);
  state->base_count = total_series;
  state->count = total_series;
  index->PublishInitial(std::move(state));
  return index;
}

Result<Neighbor> MessiIndex::SearchExact(SeriesView query,
                                         const MessiQueryOptions& options,
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

  WallTimer approx_timer;
  Neighbor seed;
  PARISAX_ASSIGN_OR_RETURN(
      seed, ProbeAllTrees(*snap, query, paa, sax, options.kernel, stats));
  if (stats != nullptr) {
    stats->approx_phase_seconds = approx_timer.ElapsedSeconds();
  }

  BestNeighbor result(seed, options.shared_bound);
  EdNnPolicy policy{snap->raw, paa, w, n, options.kernel, query, &result};
  AtomicCounters counters;
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunQueuedSearch(roots, &policy, num_queues, exec, &counters,
                  options.cancel);
  counters.FlushInto(stats);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return result.Take();
}

Result<std::vector<Neighbor>> MessiIndex::SearchKnn(
    SeriesView query, size_t k, const MessiQueryOptions& options,
    Executor* exec, QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;
  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // Seed the heap with every entry of the approximate-match leaf of the
  // base and of each segment.
  KnnHeap heap(k);
  auto seed_from = [&](const SaxTree& tree) {
    Node* leaf = tree.ApproximateLeaf(sax, paa);
    if (leaf == nullptr) return;
    for (const LeafEntry& e : leaf->entries()) {
      const float d = SquaredEuclidean(query, snap->raw.series(e.id),
                                       options.kernel);
      if (stats != nullptr) stats->real_dist_calcs++;
      heap.Update(Neighbor{e.id, d});
    }
  };
  seed_from(*snap->base);
  for (const auto& seg : snap->segments) seed_from(seg->tree);
  if (options.shared_bound != nullptr) {
    options.shared_bound->UpdateMin(heap.Bound());
  }

  EdKnnPolicy policy{snap->raw, paa,   w,     n,
                     options.kernel, query, &heap, options.shared_bound};
  AtomicCounters counters;
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunQueuedSearch(roots, &policy, num_queues, exec, &counters,
                  options.cancel);
  counters.FlushInto(stats);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return heap.Sorted();
}

Result<Neighbor> MessiIndex::SearchExactDtw(SeriesView query,
                                            const MessiQueryOptions& options,
                                            Executor* exec,
                                            QueryStats* stats) const {
  if (query.size() != tree_options_.series_length) {
    return Status::InvalidArgument("query length does not match the index");
  }
  WallTimer total;
  const auto snap = dock_.get();
  const int w = tree_options_.segments;
  const size_t n = tree_options_.series_length;

  std::vector<Value> env_lower, env_upper;
  ComputeEnvelope(query, options.dtw_band, &env_lower, &env_upper);
  float env_lower_paa[kMaxSegments], env_upper_paa[kMaxSegments];
  ComputeEnvelopePaaMinMax(env_lower, env_upper, w, env_lower_paa,
                           env_upper_paa);

  float paa[kMaxSegments];
  ComputePaa(query, w, paa);
  SaxSymbols sax;
  SymbolsFromPaa(paa, w, &sax);

  // Per-query DP arenas, one per executor worker: concurrent DTW
  // queries each own their scratch instead of funneling through shared
  // thread_local rows.
  std::vector<DtwScratch> scratches(exec->num_threads());

  // Approximate phase: true DTW against each tree's matching leaf.
  Neighbor seed{0, kInf};
  auto seed_from = [&](const SaxTree& tree) {
    Node* leaf = tree.ApproximateLeaf(sax, paa);
    if (leaf == nullptr) return;
    for (const LeafEntry& e : leaf->entries()) {
      const float d = DtwBand(query, snap->raw.series(e.id),
                              options.dtw_band, seed.distance_sq,
                              &scratches[0]);
      if (stats != nullptr) stats->real_dist_calcs++;
      if (d < seed.distance_sq ||
          (d == seed.distance_sq && e.id < seed.id)) {
        seed = Neighbor{e.id, d};
      }
    }
  };
  seed_from(*snap->base);
  for (const auto& seg : snap->segments) seed_from(seg->tree);

  BestNeighbor result(seed, options.shared_bound);
  DtwNnPolicy policy{snap->raw,       env_lower_paa, env_upper_paa,
                     &env_lower,      &env_upper,    w,
                     n,               options.dtw_band, query,
                     &result,         &scratches};
  AtomicCounters counters;
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunQueuedSearch(roots, &policy, num_queues, exec, &counters,
                  options.cancel);
  counters.FlushInto(stats);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return result.Take();
}

}  // namespace parisax
