#include "messi/messi_index.h"

#include <algorithm>
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

/// Root subtrees a Stage-3a worker claims per Fetch&Inc: one shared
/// increment per batch instead of per root (~18k roots at 300k series).
constexpr size_t kRootBatch = 32;

/// Stage-3a node visits between cancellation polls: a deadline costs one
/// clock read per this many nodes, and a deep subtree still stops within
/// a bounded number of visits.
constexpr uint32_t kNodesPerCancelPoll = 64;

/// Leaf entries whose lower bounds Stage 3b computes per batched call:
/// one default-capacity leaf. Oversized (unsplittable) leaves take
/// several calls.
constexpr size_t kEntryBlock = 128;

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
///   const MinDistTable* lbs;  // entry bounds, batched per popped leaf
///   float Bound() const;
///   float NodeLb(const Node&) const;
///   void ProcessEntry(const LeafEntry&, float lb, QueryStats*, int worker);
/// Everything mutable lives in the policy or on this stack frame, so any
/// number of queued searches can run concurrently on different
/// executors. Workers share nothing per node, leaf or entry but the
/// policy's bound and the queue they push to or pop from: each counts
/// into a QueryStats of its own and merges it into its slot once per
/// stage; the slots are summed into `stats` (nullable) at the end, with
/// Stage 3a's wall time as the filter phase and 3b's as the refine
/// phase.
template <typename Policy>
void RunQueuedSearch(const std::vector<Node*>& roots, Policy* policy,
                     int num_queues, Executor* exec, QueryStats* stats,
                     const CancellationToken* cancel = nullptr) {
  std::vector<SharedQueue> queues(num_queues);
  const int k_queues = static_cast<int>(queues.size());
  std::vector<QueryStats> worker_stats(exec->num_threads());

  // Stage 3a: parallel traversal, leaves into queues (round-robin for
  // load balance, as in the paper; worker i starts at queue i). Roots
  // are claimed in batches. Workers poll the cancel token every
  // kNodesPerCancelPoll node visits and bail out; the caller turns an
  // expired token into kDeadlineExceeded instead of returning the
  // partial bound.
  WorkCounter root_counter(roots.size());
  WallTimer filter_timer;
  exec->Run([&](int worker) {
    QueryStats local;
    // The inner lambda's cancellation return still reaches the merge.
    [&] {
      std::vector<Node*> stack;
      int next_queue = worker % k_queues;
      uint32_t visits = 0;
      size_t begin, end;
      while (root_counter.NextBatch(kRootBatch, &begin, &end)) {
        for (size_t r = begin; r < end; ++r) {
          stack.push_back(roots[r]);
          while (!stack.empty()) {
            if (visits++ % kNodesPerCancelPoll == 0 && Expired(cancel)) {
              return;
            }
            Node* node = stack.back();
            stack.pop_back();
            local.nodes_visited++;
            const float lb = policy->NodeLb(*node);
            if (lb >= policy->Bound()) continue;  // prune the whole subtree
            if (node->IsLeaf()) {
              if (node->entries().empty()) continue;
              SharedQueue& q = queues[next_queue];
              if (++next_queue == k_queues) next_queue = 0;
              MutexLock lock(&q.mu);
              q.pq.push(QueueItem{lb, node});
            } else {
              stack.push_back(node->child(0));
              stack.push_back(node->child(1));
            }
          }
        }
      }
    }();
    worker_stats[worker].MergeCounters(local);
  });
  const double filter_seconds = filter_timer.ElapsedSeconds();

  // Stage 3b: workers consume the queues; a queue whose minimum exceeds
  // the BSF is abandoned wholesale (everything below it is farther).
  // The cancel token is polled once per popped leaf.
  WallTimer refine_timer;
  exec->Run([&](int worker) {
    QueryStats local;
    [&] {
      float entry_lbs[kEntryBlock];
      const int start = worker % k_queues;
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
                local.queue_abandons++;
                break;
              }
              q.pq.pop();
            }
            if (Expired(cancel)) return;
            all_done = false;
            local.leaves_inspected++;
            const std::vector<LeafEntry>& entries = item.leaf->entries();
            for (size_t begin = 0; begin < entries.size();
                 begin += kEntryBlock) {
              const size_t count =
                  std::min(kEntryBlock, entries.size() - begin);
              policy->lbs->ToSymbolsSq(&entries[begin].sax,
                                       sizeof(LeafEntry), count, entry_lbs);
              for (size_t i = 0; i < count; ++i) {
                policy->ProcessEntry(entries[begin + i], entry_lbs[i],
                                     &local, worker);
              }
            }
          }
        }
        if (all_done) return;
      }
    }();
    worker_stats[worker].MergeCounters(local);
  });

  if (stats == nullptr) return;
  stats->filter_phase_seconds = filter_seconds;
  stats->refine_phase_seconds = refine_timer.ElapsedSeconds();
  for (const QueryStats& w : worker_stats) stats->MergeCounters(w);
}

/// Exact-ED 1-NN policy.
struct EdNnPolicy {
  RawDataView raw;
  const MinDistTable* lbs;
  KernelPolicy kernel;
  SeriesView query;
  BestNeighbor* result;

  float Bound() const { return result->Bound(); }

  float NodeLb(const Node& node) const { return lbs->ToWordSq(node.word()); }

  void ProcessEntry(const LeafEntry& e, float lb, QueryStats* counts,
                    int /*worker*/) {
    counts->lb_checks++;
    const float bound = Bound();
    if (lb >= bound) return;
    counts->real_dist_calcs++;
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(e.id),
                                                 bound, kernel);
    if (d < bound) result->Offer(e.id, d);
  }
};

/// Exact-ED kNN policy: the bound is the k-th best distance.
struct EdKnnPolicy {
  RawDataView raw;
  const MinDistTable* lbs;
  KernelPolicy kernel;
  SeriesView query;
  KnnHeap* heap;

  float Bound() const { return heap->Bound(); }

  float NodeLb(const Node& node) const { return lbs->ToWordSq(node.word()); }

  void ProcessEntry(const LeafEntry& e, float lb, QueryStats* counts,
                    int /*worker*/) {
    counts->lb_checks++;
    const float bound = Bound();
    if (lb >= bound) return;
    counts->real_dist_calcs++;
    const float d = SquaredEuclideanEarlyAbandon(query, raw.series(e.id),
                                                 bound, kernel);
    if (d < bound) heap->Update(Neighbor{e.id, d});
  }
};

/// Exact-DTW 1-NN policy: envelope-based lower bounds cascade into
/// LB_Keogh and finally banded DTW, whose early abandon also counts the
/// LB_Keogh terms of the columns a path has yet to cross.
struct DtwNnPolicy {
  RawDataView raw;
  /// Envelope-PAA bounds (the MinDistEnvelopePaaTo* form).
  const MinDistTable* lbs;
  const std::vector<Value>* env_lower;
  const std::vector<Value>* env_upper;
  size_t band;
  SeriesView query;
  BestNeighbor* result;
  /// Per-worker DP arenas and LB_Keogh suffix sums owned by the query
  /// (one per executor worker), so concurrent DTW queries never share
  /// scratch state.
  std::vector<DtwScratch>* scratches;

  float Bound() const { return result->Bound(); }

  float NodeLb(const Node& node) const { return lbs->ToWordSq(node.word()); }

  void ProcessEntry(const LeafEntry& e, float lb, QueryStats* counts,
                    int worker) {
    counts->lb_checks++;
    float bound = Bound();
    if (lb >= bound) return;
    const SeriesView candidate = raw.series(e.id);
    DtwScratch& scratch = (*scratches)[worker];
    if (LbKeoghSq(*env_lower, *env_upper, candidate, bound,
                  &scratch.suffix) >= bound) {
      return;
    }
    counts->real_dist_calcs++;
    bound = Bound();
    const float d =
        DtwBand(query, candidate, band, bound, &scratch, &scratch.suffix);
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

  BestNeighbor result(seed);
  const MinDistTable lbs(paa, paa, w, n);
  EdNnPolicy policy{snap->raw, &lbs, options.kernel, query, &result};
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunQueuedSearch(roots, &policy, num_queues, exec, stats, options.cancel);
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

  const MinDistTable lbs(paa, paa, w, n);
  EdKnnPolicy policy{snap->raw, &lbs, options.kernel, query, &heap};
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunQueuedSearch(roots, &policy, num_queues, exec, stats, options.cancel);
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

  BestNeighbor result(seed);
  const MinDistTable lbs(env_lower_paa, env_upper_paa, w, n);
  DtwNnPolicy policy{snap->raw,        &lbs,  &env_lower, &env_upper,
                     options.dtw_band, query, &result,    &scratches};
  const int num_queues =
      options.num_queues > 0 ? options.num_queues : options.num_workers;
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunQueuedSearch(roots, &policy, num_queues, exec, stats, options.cancel);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return result.Take();
}

}  // namespace parisax
