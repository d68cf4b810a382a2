#include "messi/messi_index.h"

#include <algorithm>
#include <limits>
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

/// Items at the front of each run that Stage 3a orders by bound. The
/// rest of the run, its tail, stays in traversal order: on 50k seismic
/// series (w = 16) a head of 256 refined as many real distances as a
/// fully sorted run, without the sort's cost (docs/architecture.md,
/// "Stage 3 work distribution").
constexpr size_t kHeadItems = 256;

/// How far ahead of the root being traversed (3a) and of the item being
/// refined (3b) the next node or leaf entries are prefetched.
constexpr size_t kRootPrefetch = 8;
constexpr size_t kItemPrefetch = 4;

/// One leaf that survived Stage 3a's seed bound. It carries the leaf's
/// entries, so Stage 3b never dereferences the Node: a published tree is
/// immutable and the query holds its snapshot, so the pointer stays
/// valid.
struct RunItem {
  float lb = 0.0f;
  /// Index in the run when 3a appended it: the head's tie-break, which
  /// makes an inline search's order deterministic.
  uint32_t position = 0;
  const LeafEntry* entries = nullptr;
  size_t count = 0;
};

bool RunItemLess(const RunItem& a, const RunItem& b) {
  return a.lb < b.lb || (a.lb == b.lb && a.position < b.position);
}

/// One worker's Stage-3a survivors. Only its owner appends, so 3a takes
/// no lock; in 3b every worker claims items from it by Fetch&Inc. Items
/// [0, head) hold the run's smallest bounds in ascending order, so every
/// item after a head item has a bound at least as large. Aligned so two
/// runs' claim counters never share a cache line.
struct alignas(64) LeafRun {
  std::vector<RunItem> items;
  size_t head = 0;
  WorkCounter claims{0};

  /// Orders the kHeadItems smallest bounds to the front and arms the
  /// claim counter. Called by the run's owner once its traversal ends.
  void OrderHead() {
    head = std::min(kHeadItems, items.size());
    std::nth_element(items.begin(), items.begin() + head, items.end(),
                     RunItemLess);
    std::sort(items.begin(), items.begin() + head, RunItemLess);
    claims.Reset(items.size());
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

/// Stage 3 of the ED-NN, ED-kNN and DTW-NN searches over the merged
/// root forest of one serving snapshot. `Policy` supplies the pruning
/// bound, the node/entry lower bounds and the entry refinement:
///   const MinDistTable* lbs;  // entry bounds, batched per claimed leaf
///   float Bound() const;
///   float NodeLb(const Node&) const;
///   void ProcessEntry(const LeafEntry&, float lb, QueryStats*, int worker);
/// Everything mutable lives in the policy or on this stack frame, so any
/// number of searches can run concurrently on different executors.
/// Workers share nothing per node, leaf or entry but the policy's bound
/// and the runs' claim counters: each counts into a QueryStats of its
/// own and merges it into its slot once per stage; the slots are summed
/// into `stats` (nullable) at the end, with Stage 3a's wall time as the
/// filter phase and 3b's as the refine phase.
template <typename Policy>
void RunStage3(const std::vector<Node*>& roots, Policy* policy,
               Executor* exec, QueryStats* stats,
               const CancellationToken* cancel = nullptr) {
  const int num_runs = exec->num_threads();
  std::vector<LeafRun> runs(num_runs);
  std::vector<QueryStats> worker_stats(num_runs);

  // Stage 3a: parallel traversal; each worker appends the leaves that
  // survive the seed bound to its own run, then orders the run's head.
  // Roots are claimed in batches. Workers poll the cancel token every
  // kNodesPerCancelPoll node visits and bail out; the caller turns an
  // expired token into kDeadlineExceeded instead of returning the
  // partial bound.
  WorkCounter root_counter(roots.size());
  WallTimer filter_timer;
  exec->Run([&](int worker) {
    QueryStats local;
    LeafRun& run = runs[worker];
    // The inner lambda's cancellation return still reaches the merge.
    [&] {
      std::vector<Node*> stack;
      uint32_t visits = 0;
      size_t begin, end;
      while (root_counter.NextBatch(kRootBatch, &begin, &end)) {
        for (size_t r = begin; r < end; ++r) {
          if (r + kRootPrefetch < roots.size()) {
            __builtin_prefetch(roots[r + kRootPrefetch]);
          }
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
              const std::vector<LeafEntry>& entries = node->entries();
              if (entries.empty()) continue;
              run.items.push_back(
                  RunItem{lb, static_cast<uint32_t>(run.items.size()),
                          entries.data(), entries.size()});
            } else {
              stack.push_back(node->child(0));
              stack.push_back(node->child(1));
            }
          }
        }
      }
    }();
    run.OrderHead();
    worker_stats[worker].MergeCounters(local);
  });
  const double filter_seconds = filter_timer.ElapsedSeconds();

  // Stage 3b: each worker claims items from its own run, then from the
  // others'. A claimed head item whose bound has reached the BSF ends
  // the worker's claims on that run: every item after it is bounded at
  // least as high, and the BSF only falls. A tail item is unordered, so
  // one at or above the BSF is skipped and claiming goes on. The cancel
  // token is polled once per claimed leaf that is refined.
  WallTimer refine_timer;
  exec->Run([&](int worker) {
    QueryStats local;
    [&] {
      float entry_lbs[kEntryBlock];
      for (int offset = 0; offset < num_runs; ++offset) {
        LeafRun& run = runs[(worker + offset) % num_runs];
        size_t j;
        while (run.claims.NextItem(&j)) {
          const RunItem& item = run.items[j];
          if (item.lb >= policy->Bound()) {
            if (j < run.head) {
              local.queue_abandons++;
              break;
            }
            continue;
          }
          if (Expired(cancel)) return;
          if (j + kItemPrefetch < run.items.size()) {
            __builtin_prefetch(run.items[j + kItemPrefetch].entries);
          }
          local.leaves_inspected++;
          for (size_t begin = 0; begin < item.count; begin += kEntryBlock) {
            const size_t count = std::min(kEntryBlock, item.count - begin);
            policy->lbs->ToSymbolsSq(&item.entries[begin].sax,
                                     sizeof(LeafEntry), count, entry_lbs);
            for (size_t i = 0; i < count; ++i) {
              policy->ProcessEntry(item.entries[begin + i], entry_lbs[i],
                                   &local, worker);
            }
          }
        }
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
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunStage3(roots, &policy, exec, stats, options.cancel);
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
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunStage3(roots, &policy, exec, stats, options.cancel);
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
  const std::vector<Node*> roots = CollectRoots(*snap);
  RunStage3(roots, &policy, exec, stats, options.cancel);
  if (stats != nullptr) stats->total_seconds = total.ElapsedSeconds();
  if (Expired(options.cancel)) {
    return Status::DeadlineExceeded("query deadline expired mid-search");
  }
  return result.Take();
}

}  // namespace parisax
