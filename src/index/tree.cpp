#include "index/tree.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "sax/mindist.h"

namespace parisax {

SaxTree::SaxTree(const SaxTreeOptions& options) : options_(options) {
  assert(options_.segments >= 1 && options_.segments <= kMaxSegments);
  assert(options_.leaf_capacity >= 1);
  roots_.resize(static_cast<size_t>(1) << options_.segments);
}

Node* SaxTree::GetOrCreateRoot(uint32_t key) {
  auto& slot = roots_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Node>(RootWord(key, options_.segments));
  }
  return slot.get();
}

Node* SaxTree::RecreateRoot(uint32_t key) {
  auto& slot = roots_[key];
  slot = std::make_unique<Node>(RootWord(key, options_.segments));
  return slot.get();
}

Status SaxTree::InsertIntoSubtree(Node* subtree, const LeafEntry& entry,
                                  LeafStorage* storage) {
  Node* node = subtree;
  while (!node->IsLeaf()) node = node->Route(entry.sax);
  node->entries().push_back(entry);
  if (node->LeafSize() > options_.leaf_capacity) {
    return SplitLeaf(node, storage);
  }
  return Status::OK();
}

Status SaxTree::Insert(const LeafEntry& entry, LeafStorage* storage) {
  Node* root = GetOrCreateRoot(RootKey(entry.sax, options_.segments));
  return InsertIntoSubtree(root, entry, storage);
}

void SaxTree::SealRoots() {
  present_roots_.clear();
  for (uint32_t key = 0; key < roots_.size(); ++key) {
    if (roots_[key] != nullptr) present_roots_.push_back(key);
  }
}

Node* SaxTree::ApproximateLeaf(const SaxSymbols& query_sax,
                               const float* query_paa) const {
  const uint32_t key = RootKey(query_sax, options_.segments);
  Node* node = roots_[key].get();
  if (node == nullptr) {
    // The exact root subtree does not exist: fall back to the present
    // root whose region is closest to the query (ADS+ convention), the
    // first in key order on a tie. Bounds come from the keys alone, a
    // block at a time, so the scan dereferences no Node.
    constexpr size_t kBlock = 256;
    float bounds[kBlock];
    float best = std::numeric_limits<float>::infinity();
    for (size_t begin = 0; begin < present_roots_.size(); begin += kBlock) {
      const size_t count = std::min(kBlock, present_roots_.size() - begin);
      MinDistPaaToRootKeysSq(query_paa, &present_roots_[begin], count,
                             options_.segments, options_.series_length, bounds);
      for (size_t i = 0; i < count; ++i) {
        if (bounds[i] < best) {
          best = bounds[i];
          node = roots_[present_roots_[begin + i]].get();
        }
      }
    }
    if (node == nullptr) return nullptr;  // empty tree
  }
  while (!node->IsLeaf()) node = node->Route(query_sax);
  return node;
}

void SaxTree::VisitLeaves(Node* node,
                          const std::function<void(Node*)>& fn) const {
  if (node == nullptr) {
    for (const auto& root : roots_) {
      if (root != nullptr) VisitLeaves(root.get(), fn);
    }
    return;
  }
  if (node->IsLeaf()) {
    fn(node);
    return;
  }
  VisitLeaves(node->child(0), fn);
  VisitLeaves(node->child(1), fn);
}

int SaxTree::ChooseSplitSegment(
    const Node& leaf, const std::vector<LeafEntry>& all_entries) const {
  const SaxWord& word = leaf.word();
  int best_segment = -1;
  // Balance = |#entries going right - #entries going left|; lower is
  // better ("the segment that will result in the most balanced split").
  long best_balance = std::numeric_limits<long>::max();
  for (int s = 0; s < options_.segments; ++s) {
    if (word.bits[s] >= kMaxCardBits) continue;
    const int child_bits = word.bits[s] + 1;
    long ones = 0;
    for (const LeafEntry& e : all_entries) {
      ones += TruncateSymbol(e.sax.symbols[s], child_bits) & 1;
    }
    const long balance =
        std::labs(2 * ones - static_cast<long>(all_entries.size()));
    if (balance < best_balance) {
      best_balance = balance;
      best_segment = s;
    }
  }
  return best_segment;
}

Status SaxTree::SplitLeaf(Node* leaf, LeafStorage* storage) {
  // Iterative cascade: splitting may push everything into one child,
  // which must then split again.
  Node* node = leaf;
  while (node->LeafSize() > options_.leaf_capacity) {
    // Gather the complete contents (memory + flushed chunks).
    std::vector<LeafEntry> all = std::move(node->entries());
    node->entries().clear();
    if (!node->flushed_chunks().empty()) {
      if (storage == nullptr) {
        return Status::Internal(
            "splitting a flushed leaf requires LeafStorage");
      }
      for (const LeafChunkRef& ref : node->flushed_chunks()) {
        PARISAX_RETURN_IF_ERROR(storage->ReadChunk(ref, &all));
      }
      node->flushed_chunks().clear();
    }

    const int segment = ChooseSplitSegment(*node, all);
    if (segment < 0) {
      // Every segment is at maximum cardinality: the leaf is allowed to
      // exceed capacity (it can never be refined further).
      node->entries() = std::move(all);
      return Status::OK();
    }
    node->MakeInner(segment);
    for (const LeafEntry& e : all) {
      node->Route(e.sax)->entries().push_back(e);
    }
    Node* left = node->child(0);
    Node* right = node->child(1);
    if (left->LeafSize() > options_.leaf_capacity) {
      node = left;
    } else if (right->LeafSize() > options_.leaf_capacity) {
      node = right;
    } else {
      break;
    }
  }
  return Status::OK();
}

namespace {

struct InvariantContext {
  const SaxTreeOptions* options;
  LeafStorage* storage;
  TreeStats stats;
};

Status CheckNode(const Node* node, InvariantContext* ctx, size_t depth) {
  if (node->IsLeaf()) {
    ctx->stats.leaves++;
    ctx->stats.max_depth = std::max(ctx->stats.max_depth, depth);

    std::vector<LeafEntry> all = node->entries();
    for (const LeafChunkRef& ref : node->flushed_chunks()) {
      if (ctx->storage == nullptr) {
        return Status::Internal(
            "tree has flushed chunks but no LeafStorage was supplied");
      }
      PARISAX_RETURN_IF_ERROR(ctx->storage->ReadChunk(ref, &all));
    }
    for (const LeafEntry& e : all) {
      if (!WordContains(node->word(), e.sax, ctx->options->segments)) {
        return Status::Corruption(
            "leaf contains entry outside its region: " +
            node->word().ToString(ctx->options->segments));
      }
    }
    ctx->stats.total_entries += all.size();
    if (all.size() > ctx->options->leaf_capacity) {
      // Only legal when no segment can be refined further.
      for (int s = 0; s < ctx->options->segments; ++s) {
        if (node->word().bits[s] < kMaxCardBits) {
          return Status::Corruption("oversized splittable leaf");
        }
      }
      ctx->stats.oversized_leaves++;
    }
    return Status::OK();
  }

  ctx->stats.inner_nodes++;
  const int seg = node->split_segment();
  if (seg < 0 || seg >= ctx->options->segments) {
    return Status::Corruption("inner node with invalid split segment");
  }
  for (int bit = 0; bit < 2; ++bit) {
    const Node* child = node->child(bit);
    if (child == nullptr) {
      return Status::Corruption("inner node with missing child");
    }
    // Child word must extend the parent word by exactly one bit on the
    // split segment.
    const SaxWord& pw = node->word();
    const SaxWord& cw = child->word();
    for (int s = 0; s < ctx->options->segments; ++s) {
      if (s == seg) {
        if (cw.bits[s] != pw.bits[s] + 1 ||
            cw.symbols[s] != ((pw.symbols[s] << 1) | bit)) {
          return Status::Corruption("child word does not refine parent");
        }
      } else if (cw.bits[s] != pw.bits[s] || cw.symbols[s] != pw.symbols[s]) {
        return Status::Corruption("child word modified a non-split segment");
      }
    }
    PARISAX_RETURN_IF_ERROR(CheckNode(child, ctx, depth + 1));
  }
  return Status::OK();
}

}  // namespace

Status SaxTree::CheckInvariants(LeafStorage* storage) const {
  InvariantContext ctx;
  ctx.options = &options_;
  ctx.storage = storage;
  for (uint32_t key = 0; key < roots_.size(); ++key) {
    const Node* root = roots_[key].get();
    if (root == nullptr) continue;
    const SaxWord expected = RootWord(key, options_.segments);
    for (int s = 0; s < options_.segments; ++s) {
      if (root->word().bits[s] != expected.bits[s] ||
          root->word().symbols[s] != expected.symbols[s]) {
        return Status::Corruption("root child word does not match its key");
      }
    }
    PARISAX_RETURN_IF_ERROR(CheckNode(root, &ctx, 1));
  }
  return Status::OK();
}

TreeStats SaxTree::Collect() const {
  TreeStats stats;
  for (const auto& root : roots_) {
    if (root == nullptr) continue;
    stats.root_children++;
    // Reuse the invariant walker's counting without failing on missing
    // storage: count structurally here.
    std::function<void(const Node*, size_t)> walk = [&](const Node* node,
                                                        size_t depth) {
      if (node->IsLeaf()) {
        stats.leaves++;
        stats.total_entries += node->LeafSize();
        stats.max_depth = std::max(stats.max_depth, depth);
        if (node->LeafSize() > options_.leaf_capacity) {
          stats.oversized_leaves++;
        }
        return;
      }
      stats.inner_nodes++;
      walk(node->child(0), depth + 1);
      walk(node->child(1), depth + 1);
    };
    walk(root.get(), 1);
  }
  return stats;
}

}  // namespace parisax
