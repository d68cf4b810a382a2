// Tests for the iSAX tree: insertion, splitting (balance policy, cascades,
// max-cardinality overflow), routing, approximate descent, invariants and
// stats.
#include "index/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "io/generator.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "util/rng.h"

namespace parisax {
namespace {

LeafEntry MakeEntry(const SaxSymbols& sax, SeriesId id) {
  LeafEntry e;
  e.sax = sax;
  e.id = id;
  return e;
}

bool SameBitsForTest(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

SaxTreeOptions SmallOptions(int segments = 4, size_t leaf_capacity = 4) {
  SaxTreeOptions o;
  o.segments = segments;
  o.leaf_capacity = leaf_capacity;
  o.series_length = 64;
  return o;
}

std::vector<LeafEntry> EntriesFromDataset(const Dataset& data, int w) {
  std::vector<LeafEntry> entries;
  float paa[kMaxSegments];
  for (SeriesId i = 0; i < data.count(); ++i) {
    ComputePaa(data.series(i), w, paa);
    LeafEntry e;
    e.id = i;
    SymbolsFromPaa(paa, w, &e.sax);
    entries.push_back(e);
  }
  return entries;
}

TEST(NodeTest, MakeInnerRefinesWord) {
  SaxWord word = RootWord(0b1010, 4);
  Node node(word);
  ASSERT_TRUE(node.IsLeaf());
  node.MakeInner(2);
  ASSERT_FALSE(node.IsLeaf());
  EXPECT_EQ(node.split_segment(), 2);
  for (int bit = 0; bit < 2; ++bit) {
    const Node* child = node.child(bit);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->word().bits[2], 2);
    EXPECT_EQ(child->word().symbols[2], (word.symbols[2] << 1) | bit);
    // Other segments untouched.
    for (int s = 0; s < 4; ++s) {
      if (s == 2) continue;
      EXPECT_EQ(child->word().bits[s], word.bits[s]);
      EXPECT_EQ(child->word().symbols[s], word.symbols[s]);
    }
  }
}

TEST(NodeTest, RouteFollowsRefinedBit) {
  Node node(RootWord(0, 2));
  node.MakeInner(1);
  SaxSymbols low, high;
  low.symbols[1] = 0b00000000;   // second bit 0
  high.symbols[1] = 0b01000000;  // second bit 1 (top bit still 0)
  EXPECT_EQ(node.Route(low), node.child(0));
  EXPECT_EQ(node.Route(high), node.child(1));
}

TEST(TreeTest, InsertBuildsValidTree) {
  GeneratorOptions gen;
  gen.count = 2000;
  gen.length = 64;
  gen.seed = 23;
  const Dataset data = GenerateDataset(gen);
  const SaxTreeOptions options = SmallOptions(8, 16);
  SaxTree tree(options);
  for (const LeafEntry& e : EntriesFromDataset(data, options.segments)) {
    ASSERT_TRUE(tree.Insert(e).ok());
  }
  tree.SealRoots();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, data.count());
  EXPECT_GT(stats.leaves, data.count() / options.leaf_capacity / 2);
  EXPECT_EQ(stats.root_children, tree.PresentRoots().size());
}

TEST(TreeTest, EveryEntryReachableByRouting) {
  GeneratorOptions gen;
  gen.count = 500;
  gen.length = 64;
  gen.seed = 29;
  const Dataset data = GenerateDataset(gen);
  const SaxTreeOptions options = SmallOptions(8, 8);
  SaxTree tree(options);
  const auto entries = EntriesFromDataset(data, options.segments);
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();

  for (const LeafEntry& e : entries) {
    Node* node = tree.RootAt(RootKey(e.sax, options.segments));
    ASSERT_NE(node, nullptr);
    while (!node->IsLeaf()) node = node->Route(e.sax);
    bool found = false;
    for (const LeafEntry& le : node->entries()) {
      if (le.id == e.id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "series " << e.id
                       << " not in the leaf routing reaches";
  }
}

TEST(TreeTest, LeafCapacityRespected) {
  GeneratorOptions gen;
  gen.count = 3000;
  gen.length = 64;
  gen.seed = 31;
  const Dataset data = GenerateDataset(gen);
  for (const size_t capacity : {1u, 2u, 7u, 64u}) {
    SaxTreeOptions options = SmallOptions(8, capacity);
    SaxTree tree(options);
    for (const LeafEntry& e : EntriesFromDataset(data, options.segments)) {
      ASSERT_TRUE(tree.Insert(e).ok());
    }
    tree.SealRoots();
    EXPECT_TRUE(tree.CheckInvariants().ok()) << "capacity=" << capacity;
    size_t checked = 0;
    tree.VisitLeaves(nullptr, [&](Node* leaf) {
      ++checked;
      if (leaf->LeafSize() > capacity) {
        // Only allowed at max cardinality everywhere.
        for (int s = 0; s < options.segments; ++s) {
          EXPECT_EQ(leaf->word().bits[s], kMaxCardBits);
        }
      }
    });
    EXPECT_GT(checked, 0u);
  }
}

TEST(TreeTest, DuplicateSummariesOverflowGracefully) {
  // Identical summaries cannot be separated by any split: the leaf chain
  // must refine to max cardinality and then hold everything.
  const SaxTreeOptions options = SmallOptions(2, 2);
  SaxTree tree(options);
  SaxSymbols sax;
  sax.symbols[0] = 0b10110010;
  sax.symbols[1] = 0b01010101;
  for (SeriesId i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(MakeEntry(sax, i)).ok());
  }
  tree.SealRoots();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, 20u);
  EXPECT_EQ(stats.oversized_leaves, 1u);
}

TEST(TreeTest, SplitPrefersBalancedSegment) {
  // Segment 0: all entries share the next bit (unbalanced split).
  // Segment 1: entries split 3/3 (perfectly balanced) -> must be chosen.
  const SaxTreeOptions options = SmallOptions(2, 5);
  SaxTree tree(options);
  std::vector<LeafEntry> entries;
  for (int i = 0; i < 6; ++i) {
    SaxSymbols sax;
    sax.symbols[0] = 0b00000000;  // next bit always 0
    sax.symbols[1] = i < 3 ? 0b00000000 : 0b01000000;  // next bit 0/1
    entries.push_back(MakeEntry(sax, i));
  }
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();
  Node* root = tree.RootAt(0);
  ASSERT_NE(root, nullptr);
  ASSERT_FALSE(root->IsLeaf());
  EXPECT_EQ(root->split_segment(), 1);
  EXPECT_EQ(root->child(0)->LeafSize(), 3u);
  EXPECT_EQ(root->child(1)->LeafSize(), 3u);
}

TEST(TreeTest, CascadingSplitWhenAllEntriesShareOneSide) {
  // All entries agree on the first few refinement bits of every segment,
  // forcing repeated splits until a separating bit is found.
  const SaxTreeOptions options = SmallOptions(1, 1);
  SaxTree tree(options);
  SaxSymbols a, b;
  a.symbols[0] = 0b10000000;
  b.symbols[0] = 0b10000001;  // differs only in the last bit
  ASSERT_TRUE(tree.Insert(MakeEntry(a, 0)).ok());
  ASSERT_TRUE(tree.Insert(MakeEntry(b, 1)).ok());
  tree.SealRoots();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, 2u);
  // 7 cascading splits were needed to separate the last bit.
  EXPECT_EQ(stats.max_depth, 8u);
  EXPECT_EQ(stats.oversized_leaves, 0u);
}

TEST(TreeTest, ApproximateLeafDescendsToMatchingRegion) {
  GeneratorOptions gen;
  gen.count = 1000;
  gen.length = 64;
  gen.seed = 37;
  const Dataset data = GenerateDataset(gen);
  const SaxTreeOptions options = SmallOptions(8, 8);
  SaxTree tree(options);
  const auto entries = EntriesFromDataset(data, options.segments);
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();

  // For an indexed series, the approximate leaf must contain it.
  float paa[kMaxSegments];
  for (SeriesId i = 0; i < 50; ++i) {
    ComputePaa(data.series(i), options.segments, paa);
    Node* leaf = tree.ApproximateLeaf(entries[i].sax, paa);
    ASSERT_NE(leaf, nullptr);
    bool found = false;
    for (const LeafEntry& le : leaf->entries()) found |= le.id == i;
    EXPECT_TRUE(found) << "series " << i;
  }
}

TEST(TreeTest, ApproximateLeafFallsBackToNearestRoot) {
  const SaxTreeOptions options = SmallOptions(2, 4);
  SaxTree tree(options);
  // Only root 0b11 exists (both segments high).
  SaxSymbols high;
  high.symbols[0] = 0b11000000;
  high.symbols[1] = 0b11000000;
  ASSERT_TRUE(tree.Insert(MakeEntry(high, 0)).ok());
  tree.SealRoots();

  // Query in region 0b00: exact root child missing -> fallback.
  SaxSymbols low;
  low.symbols[0] = 0;
  low.symbols[1] = 0;
  float paa[2] = {-2.0f, -2.0f};
  Node* leaf = tree.ApproximateLeaf(low, paa);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->LeafSize(), 1u);
}

/// The leaf the reference fallback reaches for a query whose root
/// subtree is absent: the first present root, in PresentRoots() order,
/// with the strictly smallest MinDistPaaToWordSq, descended by the
/// query's symbols.
Node* ReferenceFallbackLeaf(const SaxTree& tree, const SaxSymbols& query_sax,
                            const float* query_paa) {
  const SaxTreeOptions& o = tree.options();
  Node* node = nullptr;
  float best = std::numeric_limits<float>::infinity();
  for (const uint32_t key : tree.PresentRoots()) {
    const float d = MinDistPaaToWordSq(query_paa, tree.RootAt(key)->word(),
                                       o.segments, o.series_length);
    if (d < best) {
      best = d;
      node = tree.RootAt(key);
    }
  }
  if (node == nullptr) return nullptr;
  while (!node->IsLeaf()) node = node->Route(query_sax);
  return node;
}

TEST(TreeTest, RootFallbackPicksTheFirstClosestPresentRoot) {
  const BreakpointTable& table = BreakpointTable::Get();
  for (const int w : {16, 8, 5}) {
    SaxTreeOptions options = SmallOptions(w, 4);
    options.series_length = 256;

    // A constructed tie: segment 0's value sits on the level-1
    // breakpoint, so both of its regions are 0 away; every other
    // segment lies above it. Roots `first` (segment bits 0, 0, 1, ...)
    // and `second` (1, 0, 1, ...) are then equally close, the query's
    // own root (?, 1, 1, ...) is absent, and a scan that kept the last
    // minimum would pick `second`.
    {
      SaxTree tree(options);
      float paa[kMaxSegments];
      paa[0] = table.RegionHigh(1, 0);
      for (int s = 1; s < w; ++s) paa[s] = 0.75f;
      SaxSymbols first, second, far;
      for (int s = 0; s < kMaxSegments; ++s) {
        first.symbols[s] = second.symbols[s] = s == 1 ? 0x10 : 0xF0;
      }
      first.symbols[0] = 0x40;
      second.symbols[0] = 0xC0;
      ASSERT_TRUE(tree.Insert(MakeEntry(far, 0)).ok());
      ASSERT_TRUE(tree.Insert(MakeEntry(second, 1)).ok());
      ASSERT_TRUE(tree.Insert(MakeEntry(first, 2)).ok());
      tree.SealRoots();
      SaxSymbols query_sax;
      SymbolsFromPaa(paa, w, &query_sax);
      ASSERT_EQ(tree.RootAt(RootKey(query_sax, w)), nullptr) << "w=" << w;
      const uint32_t first_key = RootKey(first, w);
      const uint32_t second_key = RootKey(second, w);
      ASSERT_LT(first_key, second_key);
      ASSERT_TRUE(SameBitsForTest(
          MinDistPaaToWordSq(paa, RootWord(first_key, w), w, 256),
          MinDistPaaToWordSq(paa, RootWord(second_key, w), w, 256)))
          << "the constructed roots must tie, w=" << w;
      Node* leaf = tree.ApproximateLeaf(query_sax, paa);
      EXPECT_EQ(leaf, tree.RootAt(first_key)) << "w=" << w;
      EXPECT_EQ(leaf, ReferenceFallbackLeaf(tree, query_sax, paa));
    }

    // Random sparse trees: at most a quarter of the roots present, so
    // most queries fall back.
    SaxTree tree(options);
    Rng rng(500 + w);
    const size_t entries = std::max<size_t>(4, (size_t{1} << w) / 8);
    for (size_t i = 0; i < entries; ++i) {
      SaxSymbols sax;
      for (int s = 0; s < w; ++s) {
        sax.symbols[s] = static_cast<uint8_t>(rng.NextBelow(256));
      }
      ASSERT_TRUE(tree.Insert(MakeEntry(sax, i)).ok());
    }
    tree.SealRoots();
    size_t fallbacks = 0;
    for (int q = 0; q < 200; ++q) {
      float paa[kMaxSegments];
      for (int s = 0; s < w; ++s) {
        paa[s] = static_cast<float>(rng.NextBelow(6001)) / 1000.0f - 3.0f;
      }
      SaxSymbols query_sax;
      SymbolsFromPaa(paa, w, &query_sax);
      if (tree.RootAt(RootKey(query_sax, w)) != nullptr) continue;
      ++fallbacks;
      Node* want = ReferenceFallbackLeaf(tree, query_sax, paa);
      ASSERT_NE(want, nullptr);
      EXPECT_EQ(tree.ApproximateLeaf(query_sax, paa), want)
          << "w=" << w << " q=" << q;
    }
    EXPECT_GT(fallbacks, 100u) << "w=" << w;
  }
}

TEST(TreeTest, EmptyTreeBehaviour) {
  SaxTree tree(SmallOptions());
  tree.SealRoots();
  EXPECT_TRUE(tree.PresentRoots().empty());
  SaxSymbols sax;
  float paa[4] = {0, 0, 0, 0};
  EXPECT_EQ(tree.ApproximateLeaf(sax, paa), nullptr);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, 0u);
  EXPECT_EQ(stats.leaves, 0u);
}

TEST(TreeTest, SealRootsIsSortedAndComplete) {
  const SaxTreeOptions options = SmallOptions(4, 4);
  SaxTree tree(options);
  Rng rng(41);
  std::set<uint32_t> expected;
  for (int i = 0; i < 200; ++i) {
    SaxSymbols sax;
    for (int s = 0; s < options.segments; ++s) {
      sax.symbols[s] = static_cast<uint8_t>(rng.NextU64() & 0xff);
    }
    expected.insert(RootKey(sax, options.segments));
    ASSERT_TRUE(tree.Insert(MakeEntry(sax, i)).ok());
  }
  tree.SealRoots();
  const auto& present = tree.PresentRoots();
  ASSERT_EQ(present.size(), expected.size());
  size_t idx = 0;
  for (const uint32_t key : expected) {
    EXPECT_EQ(present[idx++], key);  // std::set iterates ascending
  }
}

}  // namespace
}  // namespace parisax
