#include "index/segment.h"

#include <algorithm>
#include <utility>

#include "sax/paa.h"
#include "sax/word.h"

namespace parisax {

namespace {

/// Fills `seg->sax_rows` from the segment's own leaves (segments hold
/// every entry in memory, so no storage round-trip is needed).
void FillSaxRows(Segment* seg) {
  seg->sax_rows.resize(seg->count);
  seg->tree.VisitLeaves(nullptr, [seg](Node* leaf) {
    for (const LeafEntry& e : leaf->entries()) {
      seg->sax_rows[e.id - seg->first] = e.sax;
    }
  });
}

}  // namespace

Result<std::shared_ptr<const Segment>> BuildSegment(
    const Value* values, size_t count, SeriesId first,
    const SaxTreeOptions& options, bool with_sax_rows, Executor* exec) {
  // Summarize the batch in parallel straight from the caller's buffer
  // (identical values to what the grown source holds), then insert it
  // the way every other segment is built.
  const size_t n = options.series_length;
  const int w = options.segments;
  std::vector<LeafEntry> entries(count);
  WorkCounter chunks(count);
  exec->Run([&](int) {
    float paa[kMaxSegments];
    size_t begin, end;
    while (chunks.NextBatch(1024, &begin, &end)) {
      for (size_t i = begin; i < end; ++i) {
        ComputePaa(SeriesView(values + i * n, n), w, paa);
        entries[i].id = first + i;
        SymbolsFromPaa(paa, w, &entries[i].sax);
      }
    }
  });
  return SegmentFromEntries(entries, first, count, options, with_sax_rows,
                            exec);
}

Result<std::shared_ptr<const Segment>> SegmentFromEntries(
    const std::vector<LeafEntry>& entries, SeriesId first, size_t count,
    const SaxTreeOptions& options, bool with_sax_rows, Executor* exec) {
  if (entries.size() != count) {
    return Status::InvalidArgument(
        "segment entries do not cover the id range");
  }
  for (const LeafEntry& e : entries) {
    if (e.id < first || e.id - first >= count) {
      return Status::InvalidArgument("segment entry id out of range");
    }
  }
  auto seg = std::make_shared<Segment>(options);
  seg->first = first;
  seg->count = count;
  PARISAX_RETURN_IF_ERROR(BuildTreeFromEntries(&seg->tree, entries, exec));
  if (with_sax_rows) FillSaxRows(seg.get());
  return std::shared_ptr<const Segment>(std::move(seg));
}

Result<std::shared_ptr<const Segment>> MergeSegments(
    const std::vector<std::shared_ptr<const Segment>>& parts,
    const SaxTreeOptions& options, Executor* exec) {
  if (parts.empty()) {
    return Status::InvalidArgument("nothing to merge");
  }
  const SeriesId first = parts.front()->first;
  size_t count = 0;
  std::vector<LeafEntry> entries;
  for (const auto& part : parts) {
    if (part->first != first + count) {
      return Status::InvalidArgument("segments to merge are not contiguous");
    }
    count += part->count;
    PARISAX_RETURN_IF_ERROR(
        CollectTreeEntries(part->tree, /*storage=*/nullptr, &entries));
  }
  return SegmentFromEntries(entries, first, count, options,
                            !parts.front()->sax_rows.empty(), exec);
}

Status CollectTreeEntries(const SaxTree& tree, LeafStorage* storage,
                          std::vector<LeafEntry>* out) {
  Status status;
  tree.VisitLeaves(nullptr, [&](Node* leaf) {
    if (!status.ok()) return;
    const Status st = CollectLeafEntries(*leaf, storage, out);
    if (!st.ok()) status = st;
  });
  return status;
}

Status BuildTreeFromEntries(SaxTree* tree,
                            const std::vector<LeafEntry>& entries,
                            Executor* exec) {
  const int w = tree->options().segments;

  // Key every entry by its root subtree, in parallel.
  struct KeyedEntry {
    uint32_t key;
    LeafEntry entry;
  };
  std::vector<KeyedEntry> keyed(entries.size());
  {
    WorkCounter chunks(entries.size());
    exec->Run([&](int) {
      size_t begin, end;
      while (chunks.NextBatch(4096, &begin, &end)) {
        for (size_t i = begin; i < end; ++i) {
          keyed[i].entry = entries[i];
          keyed[i].key = RootKey(entries[i].sax, w);
        }
      }
    });
  }

  // (key, id)-ordered insertion keeps the split decisions deterministic
  // for a given entry set, independent of where the entries came from.
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedEntry& a, const KeyedEntry& b) {
              return a.key < b.key ||
                     (a.key == b.key && a.entry.id < b.entry.id);
            });
  std::vector<std::pair<size_t, size_t>> ranges;  // [begin, end) per key
  for (size_t i = 0; i < keyed.size();) {
    size_t j = i + 1;
    while (j < keyed.size() && keyed[j].key == keyed[i].key) ++j;
    ranges.emplace_back(i, j);
    i = j;
  }

  Mutex error_mu{"error_mu", LockRank::kFirstError};
  Status first_error;
  {
    WorkCounter range_counter(ranges.size());
    exec->Run([&](int) {
      size_t item;
      while (range_counter.NextItem(&item)) {
        const auto [begin, end] = ranges[item];
        Node* root = tree->GetOrCreateRoot(keyed[begin].key);
        for (size_t i = begin; i < end; ++i) {
          const Status st =
              tree->InsertIntoSubtree(root, keyed[i].entry, nullptr);
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
  tree->SealRoots();
  return Status::OK();
}

}  // namespace parisax
