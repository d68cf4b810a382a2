// Versioned, checksummed binary snapshots of the iSAX indexes.
//
// The paper's systems amortize index construction over many queries;
// snapshots extend that across process lifetimes: build once, SaveIndex,
// then LoadIndex at startup and serve immediately (typically against an
// MmapSource over the raw dataset file, so nothing is recomputed and the
// raw values need no in-RAM copy).
//
// Two file kinds share one header layout (full spec: see
// docs/snapshot-format.md):
//
//   version 1 — full snapshot: flat SAX (ParIS only), a directory of
//     every root subtree, per-subtree pre-order topology streams, leaf
//     payload, body CRC-32 trailer.
//   version 3 — delta snapshot (segment-based ingest): a chain-link
//     section back-referencing the predecessor file (path + its stored
//     header CRC + the predecessor's series count), then exactly one
//     serialized *segment* (src/index/segment.h) covering the series
//     appended since the predecessor — its flat SAX rows (ParIS only)
//     and the directory/topology/payload of the segment's own
//     mini-tree. Deltas map 1:1 onto in-memory segments: loading a
//     chain restores the version-1 base, rehydrates each delta as an
//     immutable segment on the serving snapshot, and serves — queries
//     merge base and segments, so no replay into the base is needed.
//     (Version 2 — subtree-replacement deltas — is no longer written;
//     readers reject it with kNotSupported.)
//
// Save and load both fan out per root subtree over an Executor (the same
// no-synchronization-inside-a-subtree discipline the builders use).
// Corrupted, truncated or version-mismatched files fail with typed
// Status errors (kCorruption / kNotSupported); every offset is bounds-
// checked before it is dereferenced, so hostile input cannot fault.
#ifndef PARISAX_PERSIST_SNAPSHOT_H_
#define PARISAX_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/raw_source.h"
#include "index/segment.h"
#include "index/segmented_index.h"
#include "index/tree.h"
#include "messi/messi_index.h"
#include "paris/paris_index.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

/// Full-snapshot format version. Readers reject unknown versions with
/// kNotSupported (the versioning policy is: bump on any layout change,
/// no in-place migration).
inline constexpr uint32_t kSnapshotVersion = 1;

/// Delta-snapshot format version (append-only chain links, one segment
/// per file; see docs/snapshot-format.md). Version 2 — the former
/// subtree-replacement delta — is retired and rejected.
inline constexpr uint32_t kSnapshotVersionDelta = 3;

/// Largest accepted delta depth behind one base: a chain holds at most
/// 1 + kMaxSnapshotChain files. Bounds replay work and makes
/// back-reference cycles a typed error; Engine::Save auto-compacts (a
/// full snapshot) once the cap is reached.
inline constexpr size_t kMaxSnapshotChain = 64;

/// Fixed header size in bytes; sections start immediately after.
inline constexpr uint64_t kSnapshotHeaderBytes = 64;

/// Index family stored in a snapshot.
enum class SnapshotKind : uint8_t {
  kMessi = 1,
  kParis = 2,
};

/// Parsed, validated snapshot header.
struct SnapshotInfo {
  uint32_t version = 0;
  SnapshotKind kind = SnapshotKind::kMessi;
  /// The Algorithm enum value recorded by the saver (Engine::Save stores
  /// its own algorithm so Engine::Open can restore kParis vs kParisPlus);
  /// purely informational at this layer.
  uint8_t algorithm = 0;
  SaxTreeOptions tree;
  /// Indexed series count *after* this file (for a delta: including the
  /// series it appends).
  uint64_t series_count = 0;
  uint64_t subtree_count = 0;
  uint64_t total_entries = 0;
  uint64_t file_bytes = 0;
  /// CRC-32 stored in the header (identifies the file in chain links).
  uint32_t header_crc = 0;

  /// True for a version-3 delta snapshot; the link fields below are
  /// then populated by ReadSnapshotInfo.
  bool is_delta = false;
  /// Chain link (deltas only): the predecessor file this delta extends.
  std::string base_path;
  /// The predecessor's stored header CRC; must match at load time.
  uint32_t base_header_crc = 0;
  /// The predecessor's series count: the delta's segment covers ids
  /// [prev_series_count, series_count).
  uint64_t prev_series_count = 0;
  /// Links back to the base: 0 for a full snapshot, n for the n-th
  /// delta.
  uint32_t chain_depth = 0;
};

struct SnapshotSaveOptions {
  /// Recorded verbatim in the header (see SnapshotInfo::algorithm).
  uint8_t algorithm = 0;
};

struct SnapshotDeltaSaveOptions {
  /// Recorded verbatim in the header (see SnapshotInfo::algorithm).
  uint8_t algorithm = 0;
  /// Chain predecessor (the current head: the base full snapshot or the
  /// previous delta).
  std::string base_path;
  /// The predecessor's stored header CRC (SnapshotInfo::header_crc).
  uint32_t base_header_crc = 0;
  /// Series count recorded by the predecessor.
  uint64_t prev_series_count = 0;
  /// 1 + the predecessor's chain depth.
  uint32_t chain_depth = 1;
};

/// Validates and parses a snapshot header (magic, version, header CRC,
/// field sanity) plus, for deltas, the chain-link section. Does not
/// verify the body checksum.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// One file of a snapshot chain, base first.
struct SnapshotChainEntry {
  std::string path;
  SnapshotInfo info;
};

/// Walks the back-references from `head_path` to the full base snapshot
/// and returns the chain in replay order [base, delta1, ..., head].
/// Verifies link integrity (CRC back-references, series-count and shape
/// continuity, depth monotonicity, chain length). A relative base path
/// that does not resolve as given is retried next to the referencing
/// delta, so relocated snapshot directories keep working.
Result<std::vector<SnapshotChainEntry>> ReadSnapshotChain(
    const std::string& head_path);

/// The snapshot kind an index serializes as: the ParIS family (flat SAX
/// rows) writes kParis, MESSI kMessi.
inline SnapshotKind SnapshotKindOf(const SegmentedIndex& index) {
  return index.flat_sax() ? SnapshotKind::kParis : SnapshotKind::kMessi;
}

/// Serializes a MESSI or ParIS/ParIS+ index (tree, plus the flat SAX
/// array for the ParIS family) to `path`, replacing any existing file.
/// The serving snapshot must be fully folded (no live segments — the
/// Engine folds before a full save); subtrees are serialized in
/// parallel on `exec`. Leaves with chunks materialized in LeafStorage
/// are inlined, so the snapshot is self-contained and the restored
/// index never touches the .leaves file.
Status SaveIndex(const SegmentedIndex& index, const std::string& path,
                 Executor* exec, const SnapshotSaveOptions& options = {});

/// Writes a version-3 delta snapshot holding exactly `segment` — the
/// series appended since options.base_path was written — chained to the
/// predecessor by header back-reference. `segment.first` must equal
/// options.prev_series_count; for kParis the segment must carry its
/// flat-SAX rows.
Status SaveSegmentDelta(SnapshotKind kind, const Segment& segment,
                        const std::string& path, Executor* exec,
                        const SnapshotDeltaSaveOptions& options);

/// Restores a MESSI index from `path` — a full snapshot, or a delta
/// chain head whose base is restored and whose deltas are rehydrated
/// as serving segments, in chain order. `source`
/// supplies the raw series (it must match the head's collection shape
/// and be directly addressable — an InMemorySource or MmapSource); the
/// index takes ownership. Subtrees are deserialized in parallel on
/// `exec`.
Result<std::unique_ptr<MessiIndex>> LoadMessiIndex(
    const std::string& path, std::unique_ptr<RawSeriesSource> source,
    Executor* exec);

/// Restores a ParIS/ParIS+ index from `path` (full snapshot or delta
/// chain head). Any RawSeriesSource works (mmap, in-memory, or a
/// simulated disk); the index takes ownership.
Result<std::unique_ptr<ParisIndex>> LoadParisIndex(
    const std::string& path, std::unique_ptr<RawSeriesSource> source,
    Executor* exec);

}  // namespace parisax

#endif  // PARISAX_PERSIST_SNAPSHOT_H_
