#include "persist/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "index/leaf_storage.h"
#include "io/mmap_file.h"
#include "persist/checksum.h"
#include "sax/word.h"
#include "util/mutex.h"

namespace parisax {

namespace {

// The format serializes SaxSymbols and header integers by memcpy; both
// assume the usual packed little-endian layout.
static_assert(sizeof(SaxSymbols) == 16, "snapshot layout change");
static_assert(std::endian::native == std::endian::little,
              "snapshot format is little-endian");

constexpr char kSnapshotMagic[8] = {'P', 'S', 'A', 'X', 'S', 'N', '0', '1'};

/// Bytes per serialized leaf entry: 16-byte SAX symbols + 8-byte id.
constexpr uint64_t kEntryBytes = 24;
/// Bytes per subtree directory record.
constexpr uint64_t kDirRecordBytes = 40;
/// Trailing body-CRC bytes.
constexpr uint64_t kTrailerBytes = 4;
/// Topology node tags.
constexpr uint8_t kTagInner = 0;
constexpr uint8_t kTagLeaf = 1;

// --- little helpers ---------------------------------------------------

template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T LoadPod(const uint8_t* p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// Bounds-checked forward reader over a byte range.
struct Cursor {
  const uint8_t* p;
  const uint8_t* end;

  size_t remaining() const { return static_cast<size_t>(end - p); }

  template <typename T>
  bool Read(T* out) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, p, sizeof(T));
    p += sizeof(T);
    return true;
  }
};

/// Delta chain links must fit a path; anything longer is hostile input.
constexpr uint64_t kMaxLinkPathBytes = 4096;
/// Fixed part of the chain-link section: prev_series_count (8) +
/// base_header_crc (4) + chain_depth (4) + base_path_len (4).
constexpr uint64_t kLinkFixedBytes = 20;

/// One subtree directory record.
struct DirRecord {
  uint32_t key = 0;
  uint64_t entry_count = 0;
  uint64_t topo_offset = 0;
  uint64_t topo_bytes = 0;
  uint64_t payload_offset = 0;
};

void AppendDirRecord(std::string* out, const DirRecord& r) {
  AppendPod(out, r.key);
  AppendPod(out, uint32_t{0});  // reserved
  AppendPod(out, r.entry_count);
  AppendPod(out, r.topo_offset);
  AppendPod(out, r.topo_bytes);
  AppendPod(out, r.payload_offset);
}

DirRecord LoadDirRecord(const uint8_t* p) {
  DirRecord r;
  r.key = LoadPod<uint32_t>(p);
  r.entry_count = LoadPod<uint64_t>(p + 8);
  r.topo_offset = LoadPod<uint64_t>(p + 16);
  r.topo_bytes = LoadPod<uint64_t>(p + 24);
  r.payload_offset = LoadPod<uint64_t>(p + 32);
  return r;
}

// --- header -----------------------------------------------------------

std::string EncodeHeader(const SnapshotInfo& info) {
  std::string h;
  h.reserve(kSnapshotHeaderBytes);
  h.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendPod(&h, info.version);
  AppendPod(&h, static_cast<uint8_t>(info.kind));
  AppendPod(&h, info.algorithm);
  AppendPod(&h, static_cast<uint16_t>(info.tree.segments));
  AppendPod(&h, static_cast<uint32_t>(info.tree.series_length));
  AppendPod(&h, static_cast<uint64_t>(info.tree.leaf_capacity));
  AppendPod(&h, info.series_count);
  AppendPod(&h, info.subtree_count);
  AppendPod(&h, info.total_entries);
  AppendPod(&h, info.file_bytes);
  AppendPod(&h, Crc32(h.data(), h.size()));
  return h;
}

Status DecodeHeader(const uint8_t* bytes, size_t size,
                    const std::string& path, SnapshotInfo* info) {
  if (size < kSnapshotHeaderBytes) {
    return Status::Corruption("snapshot file too short for header: " + path);
  }
  if (std::memcmp(bytes, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Corruption("bad magic in snapshot file: " + path);
  }
  const uint32_t stored_crc = LoadPod<uint32_t>(bytes + 60);
  if (Crc32(bytes, 60) != stored_crc) {
    return Status::Corruption("snapshot header checksum mismatch: " + path);
  }
  info->header_crc = stored_crc;
  info->version = LoadPod<uint32_t>(bytes + 8);
  if (info->version != kSnapshotVersion &&
      info->version != kSnapshotVersionDelta) {
    return Status::NotSupported(
        "snapshot version " + std::to_string(info->version) +
        " is not supported (reader versions " +
        std::to_string(kSnapshotVersion) + "/" +
        std::to_string(kSnapshotVersionDelta) + "): " + path);
  }
  info->is_delta = info->version == kSnapshotVersionDelta;
  const uint8_t kind = bytes[12];
  if (kind != static_cast<uint8_t>(SnapshotKind::kMessi) &&
      kind != static_cast<uint8_t>(SnapshotKind::kParis)) {
    return Status::Corruption("unknown snapshot kind: " + path);
  }
  info->kind = static_cast<SnapshotKind>(kind);
  info->algorithm = bytes[13];
  info->tree.segments = LoadPod<uint16_t>(bytes + 14);
  info->tree.series_length = LoadPod<uint32_t>(bytes + 16);
  info->tree.leaf_capacity =
      static_cast<size_t>(LoadPod<uint64_t>(bytes + 20));
  info->series_count = LoadPod<uint64_t>(bytes + 28);
  info->subtree_count = LoadPod<uint64_t>(bytes + 36);
  info->total_entries = LoadPod<uint64_t>(bytes + 44);
  info->file_bytes = LoadPod<uint64_t>(bytes + 52);
  if (info->tree.segments < 1 || info->tree.segments > kMaxSegments) {
    return Status::Corruption("snapshot declares invalid segments: " + path);
  }
  if (info->tree.series_length == 0 || info->tree.leaf_capacity == 0) {
    return Status::Corruption("snapshot declares empty tree shape: " + path);
  }
  if (info->subtree_count > (uint64_t{1} << info->tree.segments)) {
    return Status::Corruption("snapshot declares too many subtrees: " + path);
  }
  if (info->file_bytes < kSnapshotHeaderBytes + kTrailerBytes) {
    return Status::Corruption("snapshot declares impossible size: " + path);
  }
  return Status::OK();
}

// --- delta chain links ------------------------------------------------

std::string EncodeDeltaLink(const SnapshotDeltaSaveOptions& options) {
  std::string link;
  AppendPod(&link, options.prev_series_count);
  AppendPod(&link, options.base_header_crc);
  AppendPod(&link, options.chain_depth);
  AppendPod(&link, static_cast<uint32_t>(options.base_path.size()));
  link.append(options.base_path);
  return link;
}

/// Parses the chain-link section of a delta snapshot into `info` (which
/// must already hold the decoded header). Sets *link_bytes to the
/// section's encoded size.
Status ParseDeltaLink(const uint8_t* begin, const uint8_t* end,
                      const std::string& path, SnapshotInfo* info,
                      uint64_t* link_bytes) {
  Cursor cursor{begin, end};
  uint32_t path_len = 0;
  if (!cursor.Read(&info->prev_series_count) ||
      !cursor.Read(&info->base_header_crc) ||
      !cursor.Read(&info->chain_depth) || !cursor.Read(&path_len)) {
    return Status::Corruption("snapshot chain link truncated: " + path);
  }
  if (path_len == 0 || path_len > kMaxLinkPathBytes ||
      cursor.remaining() < path_len) {
    return Status::Corruption("snapshot chain link path invalid: " + path);
  }
  info->base_path.assign(reinterpret_cast<const char*>(cursor.p),
                         path_len);
  if (info->chain_depth == 0 || info->chain_depth > kMaxSnapshotChain) {
    return Status::Corruption("snapshot chain depth invalid: " + path);
  }
  if (info->prev_series_count > info->series_count) {
    return Status::Corruption(
        "snapshot delta shrinks the collection: " + path);
  }
  *link_bytes = kLinkFixedBytes + path_len;
  return Status::OK();
}

/// dirname(reference) + "/" + the last component of `target`: the
/// fallback used when a chain's recorded base path does not resolve
/// (e.g. the snapshot directory was moved wholesale).
std::string SiblingPath(const std::string& reference,
                        const std::string& target) {
  const size_t ref_slash = reference.find_last_of('/');
  const size_t tgt_slash = target.find_last_of('/');
  const std::string base_name =
      tgt_slash == std::string::npos ? target : target.substr(tgt_slash + 1);
  if (ref_slash == std::string::npos) return base_name;
  return reference.substr(0, ref_slash + 1) + base_name;
}

// --- save -------------------------------------------------------------

/// One serialized root subtree: a pre-order topology stream plus this
/// subtree's slice of the leaf payload. Built independently per worker.
struct SubtreeBlob {
  uint32_t key = 0;
  std::string topo;
  std::string payload;
  uint64_t entries = 0;
  Status status;
};

Status SerializeNode(const Node& node, LeafStorage* storage,
                     SubtreeBlob* out, std::vector<LeafEntry>* scratch) {
  if (node.IsLeaf()) {
    AppendPod(&out->topo, kTagLeaf);
    scratch->clear();
    PARISAX_RETURN_IF_ERROR(CollectLeafEntries(node, storage, scratch));
    AppendPod(&out->topo, out->entries);  // first entry in subtree slice
    AppendPod(&out->topo, static_cast<uint64_t>(scratch->size()));
    for (const LeafEntry& e : *scratch) {
      out->payload.append(reinterpret_cast<const char*>(e.sax.symbols),
                          sizeof(e.sax.symbols));
      AppendPod(&out->payload, static_cast<uint64_t>(e.id));
    }
    out->entries += scratch->size();
    return Status::OK();
  }
  AppendPod(&out->topo, kTagInner);
  AppendPod(&out->topo, static_cast<uint8_t>(node.split_segment()));
  PARISAX_RETURN_IF_ERROR(
      SerializeNode(*node.child(0), storage, out, scratch));
  return SerializeNode(*node.child(1), storage, out, scratch);
}

/// Appends `bytes` to the file, folding them into the running body CRC.
struct CrcFileWriter {
  std::FILE* f = nullptr;
  uint32_t crc = 0;

  Status Write(const void* bytes, size_t size, const std::string& path) {
    if (std::fwrite(bytes, 1, size, f) != size) {
      return Status::IOError("short write of snapshot: " + path);
    }
    crc = Crc32(bytes, size, crc);
    return Status::OK();
  }
};

Status WriteSnapshotFile(const SnapshotInfo& info, const std::string& link,
                         const SaxSymbols* sax, uint64_t sax_rows,
                         const std::vector<SubtreeBlob>& blobs,
                         const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create snapshot file: " + tmp_path);
  }
  const auto fail = [&](Status status) {
    std::fclose(f);
    std::remove(tmp_path.c_str());
    return status;
  };

  const std::string header = EncodeHeader(info);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    return fail(Status::IOError("short write of snapshot header: " + path));
  }

  CrcFileWriter body{f, 0};
  if (!link.empty()) {
    const Status st = body.Write(link.data(), link.size(), path);
    if (!st.ok()) return fail(st);
  }
  if (sax_rows > 0) {
    const Status st =
        body.Write(sax, sax_rows * sizeof(SaxSymbols), path);
    if (!st.ok()) return fail(st);
  }

  // Directory, then the topology and payload blobs in the same order.
  uint64_t offset = kSnapshotHeaderBytes + link.size() +
                    sax_rows * sizeof(SaxSymbols) +
                    blobs.size() * kDirRecordBytes;
  std::string directory;
  directory.reserve(blobs.size() * kDirRecordBytes);
  std::vector<uint64_t> topo_offsets(blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    topo_offsets[i] = offset;
    offset += blobs[i].topo.size();
  }
  for (size_t i = 0; i < blobs.size(); ++i) {
    DirRecord r;
    r.key = blobs[i].key;
    r.entry_count = blobs[i].entries;
    r.topo_offset = topo_offsets[i];
    r.topo_bytes = blobs[i].topo.size();
    r.payload_offset = offset;
    offset += blobs[i].payload.size();
    AppendDirRecord(&directory, r);
  }
  {
    const Status st = body.Write(directory.data(), directory.size(), path);
    if (!st.ok()) return fail(st);
  }
  for (const SubtreeBlob& blob : blobs) {
    const Status st = body.Write(blob.topo.data(), blob.topo.size(), path);
    if (!st.ok()) return fail(st);
  }
  for (const SubtreeBlob& blob : blobs) {
    const Status st =
        body.Write(blob.payload.data(), blob.payload.size(), path);
    if (!st.ok()) return fail(st);
  }
  const uint32_t body_crc = body.crc;
  if (std::fwrite(&body_crc, 1, sizeof(body_crc), f) != sizeof(body_crc)) {
    return fail(Status::IOError("short write of snapshot trailer: " + path));
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("close failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename snapshot into place: " + path);
  }
  return Status::OK();
}

/// Serializes the subtrees under `keys` (ascending, with live roots)
/// plus `sax_row_count` flat-SAX rows and writes a snapshot file: a
/// version-1 full snapshot when `link` is empty, a version-3 delta
/// otherwise. For kParis the caller supplies exactly the rows the
/// reader will expect: all of them for a full snapshot, the segment's
/// own rows for a delta.
Status SaveSnapshot(SnapshotKind kind, uint8_t algorithm,
                    const SaxTree& tree, const SaxSymbols* sax_rows,
                    uint64_t sax_row_count, LeafStorage* storage,
                    uint64_t series_count,
                    const std::vector<uint32_t>& keys,
                    const std::string& link, const std::string& path,
                    Executor* exec) {
  for (const uint32_t key : keys) {
    if (key >= tree.root_slots() || tree.RootAt(key) == nullptr) {
      return Status::InvalidArgument(
          "cannot snapshot subtree " + std::to_string(key) +
          ": no such root in the index");
    }
  }
  // Serialize each root subtree independently (the same per-subtree
  // parallelism the builders use; no synchronization inside a subtree).
  std::vector<SubtreeBlob> blobs(keys.size());
  WorkCounter counter(keys.size());
  exec->Run([&](int) {
    std::vector<LeafEntry> scratch;
    size_t i;
    while (counter.NextItem(&i)) {
      blobs[i].key = keys[i];
      blobs[i].status = SerializeNode(*tree.RootAt(keys[i]), storage,
                                      &blobs[i], &scratch);
    }
  });
  uint64_t total_entries = 0;
  uint64_t topo_bytes = 0;
  uint64_t payload_bytes = 0;
  for (const SubtreeBlob& blob : blobs) {
    PARISAX_RETURN_IF_ERROR(blob.status);
    total_entries += blob.entries;
    topo_bytes += blob.topo.size();
    payload_bytes += blob.payload.size();
  }

  SnapshotInfo info;
  info.version = link.empty() ? kSnapshotVersion : kSnapshotVersionDelta;
  info.kind = kind;
  info.algorithm = algorithm;
  info.tree = tree.options();
  info.series_count = series_count;
  info.subtree_count = keys.size();
  info.total_entries = total_entries;
  info.file_bytes = kSnapshotHeaderBytes + link.size() +
                    sax_row_count * sizeof(SaxSymbols) +
                    keys.size() * kDirRecordBytes + topo_bytes +
                    payload_bytes + kTrailerBytes;
  return WriteSnapshotFile(info, link, sax_rows, sax_row_count, blobs,
                           path);
}

// --- load -------------------------------------------------------------

/// A verified snapshot: mapped file, parsed header, section pointers.
struct VerifiedSnapshot {
  std::unique_ptr<MmapFile> file;
  SnapshotInfo info;
  /// kParis only: full snapshot — every row; delta — the rows of
  /// [prev_series_count, series_count).
  const uint8_t* sax = nullptr;
  uint64_t sax_rows = 0;
  const uint8_t* directory = nullptr;  // subtree_count records
};

Result<VerifiedSnapshot> OpenAndVerify(const std::string& path) {
  VerifiedSnapshot snap;
  PARISAX_ASSIGN_OR_RETURN(snap.file, MmapFile::Open(path));
  const uint8_t* data = snap.file->data();
  const uint64_t size = snap.file->size();
  PARISAX_RETURN_IF_ERROR(DecodeHeader(data, size, path, &snap.info));
  if (snap.info.file_bytes != size) {
    return Status::Corruption("snapshot truncated or oversized: " + path +
                              " (header declares " +
                              std::to_string(snap.info.file_bytes) +
                              " bytes, file has " + std::to_string(size) +
                              ")");
  }
  const uint64_t body_begin = kSnapshotHeaderBytes;
  const uint64_t body_end = size - kTrailerBytes;  // size >= 68 by header
  const uint32_t stored_crc = LoadPod<uint32_t>(data + body_end);
  if (Crc32(data + body_begin, body_end - body_begin) != stored_crc) {
    return Status::Corruption("snapshot body checksum mismatch: " + path);
  }

  // Section bounds (every arithmetic step guarded against overflow).
  uint64_t offset = body_begin;
  if (snap.info.is_delta) {
    uint64_t link_bytes = 0;
    PARISAX_RETURN_IF_ERROR(ParseDeltaLink(data + offset, data + body_end,
                                           path, &snap.info, &link_bytes));
    offset += link_bytes;
  }
  if (snap.info.kind == SnapshotKind::kParis) {
    // Full snapshots store every flat-SAX row; deltas only the rows of
    // the series appended since the predecessor.
    snap.sax_rows = snap.info.series_count - snap.info.prev_series_count;
    if (snap.sax_rows > (body_end - offset) / sizeof(SaxSymbols)) {
      return Status::Corruption("snapshot SAX section out of bounds: " +
                                path);
    }
    snap.sax = data + offset;
    offset += snap.sax_rows * sizeof(SaxSymbols);
  }
  if (snap.info.subtree_count > (body_end - offset) / kDirRecordBytes) {
    return Status::Corruption("snapshot directory out of bounds: " + path);
  }
  snap.directory = data + offset;
  offset += snap.info.subtree_count * kDirRecordBytes;

  // Directory sanity: keys valid and strictly ascending (distinct keys
  // are what make the parallel restore race-free), blob ranges inside
  // the body.
  const uint64_t max_key = uint64_t{1} << snap.info.tree.segments;
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < snap.info.subtree_count; ++i) {
    const DirRecord r = LoadDirRecord(snap.directory + i * kDirRecordBytes);
    if (r.key >= max_key || (i > 0 && r.key <= prev_key)) {
      return Status::Corruption("snapshot directory keys invalid: " + path);
    }
    prev_key = r.key;
    if (r.topo_offset < offset || r.topo_offset > body_end ||
        r.topo_bytes > body_end - r.topo_offset) {
      return Status::Corruption("snapshot topology out of bounds: " + path);
    }
    if (r.payload_offset < offset || r.payload_offset > body_end ||
        r.entry_count > (body_end - r.payload_offset) / kEntryBytes) {
      return Status::Corruption("snapshot payload out of bounds: " + path);
    }
  }
  return snap;
}

Status ParseNode(Node* node, Cursor* cursor, const uint8_t* payload,
                 uint64_t payload_entries, int segments, uint64_t min_id,
                 uint64_t series_count, const std::string& path) {
  uint8_t tag;
  if (!cursor->Read(&tag)) {
    return Status::Corruption("snapshot topology truncated: " + path);
  }
  if (tag == kTagInner) {
    uint8_t segment;
    if (!cursor->Read(&segment)) {
      return Status::Corruption("snapshot topology truncated: " + path);
    }
    if (static_cast<int>(segment) >= segments) {
      return Status::Corruption("snapshot split segment out of range: " +
                                path);
    }
    if (node->word().bits[segment] >= kMaxCardBits) {
      return Status::Corruption(
          "snapshot split exceeds maximum cardinality: " + path);
    }
    node->MakeInner(segment);
    PARISAX_RETURN_IF_ERROR(ParseNode(node->child(0), cursor, payload,
                                      payload_entries, segments, min_id,
                                      series_count, path));
    return ParseNode(node->child(1), cursor, payload, payload_entries,
                     segments, min_id, series_count, path);
  }
  if (tag != kTagLeaf) {
    return Status::Corruption("snapshot topology has unknown node tag: " +
                              path);
  }
  uint64_t first, count;
  if (!cursor->Read(&first) || !cursor->Read(&count)) {
    return Status::Corruption("snapshot topology truncated: " + path);
  }
  if (first > payload_entries || count > payload_entries - first) {
    return Status::Corruption("snapshot leaf range out of bounds: " + path);
  }
  std::vector<LeafEntry>& entries = node->entries();
  entries.resize(count);
  const uint8_t* p = payload + first * kEntryBytes;
  for (uint64_t i = 0; i < count; ++i, p += kEntryBytes) {
    LeafEntry& e = entries[i];
    std::memcpy(e.sax.symbols, p, sizeof(e.sax.symbols));
    e.id = LoadPod<uint64_t>(p + sizeof(e.sax.symbols));
    // Deltas may only hold the ids of their own segment range: a stray
    // base id would corrupt the restored segment's id-range invariant
    // (ParIS resolves segment SAX rows by `id - segment.first`).
    if (e.id < min_id || e.id >= series_count) {
      return Status::Corruption("snapshot entry id out of range: " + path);
    }
    if (!WordContains(node->word(), e.sax, segments)) {
      return Status::Corruption(
          "snapshot entry does not belong to its leaf: " + path);
    }
  }
  return Status::OK();
}

Status RestoreTree(const VerifiedSnapshot& snap, SaxTree* tree,
                   Executor* exec) {
  const uint8_t* data = snap.file->data();
  const std::string& path = snap.file->path();
  const int segments = snap.info.tree.segments;

  Mutex error_mu{"error_mu", LockRank::kFirstError};
  Status first_error;
  WorkCounter counter(snap.info.subtree_count);
  exec->Run([&](int) {
    size_t i;
    while (counter.NextItem(&i)) {
      {
        MutexLock lock(&error_mu);
        if (!first_error.ok()) return;
      }
      const DirRecord r =
          LoadDirRecord(snap.directory + i * kDirRecordBytes);
      // Keys are validated distinct, so each worker owns its root.
      // Each file restores into its own fresh tree (the base's, or a
      // rehydrated segment's), so roots never collide across files.
      Node* root = tree->RecreateRoot(r.key);
      Cursor cursor{data + r.topo_offset, data + r.topo_offset +
                                              r.topo_bytes};
      Status st = ParseNode(root, &cursor, data + r.payload_offset,
                            r.entry_count, segments,
                            snap.info.prev_series_count,
                            snap.info.series_count, path);
      if (st.ok() && cursor.remaining() != 0) {
        st = Status::Corruption(
            "snapshot topology has trailing garbage: " + path);
      }
      if (!st.ok()) {
        MutexLock lock(&error_mu);
        if (first_error.ok()) first_error = st;
        return;
      }
    }
  });
  PARISAX_RETURN_IF_ERROR(first_error);
  tree->SealRoots();
  return Status::OK();
}

Status CheckSourceShape(const SnapshotInfo& info,
                        const RawSeriesSource& source) {
  if (source.count() != info.series_count ||
      source.length() != info.tree.series_length) {
    return Status::InvalidArgument(
        "raw source does not match the snapshot (snapshot indexes " +
        std::to_string(info.series_count) + " x " +
        std::to_string(info.tree.series_length) + ", source holds " +
        std::to_string(source.count()) + " x " +
        std::to_string(source.length()) + ")");
  }
  return Status::OK();
}

}  // namespace

/// Grants src/persist access to the private constructors and members of
/// the index classes; all restore logic funnels through here.
class SnapshotReader {
 public:
  /// Restores the chain into a serving snapshot: the base file becomes
  /// the base tree (and flat-SAX cache for ParIS), each delta a
  /// rehydrated immutable Segment — deltas are never replayed into the
  /// base, the serving-side merge covers them. Per-file entry counts
  /// are verified against the id ranges the chain links declare.
  static Status RestoreChain(const std::vector<SnapshotChainEntry>& chain,
                             Executor* exec, ServingState* state,
                             TreeStats* stats) {
    const SnapshotInfo& base_info = chain.front().info;
    const bool paris = base_info.kind == SnapshotKind::kParis;
    {
      VerifiedSnapshot snap;
      PARISAX_ASSIGN_OR_RETURN(snap, OpenAndVerify(chain.front().path));
      auto base = std::make_shared<SaxTree>(base_info.tree);
      PARISAX_RETURN_IF_ERROR(RestoreTree(snap, base.get(), exec));
      *stats = base->Collect();
      if (stats->total_entries != base_info.series_count) {
        return Status::Corruption("restored base tree lost entries: " +
                                  chain.front().path);
      }
      if (paris) {
        auto cache =
            std::make_shared<FlatSaxCache>(base_info.series_count);
        if (snap.sax_rows > 0) {
          std::memcpy(cache->MutableAt(0), snap.sax,
                      snap.sax_rows * sizeof(SaxSymbols));
        }
        state->cache = std::move(cache);
      }
      state->base = std::move(base);
      state->base_count = base_info.series_count;
    }
    for (size_t i = 1; i < chain.size(); ++i) {
      const SnapshotInfo& info = chain[i].info;
      VerifiedSnapshot snap;
      PARISAX_ASSIGN_OR_RETURN(snap, OpenAndVerify(chain[i].path));
      auto segment = std::make_shared<Segment>(info.tree);
      segment->first = info.prev_series_count;
      segment->count = info.series_count - info.prev_series_count;
      PARISAX_RETURN_IF_ERROR(
          RestoreTree(snap, &segment->tree, exec));
      const TreeStats segment_stats = segment->tree.Collect();
      if (segment_stats.total_entries != segment->count) {
        return Status::Corruption(
            "restored delta segment lost entries: " + chain[i].path);
      }
      if (paris) {
        // OpenAndVerify bounds the SAX section to exactly the segment's
        // rows (series_count - prev_series_count).
        segment->sax_rows.resize(segment->count);
        if (snap.sax_rows > 0) {
          std::memcpy(segment->sax_rows.data(), snap.sax,
                      snap.sax_rows * sizeof(SaxSymbols));
        }
      }
      stats->total_entries += segment_stats.total_entries;
      state->segments.push_back(std::move(segment));
    }
    state->count = chain.back().info.series_count;
    return Status::OK();
  }

  /// The one restore body behind LoadMessiIndex and LoadParisIndex.
  template <typename Index>
  static Result<std::unique_ptr<Index>> Load(
      const std::string& path, std::unique_ptr<RawSeriesSource> source,
      Executor* exec) {
    std::vector<SnapshotChainEntry> chain;
    PARISAX_ASSIGN_OR_RETURN(chain, ReadSnapshotChain(path));
    const SnapshotInfo& head = chain.back().info;
    auto index = std::unique_ptr<Index>(new Index(head.tree));
    SegmentedIndex* core = index.get();
    if (head.kind != SnapshotKindOf(*core)) {
      return Status::InvalidArgument(
          std::string("snapshot does not hold a ") +
          (core->flat_sax() ? "ParIS" : "MESSI") + " index: " + path);
    }
    PARISAX_RETURN_IF_ERROR(CheckSourceShape(head, *source));
    PARISAX_RETURN_IF_ERROR(core->AttachSource(std::move(source)));
    // Leaves were inlined at save time; a restored index never needs a
    // LeafStorage.
    auto state = std::make_shared<ServingState>();
    PARISAX_RETURN_IF_ERROR(
        RestoreChain(chain, exec, state.get(), &core->tree_stats_));
    core->PublishInitial(std::move(state));
    return index;
  }
};

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot file: " + path);
  }
  // Enough for the header plus, for deltas, the chain-link section.
  std::vector<uint8_t> buffer(kSnapshotHeaderBytes + kLinkFixedBytes +
                              kMaxLinkPathBytes);
  const size_t got = std::fread(buffer.data(), 1, buffer.size(), f);
  std::fclose(f);
  SnapshotInfo info;
  PARISAX_RETURN_IF_ERROR(DecodeHeader(buffer.data(), got, path, &info));
  if (info.is_delta) {
    uint64_t link_bytes = 0;
    PARISAX_RETURN_IF_ERROR(
        ParseDeltaLink(buffer.data() + kSnapshotHeaderBytes,
                       buffer.data() + got, path, &info, &link_bytes));
  }
  return info;
}

Result<std::vector<SnapshotChainEntry>> ReadSnapshotChain(
    const std::string& head_path) {
  std::vector<SnapshotChainEntry> reversed;  // head first
  std::string current = head_path;
  for (;;) {
    if (reversed.size() > kMaxSnapshotChain) {
      return Status::Corruption(
          "snapshot chain from " + head_path + " exceeds " +
          std::to_string(kMaxSnapshotChain) +
          " links (cycle or runaway chain)");
    }
    SnapshotInfo info;
    PARISAX_ASSIGN_OR_RETURN(info, ReadSnapshotInfo(current));
    reversed.push_back(SnapshotChainEntry{current, std::move(info)});
    const SnapshotInfo& tail = reversed.back().info;
    if (!tail.is_delta) break;
    // Resolve the back-reference: as recorded, else next to the file
    // that recorded it (relocated snapshot directories).
    std::string base = tail.base_path;
    std::FILE* probe = std::fopen(base.c_str(), "rb");
    if (probe == nullptr) {
      base = SiblingPath(current, tail.base_path);
    } else {
      std::fclose(probe);
    }
    current = std::move(base);
  }

  std::vector<SnapshotChainEntry> chain(reversed.rbegin(),
                                        reversed.rend());
  // Link integrity: every delta must extend exactly the file before it.
  for (size_t i = 1; i < chain.size(); ++i) {
    const SnapshotInfo& prev = chain[i - 1].info;
    const SnapshotInfo& cur = chain[i].info;
    if (cur.base_header_crc != prev.header_crc) {
      return Status::Corruption(
          "snapshot chain broken: " + chain[i].path +
          " back-references a different file than " + chain[i - 1].path +
          " (header CRC mismatch)");
    }
    if (cur.prev_series_count != prev.series_count ||
        cur.series_count < prev.series_count) {
      return Status::Corruption(
          "snapshot chain series counts do not line up: " +
          chain[i].path);
    }
    if (cur.kind != prev.kind ||
        cur.tree.segments != prev.tree.segments ||
        cur.tree.leaf_capacity != prev.tree.leaf_capacity ||
        cur.tree.series_length != prev.tree.series_length) {
      return Status::Corruption(
          "snapshot chain mixes incompatible indexes: " + chain[i].path);
    }
    if (cur.chain_depth != prev.chain_depth + 1) {
      return Status::Corruption(
          "snapshot chain depth does not line up: " + chain[i].path);
    }
  }
  if (chain.front().info.is_delta || chain.front().info.chain_depth != 0) {
    return Status::Corruption(
        "snapshot chain does not start at a full snapshot: " +
        chain.front().path);
  }
  return chain;
}

namespace {

Status ValidateDeltaOptions(const SnapshotDeltaSaveOptions& options,
                            uint64_t series_count) {
  if (options.base_path.empty()) {
    return Status::InvalidArgument(
        "delta snapshot requires a base_path to chain to");
  }
  if (options.base_path.size() > kMaxLinkPathBytes) {
    return Status::InvalidArgument("delta base_path too long");
  }
  if (options.prev_series_count > series_count) {
    return Status::InvalidArgument(
        "delta prev_series_count exceeds the index's series count");
  }
  if (options.chain_depth == 0 ||
      options.chain_depth > kMaxSnapshotChain) {
    return Status::InvalidArgument(
        "delta chain_depth must be in [1, " +
        std::to_string(kMaxSnapshotChain) + "]; Compact() the chain");
  }
  return Status::OK();
}

}  // namespace

Status SaveIndex(const SegmentedIndex& index, const std::string& path,
                 Executor* exec, const SnapshotSaveOptions& options) {
  // One coherent snapshot for the whole save (the Engine additionally
  // holds its append mutex, so nothing publishes meanwhile).
  const auto snap = index.serving();
  if (!snap->segments.empty()) {
    return Status::InvalidArgument(
        "full snapshot requires a fully folded index: fold the live "
        "segments first");
  }
  // Only the ParIS family has a flat SAX array; it saves every row.
  const FlatSaxCache* cache = snap->cache.get();
  const uint64_t sax_rows = cache != nullptr ? cache->count() : 0;
  return SaveSnapshot(SnapshotKindOf(index), options.algorithm, *snap->base,
                      sax_rows > 0 ? &cache->At(0) : nullptr, sax_rows,
                      index.leaf_storage(), snap->count,
                      snap->base->PresentRoots(), /*link=*/"", path, exec);
}

Status SaveSegmentDelta(SnapshotKind kind, const Segment& segment,
                        const std::string& path, Executor* exec,
                        const SnapshotDeltaSaveOptions& options) {
  const uint64_t series_count = segment.first + segment.count;
  PARISAX_RETURN_IF_ERROR(ValidateDeltaOptions(options, series_count));
  if (options.prev_series_count != segment.first) {
    return Status::InvalidArgument(
        "delta segment does not start at the predecessor's series "
        "count");
  }
  const bool paris = kind == SnapshotKind::kParis;
  if (paris && segment.sax_rows.size() != segment.count) {
    return Status::InvalidArgument(
        "ParIS delta segment is missing its flat-SAX rows");
  }
  return SaveSnapshot(kind, options.algorithm, segment.tree,
                      paris && segment.count > 0 ? segment.sax_rows.data()
                                                 : nullptr,
                      paris ? segment.count : 0, /*storage=*/nullptr,
                      series_count, segment.tree.PresentRoots(),
                      EncodeDeltaLink(options), path, exec);
}

Result<std::unique_ptr<MessiIndex>> LoadMessiIndex(
    const std::string& path, std::unique_ptr<RawSeriesSource> source,
    Executor* exec) {
  return SnapshotReader::Load<MessiIndex>(path, std::move(source), exec);
}

Result<std::unique_ptr<ParisIndex>> LoadParisIndex(
    const std::string& path, std::unique_ptr<RawSeriesSource> source,
    Executor* exec) {
  return SnapshotReader::Load<ParisIndex>(path, std::move(source), exec);
}

}  // namespace parisax
