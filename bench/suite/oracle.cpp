#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common.h"
#include "dist/euclidean.h"
#include "index/raw_source.h"
#include "scan/ucr_scan.h"

namespace parisax::suite {

namespace {

bool Closer(const Neighbor& a, const Neighbor& b) {
  return a.distance_sq < b.distance_sq ||
         (a.distance_sq == b.distance_sq && a.id < b.id);
}

bool SameBytes(const std::vector<Neighbor>& a,
               const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance_sq, &b[i].distance_sq, sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

constexpr char kMagic[8] = {'P', 'S', 'X', 'O', 'R', 'C', '1', '\0'};

}  // namespace

std::vector<std::vector<Neighbor>> ComputeEdKnn(
    const Dataset& data, const Dataset& queries,
    const std::vector<uint32_t>& slots, size_t k, ThreadPool* pool) {
  const size_t count = data.count();
  const size_t length = data.length();
  const size_t nq = slots.size();
  // Per worker, per query: a max-heap (under Closer) of the k best.
  std::vector<std::vector<std::vector<Neighbor>>> heaps(
      pool->num_threads(), std::vector<std::vector<Neighbor>>(nq));
  // A block of series stays in L2 while every query streams past it.
  constexpr size_t kBlock = 256;
  WorkCounter blocks((count + kBlock - 1) / kBlock);
  pool->Run([&](int worker) {
    auto& mine = heaps[worker];
    size_t block = 0;
    while (blocks.NextItem(&block)) {
      const size_t begin = block * kBlock;
      const size_t end = std::min(count, begin + kBlock);
      for (size_t q = 0; q < nq; ++q) {
        const Value* query = queries.series(slots[q]).data();
        auto& heap = mine[q];
        for (size_t id = begin; id < end; ++id) {
          const Neighbor n{id, SquaredEuclidean(query, data.raw() + id * length,
                                                length)};
          if (heap.size() < k) {
            heap.push_back(n);
            std::push_heap(heap.begin(), heap.end(), Closer);
          } else if (Closer(n, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), Closer);
            heap.back() = n;
            std::push_heap(heap.begin(), heap.end(), Closer);
          }
        }
      }
    }
  });

  std::vector<std::vector<Neighbor>> out(nq);
  for (size_t q = 0; q < nq; ++q) {
    for (auto& per_worker : heaps) {
      out[q].insert(out[q].end(), per_worker[q].begin(), per_worker[q].end());
    }
    std::sort(out[q].begin(), out[q].end(), Closer);
    out[q].resize(std::min(k, out[q].size()));
  }

  // The batched scan must be BruteForceKnn, bit for bit.
  if (nq > 0) {
    const InMemorySource source(&data);
    for (const size_t q : {size_t{0}, nq - 1}) {
      if (!SameBytes(out[q], BruteForceKnn(source, queries.series(slots[q]),
                                           k))) {
        Fatal("oracle self-check: batched ED scan disagrees with "
              "BruteForceKnn on pool slot " +
              std::to_string(slots[q]));
      }
    }
  }
  return out;
}

bool LoadOracle(const std::string& path, const std::string& key,
                Oracle* oracle) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = true;
  const auto read = [&](void* dst, size_t n) {
    ok = ok && std::fread(dst, 1, n, f) == n;
  };
  char magic[8] = {};
  read(magic, sizeof(magic));
  ok = ok && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  uint64_t key_len = 0;
  read(&key_len, sizeof(key_len));
  ok = ok && key_len == key.size();
  std::string stored(ok ? key_len : 0, '\0');
  read(stored.data(), stored.size());
  ok = ok && stored == key;
  Oracle loaded;
  uint64_t slots = 0, base = 0;
  read(&slots, sizeof(slots));
  read(&base, sizeof(base));
  ok = ok && slots <= (1u << 20) && base <= slots;
  if (ok) {
    loaded.answers.resize(slots);
    loaded.base_nn.resize(base);
  }
  for (auto& answer : loaded.answers) {
    uint32_t n = 0;
    read(&n, sizeof(n));
    ok = ok && n <= 1024;
    if (!ok) break;
    answer.resize(n);
    read(answer.data(), n * sizeof(Neighbor));
  }
  if (ok) read(loaded.base_nn.data(), base * sizeof(Neighbor));
  std::fclose(f);
  if (ok) *oracle = std::move(loaded);
  return ok;
}

Status SaveOracle(const std::string& path, const std::string& key,
                  const Oracle& oracle) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot write " + tmp);
  bool ok = true;
  const auto write = [&](const void* src, size_t n) {
    ok = ok && std::fwrite(src, 1, n, f) == n;
  };
  write(kMagic, sizeof(kMagic));
  const uint64_t key_len = key.size();
  write(&key_len, sizeof(key_len));
  write(key.data(), key.size());
  const uint64_t slots = oracle.answers.size();
  const uint64_t base = oracle.base_nn.size();
  write(&slots, sizeof(slots));
  write(&base, sizeof(base));
  for (const auto& answer : oracle.answers) {
    const auto n = static_cast<uint32_t>(answer.size());
    write(&n, sizeof(n));
    write(answer.data(), n * sizeof(Neighbor));
  }
  write(oracle.base_nn.data(), base * sizeof(Neighbor));
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::IOError("cannot finish " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return ec ? Status::IOError("cannot rename " + tmp) : Status::OK();
}

}  // namespace parisax::suite
