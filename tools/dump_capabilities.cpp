// Emits docs/capabilities.md to stdout: the full Algorithm x residency
// capability matrix, straight from NarrowCapabilities — the same
// function Engine::capabilities() applies to a live engine. Because the
// doc is generated from the code (tools/gen_capability_docs.py runs
// this binary; CI diffs the committed file against its output), the
// table cannot drift from what the engines actually do.
#include <cstdio>
#include <string>

#include "core/engine.h"

namespace {

using parisax::Algorithm;
using parisax::AlgorithmName;
using parisax::EngineCapabilities;
using parisax::NarrowCapabilities;
using parisax::SourceResidency;
using parisax::SourceResidencyName;

constexpr Algorithm kAlgorithms[] = {Algorithm::kParis, Algorithm::kParisPlus,
                                     Algorithm::kMessi};

constexpr SourceResidency kResidencies[] = {
    SourceResidency::kOwnedMemory, SourceResidency::kBorrowedMemory,
    SourceResidency::kMmap, SourceResidency::kStreamedFile};

const char* YesNo(bool v) { return v ? "yes" : "no"; }

std::string MaxK(size_t max_k) {
  return max_k == SIZE_MAX ? "∞" : std::to_string(max_k);
}

}  // namespace

int main() {
  std::printf(
      "# Engine capabilities\n"
      "\n"
      "<!-- GENERATED FILE — DO NOT EDIT.\n"
      "     Produced by tools/gen_capability_docs.py running\n"
      "     tools/dump_capabilities.cpp, which prints\n"
      "     NarrowCapabilities(algorithm, residency) — the function\n"
      "     behind Engine::capabilities(). Regenerate with:\n"
      "       cmake --build build --target dump_capabilities\n"
      "       python3 tools/gen_capability_docs.py \\\n"
      "           --binary build/dump_capabilities --out "
      "docs/capabilities.md\n"
      "     CI fails when this file and the generator disagree. -->\n"
      "\n"
      "What an engine supports is a queryable value, not a doc comment:\n"
      "`Engine::capabilities()` returns the algorithm's row of one static\n"
      "table (`AlgorithmCapabilities`), narrowed by the residency of the\n"
      "source the engine was built over (`NarrowCapabilities`). Every\n"
      "`kNotSupported` the engine returns — query features, `Append`,\n"
      "build-residency mismatches — derives from this value,\n"
      "and `tests/engine_test.cpp` sweeps the matrix against observed\n"
      "behavior.\n"
      "\n"
      "Residencies: `in-memory` = `SourceSpec::InMemory` (adopted),\n"
      "`borrowed` = `SourceSpec::Borrowed` (caller-owned, cannot grow),\n"
      "`mmap` = `SourceSpec::Mmap` and restored snapshots\n"
      "(`Engine::Open`), `streamed` = `SourceSpec::File` behind a\n"
      "simulated device. A `buildable: no` row means `Engine::Build`\n"
      "itself rejects the combination (the algorithm cannot build from a\n"
      "non-addressable source); its capability cells are moot and shown\n"
      "as `—`.\n"
      "\n"
      "| algorithm | residency | buildable | max k | dtw | streamed build | "
      "append | background compaction |\n"
      "|-----------|-----------|-----------|-------|-----|----------------|"
      "--------|-----------------------|\n");

  for (const Algorithm a : kAlgorithms) {
    for (const SourceResidency r : kResidencies) {
      // The same rule Engine::Build rejects with, so this column
      // cannot drift either.
      if (!CanBuildOver(a, r)) {
        std::printf("| `%s` | %s | no | — | — | — | — | — |\n",
                    AlgorithmName(a), SourceResidencyName(r));
        continue;
      }
      const EngineCapabilities caps = NarrowCapabilities(a, r);
      std::printf("| `%s` | %s | yes | %s | %s | %s | %s | %s |\n",
                  AlgorithmName(a), SourceResidencyName(r),
                  MaxK(caps.max_k).c_str(), YesNo(caps.dtw),
                  YesNo(caps.streaming_build), YesNo(caps.append),
                  YesNo(caps.background_compaction));
    }
  }

  std::printf(
      "\n"
      "Notes:\n"
      "\n"
      "- `max k`: largest exact-kNN `k` (∞ = unbounded). k > 1 under DTW\n"
      "  is rejected with `kNotSupported` by every engine.\n"
      "- `dtw`: exact 1-NN under banded DTW, MESSI only.\n"
      "- Every engine answers approximate (leaf-probe) queries and\n"
      "  supports `Engine::Save`/`Open`/`Compact`, including append-only\n"
      "  delta chains (see [snapshot-format.md](snapshot-format.md)), so\n"
      "  neither has a column.\n"
      "- `append` is `Engine::Append` incremental ingest; it drops to\n"
      "  `no` over borrowed collections, which the engine cannot grow.\n"
      "- `background compaction`: the engine may run the segment\n"
      "  compactor thread that folds appended delta segments into the\n"
      "  base index off the serving path (see\n"
      "  [architecture.md](architecture.md)). Requires `append` and an\n"
      "  addressable source; `EngineOptions::background_compaction`\n"
      "  can still turn it off per engine, and ParIS+ engines with\n"
      "  on-disk leaf storage fall back to synchronous folding.\n"
      "- `SourceSpec::Custom` engines are narrowed at runtime from the\n"
      "  live source (`addressable()`, `appendable()`), not from this\n"
      "  table.\n");
  return 0;
}
