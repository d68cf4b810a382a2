// Figure 4: ParIS/ParIS+ on-disk index creation time, stacked into
// Read / Write / (visible) CPU, as the number of cores grows, with the
// serial ADS+ build as the reference bar.
//
// Paper claim: "ParIS+ completely removes the (visible) CPU cost when we
// use more than 6 cores" -- its creation time collapses onto the raw-data
// read time, while ParIS keeps visible stage-3 CPU bursts and ADS+ pays
// everything serially.
#include "bench_common.h"

#include "index/ads_index.h"
#include "paris/paris_index.h"

namespace parisax {
namespace bench {
namespace {

constexpr size_t kDefaultSeries = 60000;
constexpr size_t kQuickSeries = 4000;
constexpr size_t kLength = 256;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t length = args.length != 0 ? args.length : kLength;
  const std::vector<int> threads = ThreadsOrDefault(args, {1, 2, 4, 8});

  PrintFigureHeader("Fig. 4",
                    "ParIS/ParIS+ on-disk index creation (Read/Write/CPU "
                    "breakdown) vs cores; ADS+ serial reference");
  PrintHardwareNote();
  std::cout << "workload: " << series << " random-walk series x " << length
            << " points, simulated HDD ("
            << DiskProfile::Hdd().seq_read_mbps << " MB/s)\n";

  auto path = EnsureDatasetFile(DatasetKind::kRandomWalk, series, length,
                                args.seed);
  if (!path.ok()) {
    std::cerr << path.status().ToString() << "\n";
    return 1;
  }

  Table table({"algorithm", "threads", "total", "read", "visible_cpu",
               "write", "summarize_cpu", "tree_cpu"});

  SaxTreeOptions tree;
  // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
  tree.segments = 8;
  tree.leaf_capacity = 128;
  tree.series_length = length;

  // ADS+ reference: one serial pass, everything visible.
  double ads_total = 0.0;
  {
    AdsBuildOptions build;
    build.tree = tree;
    build.leaf_storage_path = BenchDataDir() + "/fig04_ads.leaves";
    build.leaf_write_mbps = DiskProfile::Hdd().seq_read_mbps;
    auto index = AdsIndex::Build(
        MustOpenFileSource(*path, DiskProfile::Instant(),
                           DiskProfile::Hdd()),
        build);
    if (!index.ok()) {
      std::cerr << index.status().ToString() << "\n";
      return 1;
    }
    const AdsBuildStats& s = (*index)->build_stats();
    ads_total = s.wall_seconds;
    table.AddRow({"ads+", "1", FmtSeconds(s.wall_seconds),
                  FmtSeconds(s.read_seconds), FmtSeconds(s.cpu_seconds),
                  FmtSeconds(s.write_seconds), FmtSeconds(s.cpu_seconds),
                  "-"});
  }

  double paris_best = 1e30, plus_best = 1e30, plus_best_read = 0.0;
  for (const bool plus : {false, true}) {
    for (const int t : threads) {
      ParisBuildOptions build;
      build.num_workers = t;
      build.plus_mode = plus;
      build.batch_series = 4096;
      build.batches_per_round = 4;
      build.tree = tree;
      build.leaf_storage_path =
          BenchDataDir() + "/fig04_" + (plus ? "plus" : "paris") +
          std::to_string(t) + ".leaves";
      build.leaf_write_mbps = DiskProfile::Hdd().seq_read_mbps;
      auto index = ParisIndex::Build(
          MustOpenFileSource(*path, DiskProfile::Instant(),
                             DiskProfile::Hdd()),
          build);
      if (!index.ok()) {
        std::cerr << index.status().ToString() << "\n";
        return 1;
      }
      const ParisBuildStats& s = (*index)->build_stats();
      table.AddRow({plus ? "paris+" : "paris", std::to_string(t),
                    FmtSeconds(s.wall_seconds),
                    FmtSeconds(s.read_wall_seconds),
                    FmtSeconds(s.stage3_wall_seconds),
                    FmtSeconds(s.final_flush_wall_seconds),
                    FmtSeconds(s.summarize_cpu_seconds),
                    FmtSeconds(s.tree_cpu_seconds)});
      if (plus && s.wall_seconds < plus_best) {
        plus_best = s.wall_seconds;
        plus_best_read = s.read_wall_seconds;
      }
      if (!plus) paris_best = std::min(paris_best, s.wall_seconds);
    }
  }
  table.Print();

  PrintPaperShape(
      "ParIS+ creation time collapses onto the raw read time (CPU fully "
      "masked at >=6 cores); ParIS keeps visible stage-3 CPU; ADS+ is "
      "slowest (fully serial)",
      "ParIS+ best total " + FmtSeconds(plus_best) + " vs its read " +
          FmtSeconds(plus_best_read) + " (overhead " +
          FmtRatio(plus_best / std::max(1e-9, plus_best_read)) +
          "); ParIS best " + FmtSeconds(paris_best) + "; ADS+ " +
          FmtSeconds(ads_total));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
