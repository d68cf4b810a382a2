// Figure 8: ParIS+ exact query answering time vs cores, on HDD and SSD.
//
// Paper claims: "In both cases performance improves as we increase the
// number of cores, with the SSD being > 1 order of magnitude faster."
// The SSD advantage comes from cheap random access to candidate raw
// data, which the simulated device reproduces (60us/8-deep vs 8ms/1-deep
// random reads). reads/query counts real distances (the approximate
// leaf's and refinement's), disk_seeks/query the device's seeks.
#include "bench_common.h"

#include "paris/paris_index.h"
#include "util/threading.h"
#include "util/timer.h"

namespace parisax {
namespace bench {
namespace {

constexpr size_t kDefaultSeries = 60000;
constexpr size_t kQuickSeries = 4000;
constexpr size_t kLength = 256;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t queries_n = QueriesOrDefault(args, 5, 2);
  const size_t length = args.length != 0 ? args.length : kLength;
  const std::vector<int> threads = ThreadsOrDefault(args, {1, 2, 4, 8});

  PrintFigureHeader("Fig. 8",
                    "ParIS+ exact query answering vs cores, HDD vs SSD");
  PrintHardwareNote();
  std::cout << "workload: " << series << " random-walk series x " << length
            << ", " << queries_n << " queries\n";

  auto path = EnsureDatasetFile(DatasetKind::kRandomWalk, series, length,
                                args.seed);
  if (!path.ok()) {
    std::cerr << path.status().ToString() << "\n";
    return 1;
  }
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk,
                                          queries_n, length, args.seed);

  Table table({"storage", "threads", "mean_query", "candidates/query",
               "reads/query", "disk_seeks/query"});
  double hdd_best = 1e30, ssd_best = 1e30;
  for (const DiskProfile& profile :
       {DiskProfile::Hdd(), DiskProfile::Ssd()}) {
    // Build once per storage type (instant build profile: Fig. 8 measures
    // query answering, not creation).
    ParisBuildOptions build;
    build.num_workers = 4;
    build.plus_mode = true;
    build.batch_series = 4096;
    // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
    build.tree.segments = 8;
    build.tree.leaf_capacity = 128;
    build.tree.series_length = length;
    build.leaf_storage_path =
        BenchDataDir() + "/fig08_" + profile.name + ".leaves";
    auto source = MustOpenFileSource(*path, profile, DiskProfile::Instant());
    // The index takes the source; keep its query-time device to read
    // what refinement costs it.
    SimulatedDisk* const disk = source->disk();
    auto index = ParisIndex::Build(std::move(source), build);
    if (!index.ok()) {
      std::cerr << index.status().ToString() << "\n";
      return 1;
    }

    for (const int t : threads) {
      ThreadPool pool(t);
      ParisQueryOptions qopts;
      QueryStats stats;
      disk->ResetStats();
      WallTimer timer;
      for (SeriesId q = 0; q < queries.count(); ++q) {
        auto nn = (*index)->SearchExact(queries.series(q), qopts, &pool,
                                        &stats);
        if (!nn.ok()) {
          std::cerr << nn.status().ToString() << "\n";
          return 1;
        }
      }
      const double mean = timer.ElapsedSeconds() /
                          static_cast<double>(queries.count());
      const DiskStats io = disk->stats();
      table.AddRow({profile.name, std::to_string(t), FmtSeconds(mean),
                    FmtCount(stats.candidates / queries.count()),
                    FmtCount(stats.real_dist_calcs / queries.count()),
                    FmtCount(io.seeks / queries.count())});
      if (profile.name == "hdd") hdd_best = std::min(hdd_best, mean);
      if (profile.name == "ssd") ssd_best = std::min(ssd_best, mean);
    }
  }
  table.Print();

  PrintPaperShape(
      "query answering on SSD is >1 order of magnitude faster than on "
      "HDD (cheap random candidate reads); both improve with cores",
      "best HDD query " + FmtSeconds(hdd_best) + " vs best SSD " +
          FmtSeconds(ssd_best) + " => SSD " +
          FmtRatio(hdd_best / std::max(1e-9, ssd_best)) + " faster");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
