// Figure 12: in-memory exact query answering across datasets -- UCR
// Suite-p vs (in-memory) ParIS vs MESSI.
//
// Paper claims: "MESSI is 55x faster than UCR Suite[-p] and 6.4x faster
// than ParIS [Synthetic]; 60x/8.4x on SALD; 80x/~11x on Seismic", driven
// by tree pruning during lower-bound computation plus the priority
// queues' ordering, which also cut real distance calculations.
#include "bench_common.h"

#include "messi/messi_index.h"
#include "paris/paris_index.h"
#include "scan/ucr_scan.h"
#include "util/threading.h"
#include "util/timer.h"

namespace parisax {
namespace bench {
namespace {

constexpr size_t kDefaultSeries = 100000;
constexpr size_t kQuickSeries = 8000;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t queries_n = QueriesOrDefault(args, 15, 4);
  const int workers = args.threads.empty() ? 4 : args.threads.back();

  PrintFigureHeader("Fig. 12",
                    "In-memory exact query answering across datasets: "
                    "UCR-p vs ParIS vs MESSI");
  PrintHardwareNote();
  std::cout << "workload: " << series << " series per dataset, "
            << queries_n << " queries each, " << workers << " workers\n";

  Table table({"dataset", "ucr-p", "paris", "messi", "messi vs ucr-p",
               "messi vs paris", "paper"});
  std::string summary;
  const struct {
    DatasetKind kind;
    const char* paper;
  } rows[] = {
      {DatasetKind::kRandomWalk, "55x / 6.4x"},
      {DatasetKind::kSaldEeg, "60x / 8.4x"},
      {DatasetKind::kSeismicBurst, "80x / 11x"},
  };
  for (const auto& row : rows) {
    const size_t length = DefaultSeriesLength(row.kind);
    const Dataset data = MakeDataset(row.kind, series, length, args.seed);
    const Dataset queries = MakeQueryWorkload(row.kind, queries_n, length,
                                              args.seed, series);

    SaxTreeOptions tree;
    // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
    tree.segments = 8;
    tree.leaf_capacity = 128;
    tree.series_length = length;

    ThreadPool pool(workers);

    WallTimer ucr_timer;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      UcrScanParallel(InMemorySource(&data), queries.series(q), &pool);
    }
    const double ucr = ucr_timer.ElapsedSeconds() / queries.count();

    ParisBuildOptions paris_build;
    paris_build.num_workers = workers;
    paris_build.tree = tree;
    auto paris = ParisIndex::Build(MemSource(data), paris_build);
    if (!paris.ok()) {
      std::cerr << paris.status().ToString() << "\n";
      return 1;
    }
    ParisQueryOptions paris_qopts;
    WallTimer paris_timer;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      auto nn = (*paris)->SearchExact(queries.series(q), paris_qopts,
                                      &pool);
      if (!nn.ok()) {
        std::cerr << nn.status().ToString() << "\n";
        return 1;
      }
    }
    const double paris_mean = paris_timer.ElapsedSeconds() /
                              queries.count();

    MessiBuildOptions messi_build;
    messi_build.num_workers = workers;
    messi_build.tree = tree;
    auto messi = MessiIndex::Build(MemSource(data), messi_build, &pool);
    if (!messi.ok()) {
      std::cerr << messi.status().ToString() << "\n";
      return 1;
    }
    MessiQueryOptions messi_qopts;
    messi_qopts.num_workers = workers;
    WallTimer messi_timer;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      auto nn = (*messi)->SearchExact(queries.series(q), messi_qopts,
                                      &pool);
      if (!nn.ok()) {
        std::cerr << nn.status().ToString() << "\n";
        return 1;
      }
    }
    const double messi_mean = messi_timer.ElapsedSeconds() /
                              queries.count();

    table.AddRow({DatasetKindName(row.kind), FmtMillis(ucr),
                  FmtMillis(paris_mean), FmtMillis(messi_mean),
                  FmtRatio(ucr / std::max(1e-9, messi_mean)),
                  FmtRatio(paris_mean / std::max(1e-9, messi_mean)),
                  row.paper});
    summary += std::string(DatasetKindName(row.kind)) + " " +
               FmtRatio(ucr / std::max(1e-9, messi_mean)) + "/" +
               FmtRatio(paris_mean / std::max(1e-9, messi_mean)) + "  ";
  }
  table.Print();

  PrintPaperShape(
      "MESSI beats UCR-p by 55x-80x and ParIS by 6.4x-11x across "
      "datasets; real data prunes worse than random walks, so UCR "
      "ratios grow on SALD/Seismic",
      "MESSI speedup vs ucr-p/paris: " + summary);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
