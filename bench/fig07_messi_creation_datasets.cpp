// Figure 7: in-memory index creation across datasets: MESSI vs an
// in-memory ParIS (and ParIS+, which the paper discusses: it is *slower*
// than ParIS in memory because it re-traverses root subtrees per batch
// with no disk I/O left to overlap).
//
// Paper claims: "MESSI performs 3.6x faster than an in-memory
// implementation of ParIS [Synthetic] ... 3.6x on SALD, 3.7x on Seismic"
// and "ParIS is faster than ParIS+ for in-memory index creation".
#include "bench_common.h"

#include "messi/messi_index.h"
#include "paris/paris_index.h"
#include "util/threading.h"

namespace parisax {
namespace bench {
namespace {

constexpr size_t kDefaultSeries = 100000;
constexpr size_t kQuickSeries = 8000;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const int workers = args.threads.empty() ? 4 : args.threads.back();

  PrintFigureHeader("Fig. 7",
                    "In-memory index creation across datasets: ParIS vs "
                    "ParIS+ vs MESSI");
  PrintHardwareNote();

  Table table({"dataset", "paris", "paris+", "messi", "paris/messi",
               "paper paris/messi"});
  std::string summary, plus_summary;
  for (const DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kSaldEeg,
        DatasetKind::kSeismicBurst}) {
    const size_t length = DefaultSeriesLength(kind);
    const Dataset data = MakeDataset(kind, series, length, args.seed);

    SaxTreeOptions tree;
    // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
    tree.segments = 8;
    tree.leaf_capacity = 128;
    tree.series_length = length;

    double paris_time[2] = {0.0, 0.0};
    for (const bool plus : {false, true}) {
      ParisBuildOptions build;
      build.num_workers = workers;
      build.plus_mode = plus;
      build.batch_series = 4096;
      build.batches_per_round = 4;
      build.tree = tree;
      auto index = ParisIndex::Build(MemSource(data), build);
      if (!index.ok()) {
        std::cerr << index.status().ToString() << "\n";
        return 1;
      }
      paris_time[plus ? 1 : 0] = (*index)->build_stats().wall_seconds;
    }

    double messi_time = 0.0;
    {
      ThreadPool pool(workers);
      MessiBuildOptions build;
      build.num_workers = workers;
      build.chunk_series = 4096;
      build.tree = tree;
      auto index = MessiIndex::Build(MemSource(data), build, &pool);
      if (!index.ok()) {
        std::cerr << index.status().ToString() << "\n";
        return 1;
      }
      messi_time = (*index)->build_stats().wall_seconds;
    }

    const double ratio = paris_time[0] / std::max(1e-9, messi_time);
    const char* paper = kind == DatasetKind::kSeismicBurst ? "3.7x" : "3.6x";
    table.AddRow({DatasetKindName(kind), FmtSeconds(paris_time[0]),
                  FmtSeconds(paris_time[1]), FmtSeconds(messi_time),
                  FmtRatio(ratio), paper});
    summary += std::string(DatasetKindName(kind)) + " " + FmtRatio(ratio) +
               "  ";
    plus_summary += std::string(DatasetKindName(kind)) + " " +
                    FmtRatio(paris_time[1] /
                             std::max(1e-9, paris_time[0])) + "  ";
  }
  table.Print();

  PrintPaperShape(
      "MESSI builds 3.6x-3.7x faster than in-memory ParIS (no RecBuf "
      "locks, no coordinator); most of that gap needs real cores",
      "ParIS/MESSI creation ratio: " + summary);
  PrintPaperShape(
      "ParIS is faster than ParIS+ in memory (ParIS+ re-traverses root "
      "subtrees every batch with no I/O to overlap)",
      "ParIS+/ParIS creation ratio (>1 confirms): " + plus_summary);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
