// Figure 9: in-memory exact query answering vs cores -- UCR Suite-p vs
// (in-memory) ParIS vs MESSI (log-scale y in the paper).
//
// Paper claim: "MESSI significantly outperforms ParIS and (an in-memory,
// parallel implementation of) UCR Suite" at every core count.
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
constexpr size_t kLength = 256;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t queries_n = QueriesOrDefault(args, 20, 5);
  const size_t length = args.length != 0 ? args.length : kLength;
  const std::vector<int> threads = ThreadsOrDefault(args, {1, 2, 4, 8});

  PrintFigureHeader("Fig. 9",
                    "In-memory exact query answering vs cores: UCR-p vs "
                    "ParIS vs MESSI");
  PrintHardwareNote();
  std::cout << "workload: " << series << " random-walk series x " << length
            << ", " << queries_n << " queries\n";

  const Dataset data =
      MakeDataset(DatasetKind::kRandomWalk, series, length, args.seed);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk,
                                          queries_n, length, args.seed);

  SaxTreeOptions tree;
  // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
  tree.segments = 8;
  tree.leaf_capacity = 128;
  tree.series_length = length;

  // Build the two indexes once with 4 workers (creation is Figs. 5/7).
  ParisBuildOptions paris_build;
  paris_build.num_workers = 4;
  paris_build.plus_mode = false;
  paris_build.tree = tree;
  auto paris = ParisIndex::Build(MemSource(data), paris_build);
  if (!paris.ok()) {
    std::cerr << paris.status().ToString() << "\n";
    return 1;
  }

  double messi_best = 1e30, paris_best = 1e30, ucr_best = 1e30;
  Table table({"threads", "ucr-p", "paris", "messi", "messi speedup vs "
               "ucr-p"});
  for (const int t : threads) {
    ThreadPool pool(t);

    MessiBuildOptions messi_build;
    messi_build.num_workers = t;
    messi_build.tree = tree;
    auto messi = MessiIndex::Build(MemSource(data), messi_build, &pool);
    if (!messi.ok()) {
      std::cerr << messi.status().ToString() << "\n";
      return 1;
    }

    WallTimer ucr_timer;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      UcrScanParallel(InMemorySource(&data), queries.series(q), &pool);
    }
    const double ucr = ucr_timer.ElapsedSeconds() / queries.count();

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

    MessiQueryOptions messi_qopts;
    messi_qopts.num_workers = t;
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

    table.AddRow({std::to_string(t), FmtMillis(ucr), FmtMillis(paris_mean),
                  FmtMillis(messi_mean),
                  FmtRatio(ucr / std::max(1e-9, messi_mean))});
    ucr_best = std::min(ucr_best, ucr);
    paris_best = std::min(paris_best, paris_mean);
    messi_best = std::min(messi_best, messi_mean);
  }
  table.Print();

  PrintPaperShape(
      "MESSI < ParIS < UCR-p at every core count (tree pruning does the "
      "least work; the full scan does the most)",
      "best means: MESSI " + FmtMillis(messi_best) + ", ParIS " +
          FmtMillis(paris_best) + ", UCR-p " + FmtMillis(ucr_best));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
