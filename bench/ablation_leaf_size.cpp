// Ablation D3: leaf capacity. Small leaves give finer pruning granularity
// (fewer raw-series distance computations) but a bigger tree (more nodes
// to traverse and split during the build); big leaves flip the trade.
#include "bench_common.h"

#include "messi/messi_index.h"
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
  const size_t queries_n = QueriesOrDefault(args, 15, 4);
  const size_t length = args.length != 0 ? args.length : kLength;
  const int workers = args.threads.empty() ? 4 : args.threads.back();

  PrintFigureHeader("Ablation D3", "Leaf capacity sweep (MESSI)");
  std::cout << "workload: " << series << " random-walk series x " << length
            << ", " << queries_n << " queries, " << workers
            << " workers\n";

  const Dataset data =
      MakeDataset(DatasetKind::kRandomWalk, series, length, args.seed);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk,
                                          queries_n, length, args.seed);

  ThreadPool pool(workers);
  Table table({"leaf_capacity", "build", "leaves", "mean_query",
               "real_dists/query", "lb_checks/query"});
  for (const size_t capacity : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    MessiBuildOptions build;
    build.num_workers = workers;
    // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
    build.tree.segments = 8;
    build.tree.leaf_capacity = capacity;
    build.tree.series_length = length;
    auto index = MessiIndex::Build(MemSource(data), build, &pool);
    if (!index.ok()) {
      std::cerr << index.status().ToString() << "\n";
      return 1;
    }

    MessiQueryOptions qopts;
    qopts.num_workers = workers;
    QueryStats stats;
    WallTimer timer;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      auto nn = (*index)->SearchExact(queries.series(q), qopts, &pool,
                                      &stats);
      if (!nn.ok()) {
        std::cerr << nn.status().ToString() << "\n";
        return 1;
      }
    }
    const double mean = timer.ElapsedSeconds() / queries.count();
    table.AddRow({std::to_string(capacity),
                  FmtSeconds((*index)->build_stats().wall_seconds),
                  FmtCount((*index)->build_stats().tree.leaves),
                  FmtMillis(mean),
                  FmtCount(stats.real_dist_calcs / queries.count()),
                  FmtCount(stats.lb_checks / queries.count())});
  }
  table.Print();

  PrintPaperShape(
      "leaf capacity trades pruning granularity (small leaves: fewer "
      "real distances) against tree size (big leaves: cheaper build, "
      "fewer nodes); the papers settle near 2000 at 100M-series scale",
      "see build time vs real_dists/query trade in the table above");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
