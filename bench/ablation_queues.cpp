// Ablation D2: the number of shared priority queues in MESSI's query
// answering. Few queues maximize the precision of the best-first order
// (better pruning) but concentrate lock contention; many queues spread
// contention but weaken the global ordering. The paper uses a queue
// count tied to the worker count.
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
  const size_t queries_n = QueriesOrDefault(args, 20, 5);
  const size_t length = args.length != 0 ? args.length : kLength;
  const int workers = args.threads.empty() ? 4 : args.threads.back();

  PrintFigureHeader("Ablation D2",
                    "MESSI: number of shared priority queues");
  std::cout << "workload: " << series << " random-walk series x " << length
            << ", " << queries_n << " queries, " << workers
            << " workers\n";

  const Dataset data =
      MakeDataset(DatasetKind::kRandomWalk, series, length, args.seed);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk,
                                          queries_n, length, args.seed);

  ThreadPool pool(workers);
  MessiBuildOptions build;
  build.num_workers = workers;
  // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
  build.tree.segments = 8;
  build.tree.leaf_capacity = 128;
  build.tree.series_length = length;
  auto index = MessiIndex::Build(MemSource(data), build, &pool);
  if (!index.ok()) {
    std::cerr << index.status().ToString() << "\n";
    return 1;
  }

  Table table({"queues", "mean_query", "real_dists/query",
               "lb_checks/query", "abandons/query"});
  for (const int queues : {1, 2, 4, 8, 16}) {
    MessiQueryOptions qopts;
    qopts.num_workers = workers;
    qopts.num_queues = queues;
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
    table.AddRow({std::to_string(queues), FmtMillis(mean),
                  FmtCount(stats.real_dist_calcs / queries.count()),
                  FmtCount(stats.lb_checks / queries.count()),
                  FmtCount(stats.queue_abandons / queries.count())});
  }
  table.Print();

  PrintPaperShape(
      "queue count trades best-first precision against queue contention; "
      "pruning work (real distances) grows as the global order degrades "
      "with more queues",
      "see real_dists/query trend in the table above");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
