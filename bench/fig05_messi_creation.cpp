// Figure 5: MESSI in-memory index creation time as the number of cores
// grows, split into its two stages ("Calculate iSAX Representations" and
// "Tree Index Construction").
//
// Paper claim: "the index creation time of MESSI reduces linearly as the
// number of cores increases".
#include "bench_common.h"

#include "messi/messi_index.h"
#include "util/threading.h"

namespace parisax {
namespace bench {
namespace {

constexpr size_t kDefaultSeries = 100000;
constexpr size_t kQuickSeries = 8000;
constexpr size_t kLength = 256;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t length = args.length != 0 ? args.length : kLength;
  const std::vector<int> threads = ThreadsOrDefault(args, {1, 2, 4, 8});

  PrintFigureHeader("Fig. 5",
                    "MESSI in-memory index creation vs cores (stage "
                    "breakdown)");
  PrintHardwareNote();
  std::cout << "workload: " << series << " random-walk series x " << length
            << " points, in memory\n";

  const Dataset data =
      MakeDataset(DatasetKind::kRandomWalk, series, length, args.seed);

  Table table({"threads", "total", "isax_summaries", "tree_construction",
               "leaves", "nodes"});
  double first_total = 0.0, last_total = 0.0;
  for (const int t : threads) {
    ThreadPool pool(t);
    MessiBuildOptions build;
    build.num_workers = t;
    build.chunk_series = 4096;
    // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
    build.tree.segments = 8;
    build.tree.leaf_capacity = 128;
    build.tree.series_length = length;
    auto index = MessiIndex::Build(MemSource(data), build, &pool);
    if (!index.ok()) {
      std::cerr << index.status().ToString() << "\n";
      return 1;
    }
    const MessiBuildStats& s = (*index)->build_stats();
    table.AddRow({std::to_string(t), FmtSeconds(s.wall_seconds),
                  FmtSeconds(s.summarize_wall_seconds),
                  FmtSeconds(s.tree_wall_seconds),
                  FmtCount(s.tree.leaves),
                  FmtCount(s.tree.inner_nodes + s.tree.root_children)});
    if (t == threads.front()) first_total = s.wall_seconds;
    last_total = s.wall_seconds;
  }
  table.Print();

  PrintPaperShape(
      "MESSI creation time shrinks ~linearly with cores (Fig. 5 shows "
      "4->24 cores cutting the time ~5x)",
      "time at " + std::to_string(threads.front()) + " thread(s) " +
          FmtSeconds(first_total) + " -> at " +
          std::to_string(threads.back()) + " thread(s) " +
          FmtSeconds(last_total) +
          " (flat on this 1-core host, as expected)");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
