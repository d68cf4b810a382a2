// Ablation D1 (paper footnote 2): MESSI's per-thread iSAX buffer parts
// vs the rejected lock-per-buffer alternative.
//
// Paper: "We also tried an alternative technique: each buffer was
// protected by a lock and many threads were accessing each buffer.
// However, this resulted in worse performance due to contention in
// accessing the iSAX buffers."  True contention needs real cores; this
// bench still isolates the locking overhead on the Stage-1 hot path.
#include "bench_common.h"

#include "messi/messi_index.h"
#include "util/threading.h"

namespace parisax {
namespace bench {
namespace {

constexpr size_t kDefaultSeries = 150000;
constexpr size_t kQuickSeries = 10000;
constexpr size_t kLength = 256;

int Run(const BenchArgs& args) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t length = args.length != 0 ? args.length : kLength;
  const std::vector<int> threads = ThreadsOrDefault(args, {2, 4, 8});

  PrintFigureHeader("Ablation D1",
                    "MESSI iSAX buffers: per-thread parts vs one lock per "
                    "buffer (footnote 2)");
  PrintHardwareNote();
  std::cout << "workload: " << series << " random-walk series x " << length
            << "\n";

  const Dataset data =
      MakeDataset(DatasetKind::kRandomWalk, series, length, args.seed);

  Table table({"threads", "partitioned_total", "partitioned_stage1",
               "locked_total", "locked_stage1", "locked/partitioned"});
  double sum_ratio = 0.0;
  for (const int t : threads) {
    double totals[2], stage1[2];
    for (const bool locked : {false, true}) {
      ThreadPool pool(t);
      MessiBuildOptions build;
      build.num_workers = t;
      build.locked_buffers = locked;
      // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
      build.tree.segments = 8;
      build.tree.leaf_capacity = 128;
      build.tree.series_length = length;
      auto index = MessiIndex::Build(MemSource(data), build, &pool);
      if (!index.ok()) {
        std::cerr << index.status().ToString() << "\n";
        return 1;
      }
      totals[locked] = (*index)->build_stats().wall_seconds;
      stage1[locked] = (*index)->build_stats().summarize_wall_seconds;
    }
    const double ratio = totals[1] / std::max(1e-9, totals[0]);
    sum_ratio += ratio;
    table.AddRow({std::to_string(t), FmtSeconds(totals[0]),
                  FmtSeconds(stage1[0]), FmtSeconds(totals[1]),
                  FmtSeconds(stage1[1]), FmtRatio(ratio)});
  }
  table.Print();

  PrintPaperShape(
      "locked buffers are slower than per-thread buffer parts (the paper "
      "rejected them for contention; on one core the remaining gap is "
      "lock/unlock overhead)",
      "mean locked/partitioned build-time ratio " +
          FmtRatio(sum_ratio / threads.size()));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
