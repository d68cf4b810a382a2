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

/// Mean time per query of `search` over `queries`, or a negative value
/// after printing the first error.
template <typename Search>
double MeanQuerySeconds(const Dataset& queries, Search search) {
  WallTimer timer;
  for (SeriesId q = 0; q < queries.count(); ++q) {
    auto nn = search(queries.series(q));
    if (!nn.ok()) {
      std::cerr << nn.status().ToString() << "\n";
      return -1.0;
    }
  }
  return timer.ElapsedSeconds() / queries.count();
}

struct BestMeans {
  double ucr = 1e30, paris = 1e30, messi = 1e30;
};

/// Prints one table of mean query times per thread count, with ParIS and
/// MESSI built at `segments` PAA segments; `ucr` holds UCR-p's mean per
/// entry of `threads`. Returns false after printing an error.
bool PrintTable(int segments, const Dataset& data, const Dataset& queries,
                const std::vector<int>& threads,
                const std::vector<double>& ucr, BestMeans* best) {
  SaxTreeOptions tree;
  tree.segments = segments;
  tree.leaf_capacity = 128;
  tree.series_length = data.length();

  // Build ParIS once with 4 workers (creation is Figs. 5/7).
  ParisBuildOptions paris_build;
  paris_build.num_workers = 4;
  paris_build.plus_mode = false;
  paris_build.tree = tree;
  auto paris = ParisIndex::Build(MemSource(data), paris_build);
  if (!paris.ok()) {
    std::cerr << paris.status().ToString() << "\n";
    return false;
  }

  std::cout << "\nw = " << segments << ":\n";
  Table table({"threads", "ucr-p", "paris", "messi", "messi speedup vs "
               "ucr-p"});
  for (size_t i = 0; i < threads.size(); ++i) {
    const int t = threads[i];
    ThreadPool pool(t);

    MessiBuildOptions messi_build;
    messi_build.num_workers = t;
    messi_build.tree = tree;
    auto messi = MessiIndex::Build(MemSource(data), messi_build, &pool);
    if (!messi.ok()) {
      std::cerr << messi.status().ToString() << "\n";
      return false;
    }

    const auto paris_search = [&](SeriesView query) {
      return (*paris)->SearchExact(query, ParisQueryOptions{}, &pool);
    };
    const auto messi_search = [&](SeriesView query) {
      return (*messi)->SearchExact(query, MessiQueryOptions{}, &pool);
    };
    const double paris_mean = MeanQuerySeconds(queries, paris_search);
    const double messi_mean = MeanQuerySeconds(queries, messi_search);
    if (paris_mean < 0.0 || messi_mean < 0.0) return false;

    table.AddRow({std::to_string(t), FmtMillis(ucr[i]),
                  FmtMillis(paris_mean), FmtMillis(messi_mean),
                  FmtRatio(ucr[i] / std::max(1e-9, messi_mean))});
    best->ucr = std::min(best->ucr, ucr[i]);
    best->paris = std::min(best->paris, paris_mean);
    best->messi = std::min(best->messi, messi_mean);
  }
  table.Print();
  return true;
}

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

  // UCR-p reads only the raw series, so one timing per thread count
  // serves both tables.
  std::vector<double> ucr;
  for (const int t : threads) {
    ThreadPool pool(t);
    WallTimer ucr_timer;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      UcrScanParallel(InMemorySource(&data), queries.series(q), &pool);
    }
    ucr.push_back(ucr_timer.ElapsedSeconds() / queries.count());
  }

  // w = 8 stands in for the paper's w = 16 at this scale (README.md,
  // "Paper-to-repo parameters"). The w = 16 table runs the segment count
  // bench/suite and the server use, where root subtrees hold a series or
  // two and MESSI's Stage 3 handles many tiny leaves.
  BestMeans w8, w16;
  if (!PrintTable(8, data, queries, threads, ucr, &w8) ||
      !PrintTable(16, data, queries, threads, ucr, &w16)) {
    return 1;
  }

  PrintPaperShape(
      "MESSI < ParIS < UCR-p at every core count (tree pruning does the "
      "least work; the full scan does the most)",
      "best means at w = 8: MESSI " + FmtMillis(w8.messi) + ", ParIS " +
          FmtMillis(w8.paris) + ", UCR-p " + FmtMillis(w8.ucr) +
          "; at w = 16: MESSI " + FmtMillis(w16.messi) + ", ParIS " +
          FmtMillis(w16.paris));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::bench::Run(parisax::bench::ParseArgs(argc, argv));
}
