#include "bench/query_datasets_common.h"

#include <iomanip>
#include <sstream>

#include "index/ads_index.h"
#include "paris/paris_index.h"
#include "scan/ucr_scan.h"
#include "util/threading.h"
#include "util/timer.h"

namespace parisax {
namespace bench {

namespace {
constexpr size_t kDefaultSeries = 80000;
constexpr size_t kQuickSeries = 3000;
}  // namespace

int RunQueryDatasets(const BenchArgs& args, const DiskProfile& profile,
                     const std::string& figure_id,
                     const std::string& paper_claim) {
  const size_t series = SeriesOrDefault(args, kDefaultSeries, kQuickSeries);
  const size_t queries_n = QueriesOrDefault(args, 3, 1);
  const int workers = args.threads.empty() ? 4 : args.threads.back();

  PrintFigureHeader(figure_id,
                    "Exact query answering across datasets on " +
                        profile.name + ": UCR Suite vs ADS+ vs ParIS+");
  PrintHardwareNote();
  std::cout << "workload: " << series << " series per dataset, "
            << queries_n << " queries each\n";

  Table table({"dataset", "ucr", "ads+", "paris+", "paris+/ads+",
               "paris+/ucr", "pruned%"});
  std::string ads_summary, ucr_summary;
  for (const DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kSaldEeg,
        DatasetKind::kSeismicBurst}) {
    const size_t length = DefaultSeriesLength(kind);
    auto path = EnsureDatasetFile(kind, series, length, args.seed);
    if (!path.ok()) {
      std::cerr << path.status().ToString() << "\n";
      return 1;
    }
    const Dataset queries =
        MakeQueryWorkload(kind, queries_n, length, args.seed, series);

    // UCR Suite: streams the raw file for every query.
    double ucr_mean = 0.0;
    {
      const auto ucr_source =
          MustOpenFileSource(*path, profile, profile);
      WallTimer timer;
      for (SeriesId q = 0; q < queries.count(); ++q) {
        auto nn = UcrScanStream(*ucr_source, queries.series(q), 4096);
        if (!nn.ok()) {
          std::cerr << nn.status().ToString() << "\n";
          return 1;
        }
      }
      ucr_mean = timer.ElapsedSeconds() / queries.count();
    }

    SaxTreeOptions tree;
    // stands in for the paper's w = 16 at this scale (README.md, Benchmarks)
    tree.segments = 8;
    tree.leaf_capacity = 128;
    tree.series_length = length;

    // ADS+: serial SIMS over the same storage profile.
    double ads_mean = 0.0;
    QueryStats ads_stats;
    {
      AdsBuildOptions build;
      build.tree = tree;
      build.leaf_storage_path = BenchDataDir() + "/figq_ads.leaves";
      auto index = AdsIndex::Build(
          MustOpenFileSource(*path, profile, DiskProfile::Instant()),
          build);
      if (!index.ok()) {
        std::cerr << index.status().ToString() << "\n";
        return 1;
      }
      WallTimer timer;
      for (SeriesId q = 0; q < queries.count(); ++q) {
        auto nn = (*index)->SearchExact(queries.series(q), {}, &ads_stats);
        if (!nn.ok()) {
          std::cerr << nn.status().ToString() << "\n";
          return 1;
        }
      }
      ads_mean = timer.ElapsedSeconds() / queries.count();
    }

    // ParIS+: parallel filter + parallel candidate refinement.
    double paris_mean = 0.0;
    {
      ParisBuildOptions build;
      build.num_workers = workers;
      build.plus_mode = true;
      build.tree = tree;
      build.leaf_storage_path = BenchDataDir() + "/figq_paris.leaves";
      auto index = ParisIndex::Build(
          MustOpenFileSource(*path, profile, DiskProfile::Instant()),
          build);
      if (!index.ok()) {
        std::cerr << index.status().ToString() << "\n";
        return 1;
      }
      ThreadPool pool(workers);
      ParisQueryOptions qopts;
      WallTimer timer;
      for (SeriesId q = 0; q < queries.count(); ++q) {
        auto nn = (*index)->SearchExact(queries.series(q), qopts, &pool);
        if (!nn.ok()) {
          std::cerr << nn.status().ToString() << "\n";
          return 1;
        }
      }
      paris_mean = timer.ElapsedSeconds() / queries.count();
    }

    const double pruned =
        100.0 * (1.0 - static_cast<double>(ads_stats.candidates) /
                           std::max<double>(1.0, ads_stats.lb_checks));
    std::ostringstream pruned_str;
    pruned_str << std::fixed << std::setprecision(1) << pruned << "%";
    table.AddRow({DatasetKindName(kind), FmtSeconds(ucr_mean),
                  FmtSeconds(ads_mean), FmtSeconds(paris_mean),
                  FmtRatio(ads_mean / std::max(1e-9, paris_mean)),
                  FmtRatio(ucr_mean / std::max(1e-9, paris_mean)),
                  pruned_str.str()});
    ads_summary += std::string(DatasetKindName(kind)) + " " +
                   FmtRatio(ads_mean / std::max(1e-9, paris_mean)) + "  ";
    ucr_summary += std::string(DatasetKindName(kind)) + " " +
                   FmtRatio(ucr_mean / std::max(1e-9, paris_mean)) + "  ";
  }
  table.Print();

  PrintPaperShape(paper_claim,
                  "ParIS+ speedup vs ADS+: " + ads_summary +
                      "| vs UCR Suite: " + ucr_summary);
  return 0;
}

}  // namespace bench
}  // namespace parisax
