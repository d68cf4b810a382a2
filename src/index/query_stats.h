// Counters describing the work one exact-search query performed. These
// feed the pruning counts the figure drivers and bench/suite's traced
// runs report, and let tests assert behavioural properties (e.g. "MESSI
// performs fewer real distance calculations than ParIS", Section IV of
// the paper).
#ifndef PARISAX_INDEX_QUERY_STATS_H_
#define PARISAX_INDEX_QUERY_STATS_H_

#include <cstdint>

namespace parisax {

struct QueryStats {
  /// Lower-bound (mindist) evaluations against summaries.
  uint64_t lb_checks = 0;
  /// Series that survived lower-bound filtering.
  uint64_t candidates = 0;
  /// Full (possibly early-abandoned) real distance computations.
  uint64_t real_dist_calcs = 0;
  /// Tree nodes visited (tree-based strategies).
  uint64_t nodes_visited = 0;
  /// Leaves inspected or popped from priority queues.
  uint64_t leaves_inspected = 0;
  /// Priority queues abandoned because their minimum exceeded the BSF.
  uint64_t queue_abandons = 0;

  double total_seconds = 0.0;
  double approx_phase_seconds = 0.0;
  double filter_phase_seconds = 0.0;
  double refine_phase_seconds = 0.0;

  void MergeCounters(const QueryStats& other) {
    lb_checks += other.lb_checks;
    candidates += other.candidates;
    real_dist_calcs += other.real_dist_calcs;
    nodes_visited += other.nodes_visited;
    leaves_inspected += other.leaves_inspected;
    queue_abandons += other.queue_abandons;
  }
};

}  // namespace parisax

#endif  // PARISAX_INDEX_QUERY_STATS_H_
