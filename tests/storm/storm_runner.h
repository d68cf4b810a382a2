// Executes a StormPlan against a live engine and checks every outcome
// against the WorkloadModel oracle.
//
// One driver thread walks the plan in order: query ops are dispatched
// to a pool of actor threads (so queries genuinely race the mutations),
// while appends, saves, compactions and wire chaos run inline on the
// driver; reopen/rebuild ops quiesce the actors, swap the engine, and
// resume. Every completed query must match the brute-force oracle at
// some batch-boundary prefix its execution window allows; every typed
// rejection must be exactly the Status CheckRequestAgainstCapabilities
// predicts from the live capabilities() value.
#ifndef PARISAX_TESTS_STORM_STORM_RUNNER_H_
#define PARISAX_TESTS_STORM_STORM_RUNNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "storm/storm_plan.h"
#include "util/status.h"

namespace parisax {
namespace storm {

struct StormFailure {
  size_t op_index = 0;
  std::string description;
};

struct StormStats {
  size_t queries_checked = 0;      ///< completed queries matched exactly
  size_t rejections_predicted = 0; ///< typed rejections matching the oracle
  size_t deadlines_expired = 0;    ///< legal kDeadlineExceeded outcomes
  size_t overloaded = 0;           ///< legal kOverloaded admission rejections
  size_t appends = 0;
  size_t saves = 0;
  size_t compacts = 0;
  size_t reopens = 0;
  size_t rebuilds = 0;
  size_t failed_rebuilds = 0;      ///< injected build failures, as expected
  size_t wire_garbage = 0;
  size_t wire_health = 0;
};

struct StormReport {
  bool passed = false;
  /// First kMaxRecordedFailures mismatches, in discovery order.
  std::vector<StormFailure> failures;
  /// Total mismatches (may exceed failures.size()).
  size_t failure_count = 0;
  StormStats stats;
  size_t final_count = 0;  ///< model collection size after the run
};

/// Executes the plan. A non-OK Status means the harness itself could
/// not run (initial build or server start failed) — behavioral
/// mismatches never fail the call, they land in report.failures.
Result<StormReport> RunStorm(const StormPlan& plan);

/// Multi-line human summary: stats, then each recorded failure.
std::string FormatReport(const StormPlan& plan, const StormReport& report);

}  // namespace storm
}  // namespace parisax

#endif  // PARISAX_TESTS_STORM_STORM_RUNNER_H_
