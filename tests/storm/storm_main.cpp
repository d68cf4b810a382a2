// storm_test: the randomized workload-storm harness CLI.
//
//   storm_test --seed=7 --profile=chaos          one storm, one seed
//   storm_test --profile=query-heavy --seeds=1..20   a CI seed sweep
//   storm_test --seed=7 --profile=chaos --dump-plan  print, don't run
//   storm_test --seed=7 --profile=chaos --shrink     minimize a failure
//
// Every failure prints a one-line repro command. See docs/testing.md.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "storm/storm_plan.h"
#include "storm/storm_runner.h"

namespace parisax {
namespace storm {
namespace {

struct CliOptions {
  uint64_t seed_lo = 1;
  uint64_t seed_hi = 1;
  std::string profile = "query-heavy";
  StormOverrides overrides;
  bool dump_plan = false;
  bool shrink = false;
  bool list_profiles = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: storm_test [--seed=N | --seeds=LO..HI] --profile=NAME\n"
      "                  [--backend=messi|paris|paris+]\n"
      "                  [--residency=in-memory|mmap|file]\n"
      "                  [--wire=on|off] [--series=N] [--length=N]\n"
      "                  [--ops=N] [--actors=N]\n"
      "                  [--dump-plan] [--shrink] [--list-profiles]\n");
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    uint64_t n = 0;
    if (key == "--seed" && ParseU64(value, &n)) {
      cli->seed_lo = cli->seed_hi = n;
    } else if (key == "--seeds") {
      const auto dots = value.find("..");
      uint64_t lo = 0, hi = 0;
      if (dots == std::string::npos ||
          !ParseU64(value.substr(0, dots), &lo) ||
          !ParseU64(value.substr(dots + 2), &hi) || hi < lo) {
        std::fprintf(stderr, "bad --seeds range: %s\n", value.c_str());
        return false;
      }
      cli->seed_lo = lo;
      cli->seed_hi = hi;
    } else if (key == "--profile") {
      cli->profile = value;
    } else if (key == "--backend") {
      cli->overrides.backend = value;
    } else if (key == "--residency") {
      cli->overrides.residency = value;
    } else if (key == "--wire") {
      cli->overrides.wire = value != "off" && value != "0";
    } else if (key == "--series" && ParseU64(value, &n)) {
      cli->overrides.initial_series = n;
    } else if (key == "--length" && ParseU64(value, &n)) {
      cli->overrides.series_length = n;
    } else if (key == "--ops" && ParseU64(value, &n)) {
      cli->overrides.ops = n;
    } else if (key == "--actors" && ParseU64(value, &n)) {
      cli->overrides.actors = n;
    } else if (key == "--dump-plan") {
      cli->dump_plan = true;
    } else if (key == "--shrink") {
      cli->shrink = true;
    } else if (key == "--list-profiles") {
      cli->list_profiles = true;
    } else if (key == "--help" || key == "-h") {
      PrintUsage();
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage();
      return false;
    }
  }
  return true;
}

std::string ReproLine(uint64_t seed, const CliOptions& cli) {
  std::string line = "storm_test --seed=" + std::to_string(seed) +
                     " --profile=" + cli.profile;
  const StormOverrides& o = cli.overrides;
  if (o.backend) line += " --backend=" + *o.backend;
  if (o.residency) line += " --residency=" + *o.residency;
  if (o.wire) line += std::string(" --wire=") + (*o.wire ? "on" : "off");
  if (o.initial_series) {
    line += " --series=" + std::to_string(*o.initial_series);
  }
  if (o.series_length) {
    line += " --length=" + std::to_string(*o.series_length);
  }
  if (o.ops) line += " --ops=" + std::to_string(*o.ops);
  if (o.actors) line += " --actors=" + std::to_string(*o.actors);
  return line;
}

/// Bisects the smallest failing op-prefix of a failing plan. Concurrency
/// failures may not reproduce on every run, so this is best-effort: a
/// prefix that happens to pass sends the search upward.
size_t ShrinkFailingPrefix(const StormPlan& plan) {
  size_t lo = 1;
  size_t hi = plan.ops.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    StormPlan prefix = plan;
    prefix.ops.resize(mid);
    prefix.config.ops = mid;
    auto report = RunStorm(prefix);
    const bool failed = report.ok() && !report->passed;
    std::printf("  shrink: ops=%zu -> %s\n", mid,
                failed ? "fails" : "passes");
    if (failed) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return 2;
  if (cli.list_profiles) {
    for (const auto& p : StormProfiles()) std::printf("%s\n", p.c_str());
    return 0;
  }

  int failed_seeds = 0;
  for (uint64_t seed = cli.seed_lo; seed <= cli.seed_hi; ++seed) {
    auto plan = MakeStormPlan(seed, cli.profile, cli.overrides);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan generation failed: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    if (cli.dump_plan) {
      std::fputs(DumpPlan(*plan).c_str(), stdout);
      continue;
    }
    auto report = RunStorm(*plan);
    if (!report.ok()) {
      std::fprintf(stderr, "harness setup failed: %s\n  repro: %s\n",
                   report.status().ToString().c_str(),
                   ReproLine(seed, cli).c_str());
      ++failed_seeds;
      continue;
    }
    std::fputs(FormatReport(*plan, *report).c_str(), stdout);
    if (!report->passed) {
      ++failed_seeds;
      std::printf("repro: %s\n", ReproLine(seed, cli).c_str());
      if (cli.shrink) {
        const size_t min_ops = ShrinkFailingPrefix(*plan);
        std::printf("smallest failing prefix: %zu ops\n  repro: %s "
                    "--ops=%zu\n",
                    min_ops, ReproLine(seed, cli).c_str(), min_ops);
      }
    }
  }
  if (failed_seeds > 0) {
    std::printf("%d failing seed(s)\n", failed_seeds);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace storm
}  // namespace parisax

int main(int argc, char** argv) {
  return parisax::storm::Main(argc, argv);
}
