// The three workloads of the deddb service benchmark and the traced
// per-layer run. See BENCHMARK.json for what each workload loads and why.
#ifndef DEDDB_PERFBENCH_RUNS_H_
#define DEDDB_PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for temporary databases and the span file; created if
  /// needed, and the databases are removed again before the run returns.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the run prints as its final JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The workloads the harness can run. BENCHMARK.json lists serve_read and
/// commit_storm; change_feed is run by hand (see perfbench/README.md).
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: the untraced run (end-to-end metrics) or, with
/// args.trace, the traced run (per-layer metrics and the self-time table).
/// Dies (exit 2, no result) on set-up failure or when an open-loop run fell
/// behind its schedule.
RunResult RunWorkload(const RunArgs& args);

/// The harness self-tests; returns the number of failures (each printed).
int RunSelfTests();

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_RUNS_H_
