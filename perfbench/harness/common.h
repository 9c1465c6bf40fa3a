// Shared plumbing of the deddb service benchmark: clocks, fatal-error
// helpers, the percentile rule and latency summaries.
#ifndef DEDDB_PERFBENCH_COMMON_H_
#define DEDDB_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock epoch).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Sleeps until the steady clock reads `deadline_ns`.
void SleepUntilNs(int64_t deadline_ns);

/// Sets the calling thread's timer slack to the minimum. With the default
/// 50 us slack a sleep wakes tens of microseconds late, which would show up
/// in every due-time latency.
void ReduceTimerSlack();

/// Aborts the run: prints `what` to stderr and exits with code 2, so no
/// result line is printed. For set-up failures and harness invariants, not
/// for wrong answers (those make the run's `correct` false).
[[noreturn]] void Die(const std::string& what);

void MustOk(const deddb::Status& status, const std::string& what);

template <typename T>
T Must(deddb::Result<T> result, const std::string& what) {
  MustOk(result.status(), what);
  return std::move(result).value();
}

// ---- Percentiles --------------------------------------------------------------

/// The percentile rule: the highest of 99.9, 99, 90 and 50 that has at least
/// ten of `n` samples strictly beyond its nearest-rank position; 0 when even
/// the median has fewer than ten beyond it.
double TailPercentileFor(size_t n);

/// Nearest-rank quantile of ascending `sorted` (q in [0, 1]).
double QuantileSorted(const std::vector<double>& sorted, double q);

/// A latency (or any sample) distribution reduced to what the report shows.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  /// The percentile the sample count supports (TailPercentileFor) and its
  /// value; p99 is meaningful only when tail_pct >= 99.
  double tail_pct = 0;
  double tail = 0;
  double max = 0;
};

Summary Summarize(std::vector<double> samples);

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMiB();

/// Formats a value with all its significant digits for the JSON line.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_COMMON_H_
