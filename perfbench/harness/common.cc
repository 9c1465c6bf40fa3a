#include "common.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(deadline_ns)));
}

void ReduceTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void Die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: error: %s\n", what.c_str());
  std::exit(2);
}

void MustOk(const deddb::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double TailPercentileFor(size_t n) {
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= rank + 10) return pct;
  }
  return 0;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileSorted(samples, 0.5);
  s.p90 = QuantileSorted(samples, 0.9);
  s.p99 = QuantileSorted(samples, 0.99);
  s.tail_pct = TailPercentileFor(s.n);
  s.tail = QuantileSorted(samples, s.tail_pct / 100.0);
  s.max = samples.back();
  return s;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return QuantileSorted(samples, 0.5);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
