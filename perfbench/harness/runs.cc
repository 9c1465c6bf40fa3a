// One workload run: set-up (timed), the served run, the output checks and
// the report; or, traced, the served run with spans plus the direct lanes.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common.h"
#include "internal.h"

namespace perfbench {

namespace {

// An untraced run sets up at least this many times and for at least this
// long (a set-up of the small workloads takes milliseconds); setup_s is the
// median.
constexpr size_t kMinSetups = 11;
constexpr double kMinSetupSeconds = 2;

// Load served, untimed, before the measured run: the first measured window
// then carries no cold caches, fresh WAL pages or write-back left by the
// set-ups.
constexpr double kWarmupSeconds = 3;

// The measured run is cut into windows of this length by due time. Each
// end-to-end latency is the lower quartile across windows of the window's
// p50 or p90, and write_ops_s the upper quartile of the windows' rates: the
// quarter of the run least disturbed by the shared host. On a 4-core
// virtual machine, stalls of the host's CPUs and disk came in bursts that
// covered up to 9 of a run's 15 windows and moved a window's p90 up to
// 40-fold; a program change moves every window alike. An op class whose
// windows would hold too few samples for a p90 with ten beyond it uses
// fewer, longer windows.
constexpr double kWindowSeconds = 2;

std::vector<double> Merged(const ServedRun& run, OpKind kind) {
  std::vector<double> out;
  for (const Sink& sink : run.sinks) {
    const std::vector<double>& v = sink.latency_us[static_cast<size_t>(kind)];
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void PrintRow(const char* name, const Summary& s) {
  if (s.n == 0) return;
  std::printf("  %-12s n=%-8zu p50 %10.1f us   p90 %10.1f us   p99 %10.1f us"
              "   p%-4g %10.1f us   max %10.1f us\n",
              name, s.n, s.p50, s.p90, s.p99, s.tail_pct, s.tail, s.max);
}

void PrintSeries(const char* what, const std::vector<double>& values) {
  std::printf("    %-7s", what);
  for (double v : values) std::printf(" %.1f", v);
  std::printf("\n");
}

/// One op class's timings across windows (see kWindowSeconds).
struct Windowed {
  double p50 = 0;
  double p90 = 0;
  /// Completions per second.
  double ops_s = 0;
};

/// The quartiles over `windows` windows, or nullopt when some window has
/// too few samples for a p90 with ten samples beyond it.
std::optional<Windowed> WindowStatsOver(size_t windows, const char* name,
                                        const ServedRun& run,
                                        const std::vector<OpKind>& kinds) {
  std::vector<std::vector<double>> latency(windows);
  std::vector<double> completed(windows, 0);
  const int64_t window_ns = run.run_ns / static_cast<int64_t>(windows);
  auto window_of = [&](int64_t t) {
    return static_cast<size_t>(std::clamp<int64_t>(
        (t - run.start_ns) / window_ns, 0, static_cast<int64_t>(windows) - 1));
  };
  for (const Sink& sink : run.sinks) {
    for (OpKind kind : kinds) {
      const size_t k = static_cast<size_t>(kind);
      for (size_t i = 0; i < sink.latency_us[k].size(); ++i) {
        const int64_t due = sink.due_ns[k][i];
        latency[window_of(due)].push_back(sink.latency_us[k][i]);
        completed[window_of(
            due + static_cast<int64_t>(sink.latency_us[k][i] * 1000))] += 1;
      }
    }
  }
  std::vector<double> p50, p90, rate;
  for (size_t w = 0; w < windows; ++w) {
    const Summary s = Summarize(latency[w]);
    if (s.tail_pct < 90) return std::nullopt;
    p50.push_back(s.p50);
    p90.push_back(s.p90);
    rate.push_back(completed[w] / (static_cast<double>(window_ns) / 1e9));
  }
  std::printf("  %s: %zu windows of %.1f s\n", name, windows,
              static_cast<double>(window_ns) / 1e9);
  PrintSeries("p50 us", p50);
  PrintSeries("p90 us", p90);
  PrintSeries("ops/s", rate);
  auto quartile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return QuantileSorted(v, q);
  };
  return Windowed{quartile(p50, 0.25), quartile(p90, 0.25),
                  quartile(rate, 0.75)};
}

Windowed WindowStats(const char* name, const ServedRun& run,
                     const std::vector<OpKind>& kinds) {
  const double seconds = static_cast<double>(run.run_ns) / 1e9;
  const size_t most =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds));
  for (size_t windows = most; windows >= 1; --windows) {
    if (auto stats = WindowStatsOver(windows, name, run, kinds)) return *stats;
  }
  // A p90 is reported only when at least ten samples lie beyond it.
  Die(std::string("too few ") + name +
      " samples for a p90 with ten beyond it; run longer");
}

void CountRequests(const ServedRun& run, RunResult* result) {
  for (const Sink& sink : run.sinks) {
    result->attempted += sink.attempted;
    result->failed += sink.failed;
  }
  result->failed += run.gap_events;
}

void PrintGen(const Shape& shape, const ServedRun& run) {
  if (shape.closed_loop) {
    std::printf("  loop: closed, %zu synchronous connections, no think time\n",
                shape.lanes);
    return;
  }
  const GenReport& g = run.gen;
  std::printf("  gen: offered %.1f ops/s, achieved %.1f ops/s, late p50 %.1f "
              "us, late p99 %.1f us, final backlog %.1f us -> %s\n",
              g.offered_ops_s, g.achieved_ops_s, g.late_p50_us, g.late_p99_us,
              g.final_late_us, g.valid ? "valid" : "INVALID");
}

std::string Scratch(const RunArgs& args, const std::string& what) {
  return args.workdir + "/" + args.workload + "-" +
         std::to_string(::getpid()) + "-" + what;
}

RunResult Untraced(const Shape& shape, const RunArgs& args) {
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Streams> streams;
  Connections conns;
  const int64_t setups_end =
      NowNs() + static_cast<int64_t>(kMinSetupSeconds * 1e9);
  while (setups.size() < kMinSetups || NowNs() < setups_end) {
    conns = Connections();
    stack.reset();
    const int64_t t0 = NowNs();
    stack = BuildStack(shape, args.seed,
                       Scratch(args, std::to_string(setups.size())), {});
    streams = std::make_unique<Streams>(shape, args.seed, stack->initial);
    conns = ConnectAll(shape, stack.get(), streams.get());
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<std::string> problems;
  ServedRun warmup =
      Serve(shape, stack.get(), &conns, streams.get(), kWarmupSeconds, false);
  CheckFinalState(shape, stack.get(), &conns, *streams, warmup, &problems);
  ServedRun run =
      Serve(shape, stack.get(), &conns, streams.get(), args.seconds, false);
  CheckFinalState(shape, stack.get(), &conns, *streams, run, &problems);

  RunResult result;
  CountRequests(warmup, &result);
  CountRequests(run, &result);
  const Summary query = Summarize(Merged(run, OpKind::kQuery));
  const Summary translate = Summarize(Merged(run, OpKind::kTranslate));
  std::vector<double> writes = Merged(run, OpKind::kApply);
  const std::vector<double> processes = Merged(run, OpKind::kProcess);
  writes.insert(writes.end(), processes.begin(), processes.end());
  const Summary write = Summarize(std::move(writes));
  const Summary push = Summarize(run.push_us);
  const Summary lag = Summarize(run.lag_us);
  const double setup_s = Median(setups);
  const double rss = PeakRssMiB();

  std::printf("workload %s  seed %llu  %.0f s measured after %.0f s of "
              "warm-up  %zu people  flush: group commit on (persistent, WAL "
              "fsync per commit group)\n",
              shape.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, kWarmupSeconds, shape.people);
  std::printf("  setup_s %.4f (median of %zu set-ups, min %.4f max %.4f)   "
              "rss_peak_mb %.1f\n",
              setup_s, setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()), rss);
  PrintGen(shape, run);
  PrintRow("query", query);
  PrintRow("translate", translate);
  PrintRow(shape.closed_loop ? "write(proc)" : "write(apply)", write);
  PrintRow("push", push);
  PrintRow("replica_lag", lag);
  std::printf("  fail_ratio %.6f (%llu failed of %llu attempted)\n",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  uint64_t processed = 0, accepted = 0;
  for (const Sink& sink : run.sinks) {
    processed += sink.processed;
    accepted += sink.accepted;
  }
  if (processed > 0) {
    std::printf("  process verdicts: %llu accepted, %llu rejected by Ic1/Ic2\n",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(processed - accepted));
  }
  for (const std::string& p : problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  if (problems.empty()) std::printf("  output checks: all passed\n");

  if (!shape.closed_loop && !run.gen.valid) {
    Die("run invalid, the open-loop generator fell behind its schedule: " +
        run.gen.why_invalid);
  }
  const Windowed wq = WindowStats("query", run, {OpKind::kQuery});
  const Windowed ww =
      WindowStats("write", run, {OpKind::kApply, OpKind::kProcess});
  std::printf("  quartiles of the windows: query p50 %.1f p90 %.1f us; "
              "write p50 %.1f p90 %.1f us, %.1f/s\n",
              wq.p50, wq.p90, ww.p50, ww.p90, ww.ops_s);
  // The gated timings are those of the workload's headline op; the other
  // op classes are printed above. An open loop's write rate is the one its
  // schedule offered, so it is reported over the whole run.
  const Windowed& headline = shape.headline == OpKind::kQuery ? wq : ww;
  const double run_s = static_cast<double>(run.run_ns) / 1e9;
  const double write_ops_s =
      shape.closed_loop ? ww.ops_s : static_cast<double>(write.n) / run_s;
  std::printf("  headline %s: p50 %.1f us, p90 %.1f us; write_ops_s %.1f\n",
              OpName(shape.headline), headline.p50, headline.p90, write_ops_s);

  result.correct = problems.empty();
  result.metrics = {
      {"setup_s", setup_s, "s"},
      {"rss_peak_mb", rss, "MiB"},
      {"headline_p50_us", headline.p50, "us"},
      {"headline_p90_us", headline.p90, "us"},
      {"write_ops_s", write_ops_s, "1/s"},
  };
  conns = Connections();
  stack.reset();
  return result;
}

RunResult Traced(const Shape& shape, const RunArgs& args) {
  StackOptions served_options;
  served_options.metrics = true;
  served_options.checkpoint_copy = true;
  std::unique_ptr<Stack> stack =
      BuildStack(shape, args.seed, Scratch(args, "served"), served_options);
  Streams streams(shape, args.seed, stack->initial);
  Connections conns = ConnectAll(shape, stack.get(), &streams);
  StackOptions direct_options;
  direct_options.serve = false;
  std::unique_ptr<Stack> direct =
      BuildStack(shape, args.seed, Scratch(args, "direct"), direct_options);
  std::unique_ptr<Stack> mirror =
      BuildStack(shape, args.seed, Scratch(args, "mirror"), direct_options);

  // The traced run first (the direct lanes replay it from the same initial
  // state), then the untraced run for the tracing overhead.
  const double half = args.seconds / 2;
  std::vector<std::string> problems;
  ServedRun traced = Serve(shape, stack.get(), &conns, &streams, half, true);
  CheckFinalState(shape, stack.get(), &conns, streams, traced, &problems);
  std::unique_ptr<deddb::server::Client> admin = Connect(&stack->net);
  const std::string stats_json =
      Must(admin->Stats(), "fetching the server's Stats").json;
  admin->Close();
  ServedRun untraced = Serve(shape, stack.get(), &conns, &streams, half, false);
  CheckFinalState(shape, stack.get(), &conns, streams, untraced, &problems);

  RunResult result;
  CountRequests(traced, &result);
  CountRequests(untraced, &result);
  std::printf("workload %s  seed %llu  traced run (%.1f s traced + %.1f s "
              "untraced)\n",
              shape.name.c_str(), static_cast<unsigned long long>(args.seed),
              half, half);
  PrintGen(shape, traced);
  const std::string span_path = args.workdir + "/spans.tsv";
  result.metrics = MeasureLayers(shape, stack.get(), direct.get(),
                                 mirror.get(), traced,
                                 untraced, stats_json, span_path, &problems);
  std::printf("spans: %s\n", span_path.c_str());
  for (const std::string& p : problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  if (problems.empty()) std::printf("  output checks: all passed\n");
  result.correct = problems.empty();
  conns = Connections();
  mirror.reset();
  direct.reset();
  stack.reset();
  return result;
}

}  // namespace

RunResult RunWorkload(const RunArgs& args) {
  const Shape shape = ShapeFor(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) Die("creating " + args.workdir + ": " + ec.message());
  return args.trace ? Traced(shape, args) : Untraced(shape, args);
}

}  // namespace perfbench
