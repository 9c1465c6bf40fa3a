// deddb_perfbench: the service benchmark's entry point.
//
//   deddb_perfbench --workload <serve_read|commit_storm|change_feed>
//                   --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//   deddb_perfbench --selftest
//
// Prints a human-readable report and, as its last line, one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see BENCHMARK.json). Exit code 2 means no result: a
// set-up failure, a harness self-test failure, or an invalid open-loop run.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "runs.h"

namespace {

void Usage() {
  perfbench::Die(
      "usage: deddb_perfbench --workload <name> --seed <n> --seconds <s> "
      "--trace <0|1> --workdir <dir> | --selftest");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool selftest_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage();
    }
  }

  const int failures = perfbench::RunSelfTests();
  if (failures > 0) {
    perfbench::Die(std::to_string(failures) + " harness self-tests failed");
  }
  if (selftest_only) {
    std::printf("harness self-tests passed\n");
    return 0;
  }
  if (!have_workload || args.workdir.empty() || args.seconds <= 0) Usage();

  const perfbench::RunResult result = perfbench::RunWorkload(args);
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            perfbench::JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
