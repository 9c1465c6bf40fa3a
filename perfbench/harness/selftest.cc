// Self-tests of the harness itself, run before every workload (and alone
// with --selftest): the percentile rule, due-time latency accounting under
// an injected stall, the generator's lateness report, and seed determinism
// of the Zipf and transaction generators.
#include <cstdio>
#include <string>

#include "common.h"
#include "internal.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "perfbench self-test FAILED: %s\n", what.c_str());
  }
}

void TestPercentileRule() {
  Expect(TailPercentileFor(19) == 0, "19 samples support no percentile");
  Expect(TailPercentileFor(20) == 50, "20 samples support the median");
  Expect(TailPercentileFor(100) == 90, "100 samples support p90");
  Expect(TailPercentileFor(999) == 90, "999 samples do not support p99");
  Expect(TailPercentileFor(1000) == 99, "1000 samples support p99");
  Expect(TailPercentileFor(9999) == 99, "9999 samples do not support p99.9");
  Expect(TailPercentileFor(10000) == 99.9, "10000 samples support p99.9");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  Expect(s.p50 == 500 && s.p99 == 990 && s.tail_pct == 99 && s.tail == 990,
         "nearest-rank p50/p99 of 1..1000");
  // Ten samples lie beyond the reported p99.
  size_t beyond = 0;
  for (double x : v) beyond += x > s.p99 ? 1 : 0;
  Expect(beyond == 10, "ten samples beyond p99 at n=1000");
}

/// A simulated open loop: interval 100 us, service 10 us, with `stall_us`
/// of service injected into request 10. Returns due-time latencies; fills
/// the send-time latencies and lateness.
std::vector<double> SimulateOpenLoop(int64_t service_us, int64_t stall_us,
                                     std::vector<double>* send_latency,
                                     std::vector<double>* late,
                                     int64_t* elapsed_ns) {
  int64_t now = 0;
  Schedule schedule;
  schedule.interval_ns = 100'000;
  schedule.end_ns = 200 * schedule.interval_ns;
  std::vector<double> due_latency;
  *late = RunOpenLoop(
      schedule, [&] { return now; },
      [&](int64_t until) { now = std::max(now, until); },
      [&](uint64_t i, int64_t due) {
        const int64_t sent = now;
        now += (service_us + (i == 10 ? stall_us : 0)) * 1000;
        due_latency.push_back(static_cast<double>(now - due) / 1000.0);
        send_latency->push_back(static_cast<double>(now - sent) / 1000.0);
      });
  *elapsed_ns = now;
  return due_latency;
}

void TestDueTimeLatency() {
  std::vector<double> sent, late;
  int64_t elapsed = 0;
  const std::vector<double> lat = SimulateOpenLoop(10, 5000, &sent, &late,
                                                   &elapsed);
  Expect(lat.size() == 200, "the schedule sends 200 requests");
  Expect(lat[10] >= 5000, "the stalled request's latency includes the stall");
  Expect(lat[11] > 4800 && lat[20] > 4000,
         "requests queued behind the stall carry its wait");
  Expect(sent[11] < 20, "send-time latency would hide that wait");
  Expect(lat[199] < 20, "the loop catches up after the stall");
}

void TestLatenessReport() {
  std::vector<double> sent, late;
  int64_t elapsed = 0;
  SimulateOpenLoop(10, 5000, &sent, &late, &elapsed);
  GenReport once = JudgeOpenLoop(10000, 200, static_cast<double>(elapsed) / 1e9,
                                 {late});
  Expect(once.late_p99_us > 4000, "gen.late_p99 shows the stall");
  Expect(once.valid, "a run that caught up is valid");

  sent.clear();
  late.clear();
  SimulateOpenLoop(150, 0, &sent, &late, &elapsed);
  GenReport behind = JudgeOpenLoop(
      10000, 200, static_cast<double>(elapsed) / 1e9, {late});
  Expect(!behind.valid, "a generator that fell behind is flagged invalid");
  Expect(behind.achieved_ops_s < 0.95 * behind.offered_ops_s,
         "achieved rate below offered when behind");
}

std::vector<Person> SyntheticPopulation(size_t n, uint64_t seed) {
  deddb::Rng rng(seed);
  std::vector<Person> people(n);
  for (Person& p : people) {
    p.facts[kLa] = rng.NextChance(80, 100);
    p.facts[kWorks] = p.facts[kLa] && rng.NextChance(60, 100);
    p.facts[kBenefit] = p.unemp();
    p.facts[kSkilled] = rng.NextChance(30, 100);
  }
  return people;
}

std::string Render(const Op& op) {
  std::string out = OpName(op.kind);
  for (uint32_t p : op.people) out += " p" + std::to_string(p);
  for (bool b : op.expect) out += b ? " T" : " F";
  for (const Event& e : op.events) {
    out += " " + EventString(e.insert, kPredNames[e.pred],
                             std::to_string(e.person));
  }
  out += op.translate_insert ? " ins" : "";
  out += op.expect_accept ? " ok" : " reject";
  return out;
}

std::string StreamDigest(const std::string& workload, uint64_t seed) {
  const Shape shape = ShapeFor(workload);
  Streams streams(shape, seed, SyntheticPopulation(shape.people, 99));
  std::string digest;
  for (int i = 0; i < 400; ++i) {
    digest += Render(streams.Next(static_cast<size_t>(i) % shape.lanes)) + "\n";
  }
  return digest;
}

void TestSeedDeterminism() {
  const Zipf zipf(1000, 0.99);
  deddb::Rng a(7), b(7), c(8);
  std::vector<size_t> sa, sb, sc;
  std::vector<size_t> counts(1000, 0);
  for (int i = 0; i < 5000; ++i) {
    sa.push_back(zipf.Sample(&a));
    sb.push_back(zipf.Sample(&b));
    sc.push_back(zipf.Sample(&c));
    ++counts[sa.back()];
  }
  Expect(sa == sb, "Zipf: the same seed gives the same draws");
  Expect(sa != sc, "Zipf: another seed gives other draws");
  Expect(counts[0] > counts[10] && counts[10] > counts[500],
         "Zipf: low ranks are drawn more often");

  for (const std::string& workload : WorkloadNames()) {
    Expect(StreamDigest(workload, 3) == StreamDigest(workload, 3),
           workload + ": the same seed gives the same stream");
    Expect(StreamDigest(workload, 3) != StreamDigest(workload, 4),
           workload + ": another seed gives another stream");
  }
  // The transaction generator keeps people consistent unless told to
  // violate, and its rejection rate follows the design (1 in 10).
  const Shape shape = ShapeFor("commit_storm");
  Streams streams(shape, 5, SyntheticPopulation(shape.people, 5));
  size_t processes = 0, rejects = 0;
  for (int i = 0; i < 4000; ++i) {
    const Op op = streams.Next(static_cast<size_t>(i) % 4);
    if (op.kind != OpKind::kProcess) continue;
    ++processes;
    rejects += op.expect_accept ? 0 : 1;
    Expect(!op.events.empty() && op.events.size() <= 4,
           "a Process carries 1-4 events");
  }
  const double reject_share =
      static_cast<double>(rejects) / static_cast<double>(processes);
  Expect(reject_share > 0.07 && reject_share < 0.13,
         "about 1 in 10 Process requests violates a constraint");
  for (const Person& p : streams.model()) {
    Expect(!(p.unemp() && !p.facts[kBenefit]) &&
               !(p.facts[kWorks] && p.facts[kBenefit]),
           "accepted transactions keep every person consistent");
  }
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentileRule();
  TestDueTimeLatency();
  TestLatenessReport();
  TestSeedDeterminism();
  return failures;
}

}  // namespace perfbench
