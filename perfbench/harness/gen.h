// Seeded request generation: the Zipf sampler, the open-loop schedule and
// its lateness accounting, and the employment-database model the request
// streams (and the output checks) are derived from.
#ifndef DEDDB_PERFBENCH_GEN_H_
#define DEDDB_PERFBENCH_GEN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/deductive_database.h"
#include "util/rng.h"

namespace perfbench {

/// Zipf(s) over ranks [0, n): rank 0 is the most popular. Ranks are mapped
/// to items by the caller (usually through a seeded permutation, so the hot
/// items are not simply the lowest ids).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(deddb::Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Uniform double in [0, 1) from 53 random bits.
double UnitDouble(deddb::Rng* rng);

// ---- Open loop ------------------------------------------------------------------

/// A fixed-interval schedule: request i of a connection is due at
/// start + phase + i * interval, whatever happened to earlier requests.
struct Schedule {
  int64_t start_ns = 0;
  int64_t phase_ns = 0;
  int64_t interval_ns = 1;
  int64_t end_ns = 0;

  int64_t Due(uint64_t i) const {
    return start_ns + phase_ns + static_cast<int64_t>(i) * interval_ns;
  }
};

/// Runs `op(i, due_ns)` for every request of `schedule` due before its end.
/// The loop waits for a request's due time only when it is early; a late
/// request is sent at once, so a stall delays every request queued behind
/// it and their latencies, timed by `op` from `due_ns`, include the wait.
/// `now()` and `sleep_until(ns)` are the clock (real or simulated). Returns
/// each request's lateness (send time minus due time, µs).
template <typename NowFn, typename SleepFn, typename OpFn>
std::vector<double> RunOpenLoop(const Schedule& schedule, NowFn now,
                                SleepFn sleep_until, OpFn op) {
  std::vector<double> late_us;
  for (uint64_t i = 0;; ++i) {
    const int64_t due = schedule.Due(i);
    if (due >= schedule.end_ns) break;
    if (now() < due) sleep_until(due);
    late_us.push_back(static_cast<double>(now() - due) / 1000.0);
    op(i, due);
  }
  return late_us;
}

/// The generator's own account of an open-loop run.
struct GenReport {
  double offered_ops_s = 0;
  double achieved_ops_s = 0;
  double late_p50_us = 0;
  double late_p99_us = 0;
  /// Median lateness of the last tenth of requests: a backlog that is still
  /// there at the end of the run.
  double final_late_us = 0;
  bool valid = true;
  std::string why_invalid;
};

/// Judges an open-loop run: it is invalid when the generator fell behind
/// its schedule — fewer than 95% of the offered requests completed per
/// second, or a backlog above 2 ms remained at the end of the run.
GenReport JudgeOpenLoop(double offered_ops_s, size_t completed,
                        double elapsed_s,
                        const std::vector<std::vector<double>>& late_us);

// ---- The employment model ----------------------------------------------------------

/// Base predicates of workload/employment.h, in model order.
enum Pred : uint8_t { kLa = 0, kWorks = 1, kBenefit = 2, kSkilled = 3 };
inline constexpr std::array<const char*, 4> kPredNames = {"La", "Works",
                                                          "U_benefit",
                                                          "Skilled"};

/// One person's base facts, and the derived facts the schema's rules give
/// them: Unemp(x) <- La(x) & not Works(x); Alert(x) <- Unemp(x) & Skilled(x).
struct Person {
  std::array<bool, 4> facts{};
  bool unemp() const { return facts[kLa] && !facts[kWorks]; }
  bool alert() const { return unemp() && facts[kSkilled]; }
};

/// Reads every person's base facts out of a generated database.
std::vector<Person> ReadPopulation(deddb::DeductiveDatabase* db,
                                   size_t people);

struct Event {
  bool insert = true;
  Pred pred = kLa;
  uint32_t person = 0;
};

enum class OpKind : uint8_t { kQuery, kTranslate, kApply, kProcess };
const char* OpName(OpKind kind);

/// One generated request with what its reply must be.
struct Op {
  OpKind kind = OpKind::kQuery;
  uint64_t id = 0;
  /// Query: the people whose Unemp and Alert are asked (two patterns each);
  /// Translate: the one person.
  std::vector<uint32_t> people;
  /// Query: expected truth of each pattern, in request order.
  std::vector<bool> expect;
  /// Translate: ιUnemp when true, δUnemp when false.
  bool translate_insert = false;
  /// Apply/Process: the base events.
  std::vector<Event> events;
  /// Process: whether Ic1/Ic2 accept the transaction.
  bool expect_accept = true;
  /// Open loop: due time relative to the run's start (ns).
  int64_t due_offset_ns = 0;
};

/// Applies an accepted write's events to the model.
void ApplyEvents(const std::vector<Event>& events, std::vector<Person>* model);

/// A Query op for `people` with its expected answers taken from `model`.
Op MakeQuery(const std::vector<uint32_t>& people,
             const std::vector<Person>& model);

/// A Translate op: δUnemp of an unemployed person, ιUnemp of anyone else.
Op MakeTranslate(uint32_t person, const std::vector<Person>& model);

/// The minimal translations the downward interpretation must return for a
/// Translate op, rendered "+Pred(PersonN)" / "-Pred(PersonN)", each
/// alternative sorted and the list sorted.
std::vector<std::vector<std::string>> ExpectedTranslations(
    const Op& op, const std::vector<Person>& model);

/// One-fact toggle of Skilled(person) (serve_read's write).
Op MakeSkilledToggle(uint32_t person, const std::vector<Person>& model);

/// Two-fact employment toggle of a labour-age person: an unemployed person
/// starts work and loses the benefit, a worker loses work and gains it.
/// Unemp flips, and Alert with it for skilled people (change_feed's write).
Op MakeEmploymentToggle(uint32_t person, const std::vector<Person>& model);

/// commit_storm's Process: 1–4 base events over distinct people of
/// `partition`; with `violate` one event breaks Ic1 or Ic2 (so the
/// processor must reject the whole transaction), otherwise every group of
/// events keeps the person consistent.
Op MakeProcess(const std::vector<uint32_t>& partition,
               const std::vector<Person>& model, bool violate,
               deddb::Rng* rng);

/// Renders an event "+Pred(PersonN)" / "-Pred(PersonN)".
std::string EventString(bool insert, const std::string& pred,
                        const std::string& person);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_GEN_H_
