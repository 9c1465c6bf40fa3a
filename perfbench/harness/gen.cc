#include "gen.h"

#include <algorithm>
#include <cmath>

#include "common.h"
#include "workload/employment.h"

namespace perfbench {

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(deddb::Rng* rng) const {
  const double u = UnitDouble(rng);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double UnitDouble(deddb::Rng* rng) {
  return static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
}

GenReport JudgeOpenLoop(double offered_ops_s, size_t completed,
                        double elapsed_s,
                        const std::vector<std::vector<double>>& late_us) {
  GenReport report;
  report.offered_ops_s = offered_ops_s;
  report.achieved_ops_s =
      elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0;
  std::vector<double> all;
  std::vector<double> final_tenth;
  for (const std::vector<double>& lane : late_us) {
    all.insert(all.end(), lane.begin(), lane.end());
    final_tenth.insert(final_tenth.end(),
                       lane.end() - static_cast<ptrdiff_t>(lane.size() / 10),
                       lane.end());
  }
  const Summary late = Summarize(all);
  report.late_p50_us = late.p50;
  report.late_p99_us = late.p99;
  report.final_late_us = Median(final_tenth);
  if (report.achieved_ops_s < 0.95 * offered_ops_s) {
    report.valid = false;
    report.why_invalid = "achieved rate below 95% of the offered rate";
  } else if (report.final_late_us > 2000) {
    report.valid = false;
    report.why_invalid = "a backlog above 2 ms remained at the end";
  }
  return report;
}

std::vector<Person> ReadPopulation(deddb::DeductiveDatabase* db,
                                   size_t people) {
  std::vector<Person> model(people);
  const deddb::FactStore& facts = db->database().facts();
  for (size_t i = 0; i < people; ++i) {
    const std::string name = deddb::workload::PersonName(i);
    for (size_t p = 0; p < kPredNames.size(); ++p) {
      deddb::Atom atom = Must(db->GroundAtom(kPredNames[p], {name}),
                              "building a population atom");
      model[i].facts[p] = facts.Contains(atom);
    }
  }
  return model;
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return "query";
    case OpKind::kTranslate: return "translate";
    case OpKind::kApply: return "apply";
    case OpKind::kProcess: return "process";
  }
  return "?";
}

void ApplyEvents(const std::vector<Event>& events,
                 std::vector<Person>* model) {
  for (const Event& e : events) (*model)[e.person].facts[e.pred] = e.insert;
}

Op MakeQuery(const std::vector<uint32_t>& people,
             const std::vector<Person>& model) {
  Op op;
  op.kind = OpKind::kQuery;
  op.people = people;
  for (uint32_t p : people) {
    op.expect.push_back(model[p].unemp());
    op.expect.push_back(model[p].alert());
  }
  return op;
}

Op MakeTranslate(uint32_t person, const std::vector<Person>& model) {
  Op op;
  op.kind = OpKind::kTranslate;
  op.people = {person};
  op.translate_insert = !model[person].unemp();
  return op;
}

std::string EventString(bool insert, const std::string& pred,
                        const std::string& person) {
  return (insert ? "+" : "-") + pred + "(" + person + ")";
}

std::vector<std::vector<std::string>> ExpectedTranslations(
    const Op& op, const std::vector<Person>& model) {
  const Person& p = model[op.people[0]];
  const std::string name = deddb::workload::PersonName(op.people[0]);
  auto ev = [&](bool insert, Pred pred) {
    return EventString(insert, kPredNames[pred], name);
  };
  std::vector<std::vector<std::string>> out;
  if (op.translate_insert) {
    // ιUnemp(x): La(x) must hold and Works(x) must not, afterwards.
    if (p.unemp()) return out;
    std::vector<std::string> alt;
    if (!p.facts[kLa]) alt.push_back(ev(true, kLa));
    if (p.facts[kWorks]) alt.push_back(ev(false, kWorks));
    out.push_back(alt);
  } else {
    // δUnemp(x): either La(x) goes or Works(x) arrives.
    if (!p.unemp()) return out;
    out.push_back({ev(false, kLa)});
    out.push_back({ev(true, kWorks)});
  }
  for (auto& alt : out) std::sort(alt.begin(), alt.end());
  std::sort(out.begin(), out.end());
  return out;
}

Op MakeSkilledToggle(uint32_t person, const std::vector<Person>& model) {
  Op op;
  op.kind = OpKind::kApply;
  op.events = {{!model[person].facts[kSkilled], kSkilled, person}};
  return op;
}

Op MakeEmploymentToggle(uint32_t person, const std::vector<Person>& model) {
  Op op;
  op.kind = OpKind::kApply;
  const bool works = model[person].facts[kWorks];
  op.events = {{!works, kWorks, person}, {works, kBenefit, person}};
  return op;
}

namespace {

/// Events that change `person` and keep Ic1/Ic2 satisfied: a Skilled toggle
/// (one event) or, when `two` is set, an employment or labour-age change
/// (two events).
std::vector<Event> ConsistentGroup(uint32_t person, const Person& p, bool two,
                                   deddb::Rng* rng) {
  if (!two) return {{!p.facts[kSkilled], kSkilled, person}};
  if (p.facts[kLa] && rng->NextChance(1, 2)) {
    const bool works = p.facts[kWorks];
    return {{!works, kWorks, person}, {works, kBenefit, person}};
  }
  if (!p.facts[kLa]) return {{true, kLa, person}, {true, kBenefit, person}};
  if (p.unemp()) return {{false, kLa, person}, {false, kBenefit, person}};
  return {{false, kLa, person}, {false, kWorks, person}};
}

/// One event that violates Ic1 or Ic2 for a consistent `person`.
Event ViolatingEvent(uint32_t person, const Person& p, deddb::Rng* rng) {
  if (p.unemp()) {
    return rng->NextChance(1, 2) ? Event{false, kBenefit, person}
                                 : Event{true, kWorks, person};
  }
  if (p.facts[kWorks]) return {true, kBenefit, person};
  return {true, kLa, person};  // unemployed without the benefit
}

}  // namespace

Op MakeProcess(const std::vector<uint32_t>& partition,
               const std::vector<Person>& model, bool violate,
               deddb::Rng* rng) {
  Op op;
  op.kind = OpKind::kProcess;
  op.expect_accept = !violate;
  size_t remaining = 1 + rng->NextBelow(4);
  std::vector<uint32_t> used;
  auto fresh_person = [&]() {
    for (;;) {
      const uint32_t p = partition[rng->NextBelow(partition.size())];
      if (std::find(used.begin(), used.end(), p) == used.end()) {
        used.push_back(p);
        return p;
      }
    }
  };
  if (violate) {
    const uint32_t p = fresh_person();
    op.events.push_back(ViolatingEvent(p, model[p], rng));
    --remaining;
  }
  while (remaining > 0) {
    const uint32_t p = fresh_person();
    const bool two = remaining >= 2 && rng->NextBelow(3) != 0;
    for (const Event& e : ConsistentGroup(p, model[p], two, rng)) {
      op.events.push_back(e);
    }
    remaining -= two ? 2 : 1;
  }
  return op;
}

}  // namespace perfbench
