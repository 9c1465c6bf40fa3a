// The served run: every lane's stream through server::Client connections
// to the in-process stack, with due-time latency in open loop, and the
// output checks made at the end of the run.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common.h"
#include "internal.h"
#include "workload/employment.h"

namespace perfbench {

using deddb::Atom;
using deddb::Term;
using deddb::Transaction;
using deddb::server::Client;

namespace {

/// Samples reserved per closed-loop lane, op class and second.
constexpr double kSampleRoomPerLaneSecond = 20000;

Atom PersonAtom(deddb::SymbolTable* symbols, const char* pred, uint32_t p) {
  return Atom(symbols->Intern(pred),
              {Term::MakeConstant(
                  symbols->Intern(deddb::workload::PersonName(p)))});
}

}  // namespace

void Sink::Problem(const std::string& what) {
  ++mismatches;
  if (first_problem.empty()) first_problem = what;
}

// ---- Request building (shared with the direct lanes through these helpers) --

std::vector<Atom> QueryPatterns(const Op& op, deddb::SymbolTable* symbols) {
  std::vector<Atom> patterns;
  for (uint32_t p : op.people) {
    patterns.push_back(PersonAtom(symbols, "Unemp", p));
    patterns.push_back(PersonAtom(symbols, "Alert", p));
  }
  return patterns;
}

Transaction WriteTransaction(const Op& op, deddb::SymbolTable* symbols) {
  Transaction txn;
  for (const Event& e : op.events) {
    Atom atom = PersonAtom(symbols, kPredNames[e.pred], e.person);
    MustOk(e.insert ? txn.AddInsert(atom) : txn.AddDelete(atom),
           "building a write transaction");
  }
  return txn;
}

deddb::UpdateRequest TranslateRequestFor(const Op& op,
                                         deddb::SymbolTable* symbols) {
  deddb::RequestedEvent event;
  event.is_insert = op.translate_insert;
  event.predicate = symbols->Intern("Unemp");
  event.args = {Term::MakeConstant(
      symbols->Intern(deddb::workload::PersonName(op.people[0])))};
  deddb::UpdateRequest request;
  request.events.push_back(event);
  return request;
}

std::vector<std::vector<std::string>> RenderTranslations(
    const std::vector<Transaction>& alternatives,
    const deddb::SymbolTable& symbols) {
  std::vector<std::vector<std::string>> out;
  for (const Transaction& txn : alternatives) {
    std::vector<std::string> alt;
    txn.inserts().ForEach([&](deddb::SymbolId pred, const deddb::Tuple& t) {
      alt.push_back(EventString(true, symbols.NameOf(pred), symbols.NameOf(t[0])));
    });
    txn.deletes().ForEach([&](deddb::SymbolId pred, const deddb::Tuple& t) {
      alt.push_back(EventString(false, symbols.NameOf(pred), symbols.NameOf(t[0])));
    });
    std::sort(alt.begin(), alt.end());
    out.push_back(alt);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Sends one op through `client`, times it from `due_ns`, checks the reply.
void ServeOp(Client* client, const Op& op, int64_t due_ns,
             const std::vector<Person>& initial, Sink* sink,
             TraceBuffer* trace) {
  ++sink->attempted;
  deddb::SymbolTable* symbols = &client->symbols();
  const size_t kind = static_cast<size_t>(op.kind);
  auto done = [&]() {
    const int64_t now = NowNs();
    sink->latency_us[kind].push_back(static_cast<double>(now - due_ns) /
                                     1000.0);
    sink->due_ns[kind].push_back(due_ns);
    return now;
  };
  auto fail = [&](const deddb::Status& status) {
    ++sink->failed;
    if (sink->first_problem.empty()) {
      sink->first_problem =
          std::string(OpName(op.kind)) + " failed: " + status.ToString();
    }
  };
  switch (op.kind) {
    case OpKind::kQuery: {
      std::vector<Atom> patterns = QueryPatterns(op, symbols);
      deddb::Result<deddb::server::QueryReply> reply = [&] {
        ScopedSpan span(trace, kServedSpan[kind], op.id);
        return client->Query(std::move(patterns));
      }();
      const int64_t now = done();
      if (!reply.ok()) return fail(reply.status());
      if (reply->answers.size() != op.expect.size()) {
        return sink->Problem("query: wrong number of answer lists");
      }
      for (size_t i = 0; i < op.expect.size(); ++i) {
        if (reply->answers[i].empty() == op.expect[i]) {
          sink->Problem("query: wrong answer for " +
                        deddb::workload::PersonName(op.people[i / 2]));
        }
      }
      if (reply->has_replica_status) {
        sink->replica_seen.emplace_back(now, reply->applied_seq);
      }
      return;
    }
    case OpKind::kTranslate: {
      deddb::UpdateRequest request = TranslateRequestFor(op, symbols);
      deddb::Result<deddb::server::TranslateReply> reply = [&] {
        ScopedSpan span(trace, kServedSpan[kind], op.id);
        return client->Translate(request);
      }();
      done();
      if (!reply.ok()) return fail(reply.status());
      if (RenderTranslations(reply->alternatives, *symbols) !=
          ExpectedTranslations(op, initial)) {
        sink->Problem("translate: wrong translations for " +
                      deddb::workload::PersonName(op.people[0]));
      }
      return;
    }
    case OpKind::kApply: {
      Transaction txn = WriteTransaction(op, symbols);
      deddb::Result<deddb::server::ApplyReply> reply = [&] {
        ScopedSpan span(trace, kServedSpan[kind], op.id);
        return client->Apply(txn);
      }();
      const int64_t now = done();
      if (!reply.ok()) return fail(reply.status());
      sink->write_acks.emplace_back(reply->version, now);
      return;
    }
    case OpKind::kProcess: {
      Transaction txn = WriteTransaction(op, symbols);
      deddb::Result<deddb::server::ProcessReply> reply = [&] {
        ScopedSpan span(trace, kServedSpan[kind], op.id);
        return client->Process(txn);
      }();
      done();
      if (!reply.ok()) return fail(reply.status());
      ++sink->processed;
      if (reply->accepted) ++sink->accepted;
      if (reply->accepted != op.expect_accept) {
        sink->Problem(std::string("process: ") +
                      (reply->accepted ? "accepted" : "rejected") +
                      " a transaction the constraints " +
                      (op.expect_accept ? "accept" : "reject"));
      }
      return;
    }
  }
}

/// The change_feed subscriber: applies pushes to its two views until both
/// reach the fence version the main thread publishes.
struct Subscriber {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t target = 0;  // guarded by mu
  bool done = false;    // guarded by mu
  std::vector<std::pair<uint64_t, int64_t>> seen;  // (version, receive ns)
  uint64_t gap_events = 0;
  uint64_t problems = 0;
  std::string first_problem;

  void Run(Connections* conns) {
    for (;;) {
      deddb::Result<Client::PushEvent> push = conns->subscriber->AwaitPush();
      const int64_t now = NowNs();
      if (!push.ok()) {
        Note("push stream failed: " + push.status().ToString());
        break;
      }
      if (push->is_gap) {
        ++gap_events;
        Note("subscription gap");
        break;
      }
      deddb::sub::SubView* view = push->delta.sub_id == conns->unemp_sub
                                      ? &conns->unemp_view
                                      : &conns->alert_view;
      deddb::sub::DeltaBatch batch{push->delta.version, push->delta.inserts,
                                   push->delta.deletes};
      deddb::Status applied = view->Apply(batch);
      if (!applied.ok()) Note("view refused a delta: " + applied.ToString());
      seen.emplace_back(push->delta.version, now);
      std::lock_guard<std::mutex> lock(mu);
      if (target != 0 && conns->unemp_view.version() >= target &&
          conns->alert_view.version() >= target) {
        done = true;
        cv.notify_all();
        return;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }

  void Note(const std::string& what) {
    ++problems;
    if (first_problem.empty()) first_problem = what;
  }
};

}  // namespace

Connections ConnectAll(const Shape& shape, Stack* stack, Streams* streams) {
  Connections conns;
  for (size_t lane = 0; lane < shape.lanes; ++lane) {
    deddb::server::LoopbackNetwork* net =
        shape.lane_on_replica[lane] ? &stack->replica_net : &stack->net;
    conns.lanes.push_back(Connect(net));
    // Warm the connection and its session pin.
    Client* client = conns.lanes.back().get();
    const uint32_t someone =
        streams->partition(lane).empty() ? 0 : streams->partition(lane)[0];
    Must(client->Query({PersonAtom(&client->symbols(), "Unemp", someone)}),
         "warming a connection");
  }
  if (shape.feed) {
    conns.subscriber = Connect(&stack->net);
    Client* client = conns.subscriber.get();
    Client::SubscribeOptions options;
    options.max_queued = 4096;
    for (const char* view : {"Unemp", "Alert"}) {
      Atom pattern(client->symbols().Intern(view),
                   {client->Variable("x")});
      deddb::server::SubscribeReply reply =
          Must(client->Subscribe(pattern, options), "subscribing");
      if (std::string(view) == "Unemp") {
        conns.unemp_sub = reply.sub_id;
        conns.unemp_view.Reset(reply.version, reply.snapshot);
      } else {
        conns.alert_sub = reply.sub_id;
        conns.alert_view.Reset(reply.version, reply.snapshot);
      }
    }
  }
  return conns;
}

ServedRun Serve(const Shape& shape, Stack* stack, Connections* conns,
                Streams* streams, double seconds, bool traced) {
  ServedRun run;
  run.sinks.resize(shape.lanes);
  for (size_t lane = 0; lane < shape.lanes; ++lane) {
    run.traces.emplace_back(traced);
  }
  const int64_t run_ns = static_cast<int64_t>(seconds * 1e9);
  if (shape.closed_loop) {
    // Room for far more samples than a lane completes, reserved but not
    // touched: the buffers never double, so peak memory grows by the
    // samples taken, not by the last doubling.
    const size_t room = static_cast<size_t>(seconds * kSampleRoomPerLaneSecond);
    for (Sink& sink : run.sinks) {
      for (size_t k = 0; k < sink.latency_us.size(); ++k) {
        sink.latency_us[k].reserve(room);
        sink.due_ns[k].reserve(room);
      }
    }
  }
  const uint64_t seq_before = stack->db->persistence()->stats().last_seq;

  // Open-loop streams are generated in full before the clock starts.
  std::vector<Schedule> schedules(shape.lanes);
  std::vector<std::vector<Op>> planned(shape.lanes);
  if (!shape.closed_loop) {
    for (size_t lane = 0; lane < shape.lanes; ++lane) {
      Schedule& s = schedules[lane];
      s.interval_ns = static_cast<int64_t>(1e9 / shape.lane_rate[lane]);
      s.phase_ns = s.interval_ns * static_cast<int64_t>(lane) /
                   static_cast<int64_t>(shape.lanes);
      for (uint64_t i = 0; s.phase_ns + static_cast<int64_t>(i) * s.interval_ns <
                           run_ns;
           ++i) {
        planned[lane].push_back(streams->Next(lane));
      }
    }
  }

  Subscriber subscriber;
  std::thread subscriber_thread;
  if (shape.feed) {
    subscriber_thread = std::thread([&] { subscriber.Run(conns); });
  }

  const int64_t start = NowNs() + 20'000'000;
  const int64_t end = start + run_ns;
  run.start_ns = start;
  run.run_ns = run_ns;
  std::vector<int64_t> last_done(shape.lanes, start);
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < shape.lanes; ++lane) {
    threads.emplace_back([&, lane] {
      ReduceTimerSlack();
      Client* client = conns->lanes[lane].get();
      Sink* sink = &run.sinks[lane];
      TraceBuffer* trace = &run.traces[lane];
      if (shape.closed_loop) {
        SleepUntilNs(start);
        while (NowNs() < end) {
          Op op = streams->Next(lane);
          op.due_offset_ns = NowNs() - start;
          ServeOp(client, op, start + op.due_offset_ns, streams->initial(),
                  sink, trace);
          // Only the traced run replays its ops; an untraced closed loop
          // keeps none, so its peak memory does not grow with throughput.
          if (traced) sink->ops.push_back(std::move(op));
        }
      } else {
        Schedule schedule = schedules[lane];
        schedule.start_ns = start;
        schedule.end_ns = end;
        sink->late_us = RunOpenLoop(
            schedule, NowNs, SleepUntilNs, [&](uint64_t i, int64_t due) {
              Op& op = planned[lane][i];
              op.due_offset_ns = due - start;
              ServeOp(client, op, due, streams->initial(), sink, trace);
            });
        sink->ops = std::move(planned[lane]);
      }
      last_done[lane] = NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  run.elapsed_s =
      static_cast<double>(*std::max_element(last_done.begin(), last_done.end()) -
                          start) /
      1e9;

  if (!shape.closed_loop) {
    double offered = 0;
    size_t completed = 0;
    std::vector<std::vector<double>> late;
    for (size_t lane = 0; lane < shape.lanes; ++lane) {
      offered += shape.lane_rate[lane];
      completed += run.sinks[lane].ops.size();
      late.push_back(run.sinks[lane].late_us);
    }
    run.gen = JudgeOpenLoop(offered, completed, run.elapsed_s, late);
  }

  if (shape.feed) {
    // Fence writes until the subscriber has seen a version at or past the
    // last one; the fence runs under the subscriber's lock, so no fence can
    // land after the subscriber decided it was done.
    Client* writer = conns->lanes[0].get();
    uint64_t fences = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(subscriber.mu);
      if (subscriber.done) break;
      if (fences == 50) Die("change_feed: the subscriber never caught up");
      Op fence = streams->MakeFence();
      deddb::server::ApplyReply reply =
          Must(writer->Apply(WriteTransaction(fence, &writer->symbols())),
               "fence write");
      ++fences;
      subscriber.target = reply.version;
      subscriber.cv.wait_for(lock, std::chrono::milliseconds(200),
                             [&] { return subscriber.done; });
    }
    subscriber_thread.join();
    run.fences = fences;
    run.gap_events = subscriber.gap_events;
    run.subscriber_problems = subscriber.problems;
    run.subscriber_problem = subscriber.first_problem;

    // Push latency: writer's ack of version v -> subscriber receives v.
    const Sink& writes = run.sinks[0];
    std::map<uint64_t, int64_t> ack_by_version(writes.write_acks.begin(),
                                               writes.write_acks.end());
    for (const auto& [version, received] : subscriber.seen) {
      auto it = ack_by_version.find(version);
      if (it == ack_by_version.end()) continue;  // a fence
      run.push_us.push_back(static_cast<double>(received - it->second) / 1000.0);
    }

    // Replica lag: the k-th acknowledged write is WAL record seq_before+k+1
    // (the writer is the only committer); its lag ends at the first replica
    // reply whose applied_seq covers it.
    // (CheckFinalState verifies that the run logged exactly one record per
    // acknowledged write.)
    std::vector<std::pair<int64_t, uint64_t>> replies;
    for (size_t lane = 1; lane < shape.lanes; ++lane) {
      replies.insert(replies.end(), run.sinks[lane].replica_seen.begin(),
                     run.sinks[lane].replica_seen.end());
    }
    std::sort(replies.begin(), replies.end());
    size_t next = 0;
    for (size_t k = 0; k < writes.write_acks.size(); ++k) {
      const uint64_t seq = seq_before + k + 1;
      while (next < replies.size() && replies[next].second < seq) ++next;
      if (next == replies.size()) break;
      run.lag_us.push_back(
          static_cast<double>(replies[next].first - writes.write_acks[k].second) /
          1000.0);
    }
  }
  run.commits = stack->db->persistence()->stats().last_seq - seq_before;
  return run;
}

void CheckFinalState(const Shape& shape, Stack* stack, Connections* conns,
                     const Streams& streams, const ServedRun& run,
                     std::vector<std::string>* problems) {
  for (const Sink& sink : run.sinks) {
    if (sink.mismatches > 0) {
      problems->push_back(std::to_string(sink.mismatches) +
                          " wrong replies, first: " + sink.first_problem);
    }
  }
  // Exactly once: one WAL record per acknowledged tokened write.
  uint64_t acknowledged = run.fences;
  for (const Sink& sink : run.sinks) {
    acknowledged += sink.write_acks.size() + sink.accepted;
  }
  if (run.commits != acknowledged) {
    problems->push_back("the run logged " + std::to_string(run.commits) +
                        " commits for " + std::to_string(acknowledged) +
                        " acknowledged writes");
  }
  // The final base facts and views of the writers' partitions, as the
  // model (which applied every acknowledged write exactly once) says.
  std::set<std::string> expected_unemp, expected_alert;
  const std::vector<Person>& model = streams.model();
  for (uint32_t p = 0; p < model.size(); ++p) {
    if (model[p].unemp()) expected_unemp.insert(deddb::workload::PersonName(p));
    if (model[p].alert()) expected_alert.insert(deddb::workload::PersonName(p));
  }
  auto names = [](const std::vector<deddb::Tuple>& tuples,
                  const deddb::SymbolTable& symbols) {
    std::set<std::string> out;
    for (const deddb::Tuple& t : tuples) out.insert(symbols.NameOf(t[0]));
    return out;
  };

  // Every view of the primary equals the model.
  {
    std::unique_ptr<Client> client = Connect(&stack->net);
    Atom unemp(client->symbols().Intern("Unemp"), {client->Variable("x")});
    Atom alert(client->symbols().Intern("Alert"), {client->Variable("x")});
    deddb::Result<deddb::server::QueryReply> reply =
        client->Query({unemp, alert});
    if (!reply.ok()) {
      problems->push_back("final query failed: " + reply.status().ToString());
    } else {
      if (names(reply->answers[0], client->symbols()) != expected_unemp) {
        problems->push_back("final Unemp extension differs from the model");
      }
      if (names(reply->answers[1], client->symbols()) != expected_alert) {
        problems->push_back("final Alert extension differs from the model");
      }
    }
    client->Close();
  }

  if (shape.feed) {
    if (run.subscriber_problems > 0) {
      problems->push_back("subscriber: " + run.subscriber_problem);
    }
    const deddb::SymbolTable& symbols = conns->subscriber->symbols();
    if (names(conns->unemp_view.tuples(), symbols) != expected_unemp) {
      problems->push_back("subscriber's Unemp view differs from the primary");
    }
    if (names(conns->alert_view.tuples(), symbols) != expected_alert) {
      problems->push_back("subscriber's Alert view differs from the primary");
    }
    // The replica, once caught up, holds exactly the primary's state.
    const uint64_t last = stack->db->persistence()->stats().last_seq;
    const int64_t give_up = NowNs() + 30'000'000'000LL;
    while (stack->replica->replica_status().applied_seq < last) {
      if (NowNs() > give_up) {
        problems->push_back("the replica never caught up with the primary");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (RenderState(stack->replica_db.get()) != RenderState(stack->db.get())) {
      problems->push_back("the replica's state differs from the primary's");
    }
  }
}

}  // namespace perfbench
