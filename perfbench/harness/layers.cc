// The traced run's direct lanes: the served run's recorded streams replayed
// against each layer's public functions with no server in between, timed by
// spans taken here, and the per-op self-time table built from them.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

#include "common.h"
#include "core/update_processor.h"
#include "internal.h"
#include "persist/manager.h"
#include "persist/wal.h"
#include "server/protocol.h"
#include "sub/manager.h"
#include "workload/employment.h"

namespace perfbench {

using deddb::DeductiveDatabase;
using deddb::Session;
namespace proto = deddb::server;

namespace {

// Ops per lane a closed-loop workload's direct replay runs.
constexpr size_t kClosedLoopReplay = 3000;


/// Counts the lanes make where the work happens.
struct LaneCounts {
  uint64_t pins = 0;
  uint64_t new_version_pins = 0;
  uint64_t patterns = 0;
  uint64_t answers = 0;
  uint64_t translate_requests = 0;
  uint64_t translations = 0;
  uint64_t upward_txns = 0;
  uint64_t induced_events = 0;
  uint64_t processed = 0;
  uint64_t accepted = 0;
  uint64_t mismatches = 0;
  std::string first_problem;

  void Problem(const std::string& what) {
    ++mismatches;
    if (first_problem.empty()) first_problem = what;
  }
};

/// State shared by the lanes: the measured database, a mirror that receives
/// the same writes untimed (it hosts the diagnostic calls, whose snapshot
/// pins would otherwise add copy-on-write work to the measured writes, and
/// the reads the served run sent to the replica), the single-writer lock
/// the facade's contract asks for, and the armed CDC manager that every
/// other write runs with (the commit tax is the difference).
struct DirectShared {
  DeductiveDatabase* db = nullptr;
  DeductiveDatabase* mirror = nullptr;
  bool translate_in_stream = false;
  std::mutex writer_mu;
  uint64_t writes = 0;           // guarded by writer_mu
  uint64_t armed_writes = 0;     // guarded by writer_mu
  deddb::sub::SubscriptionManager* cdc = nullptr;
  const std::vector<Person>* initial = nullptr;
};

std::unique_ptr<Session> Pin(DeductiveDatabase* db, TraceBuffer* trace,
                             uint64_t request, uint64_t* last_version,
                             LaneCounts* counts) {
  std::unique_ptr<Session> session;
  {
    ScopedSpan span(trace, "core.pin", request);
    session = Must(db->BeginSession(), "BeginSession");
  }
  ++counts->pins;
  if (session->version() != *last_version) ++counts->new_version_pins;
  *last_version = session->version();
  return session;
}

/// The upward interpretation of a write on the pre-state, and (for
/// workloads with no Translate requests) the downward interpretation of a
/// view update on the write's first person: diagnostic roots, outside the
/// op's own path.
void WriteDiagnostics(const Op& op, DirectShared* shared, TraceBuffer* trace,
                      LaneCounts* counts) {
  DeductiveDatabase* db = shared->mirror;
  uint64_t mirror_version = 0;  // diagnostic pins stay out of the pin ratio
  LaneCounts pins;
  deddb::Transaction txn = WriteTransaction(op, &db->symbols());
  {
    ScopedSpan root(trace, "diag.upward", op.id);
    std::unique_ptr<Session> session =
        Pin(db, trace, op.id, &mirror_version, &pins);
    deddb::DerivedEvents induced;
    {
      ScopedSpan span(trace, "interp.upward", op.id);
      induced = Must(session->InducedEvents(txn), "InducedEvents");
    }
    ++counts->upward_txns;
    counts->induced_events += induced.size();
  }
  if (!shared->translate_in_stream) {
    ScopedSpan root(trace, "diag.downward", op.id);
    std::unique_ptr<Session> session =
        Pin(db, trace, op.id, &mirror_version, &pins);
    Op probe;
    probe.people = {op.events[0].person};
    const std::string person = deddb::workload::PersonName(probe.people[0]);
    probe.translate_insert = !Must(
        session->Holds(Must(session->GroundAtom("Unemp", {person}), "atom")),
        "Holds");
    deddb::UpdateRequest request = TranslateRequestFor(probe, &db->symbols());
    deddb::problems::DownwardResult result;
    {
      ScopedSpan span(trace, "interp.downward", op.id);
      result = Must(session->TranslateViewUpdate(request),
                    "TranslateViewUpdate");
    }
    ++counts->translate_requests;
    counts->translations += result.translations.size();
  }
}

/// Applies a measured write to the mirror too (untimed), so the mirror
/// tracks the measured database's state.
void MirrorWrite(const Op& op, DirectShared* shared,
                 deddb::UpdateProcessor* mirror_processor) {
  deddb::Transaction txn = WriteTransaction(op, &shared->mirror->symbols());
  std::lock_guard<std::mutex> writer(shared->writer_mu);
  if (op.kind == OpKind::kApply) {
    MustOk(shared->mirror->Apply(txn), "mirror Apply");
  } else {
    Must(mirror_processor->ProcessTransaction(txn), "mirror Process");
  }
}

/// One op through the direct path. Reads go to `read_db` (the measured
/// database, or the mirror for reads the served run sent to the replica).
void RunDirectOp(const Op& op, uint64_t lane_client, DirectShared* shared,
                 DeductiveDatabase* read_db,
                 deddb::SymbolTable* client_symbols,
                 deddb::UpdateProcessor* processor,
                 deddb::UpdateProcessor* mirror_processor, TraceBuffer* trace,
                 uint64_t* last_version, LaneCounts* counts) {
  DeductiveDatabase* db = shared->db;
  deddb::SymbolTable* server_symbols = &db->symbols();
  const size_t kind = static_cast<size_t>(op.kind);
  if (op.kind == OpKind::kApply || op.kind == OpKind::kProcess) {
    WriteDiagnostics(op, shared, trace, counts);
  }
  ScopedSpan root(trace, kOpSpan[kind], op.id);
  switch (op.kind) {
    case OpKind::kQuery: {
      proto::QueryRequest request;
      request.patterns = QueryPatterns(op, client_symbols);
      std::optional<proto::QueryRequest> decoded;
      {
        ScopedSpan span(trace, "server.codec", op.id);
        decoded = Must(proto::DecodeQueryRequest(
                           proto::EncodeQueryRequest(request, *client_symbols),
                           server_symbols),
                       "query codec");
      }
      std::unique_ptr<Session> session =
          Pin(read_db, trace, op.id, last_version, counts);
      proto::QueryReply reply;
      reply.version = session->version();
      for (const deddb::Atom& pattern : decoded->patterns) {
        ScopedSpan span(trace, "eval.solve", op.id);
        reply.answers.push_back(Must(session->Solve(pattern), "Solve"));
      }
      std::optional<proto::QueryReply> received;
      {
        ScopedSpan span(trace, "server.codec", op.id);
        received = Must(proto::DecodeQueryReply(
                            proto::EncodeQueryReply(reply, *server_symbols),
                            client_symbols),
                        "query reply codec");
      }
      counts->patterns += received->answers.size();
      for (size_t i = 0; i < received->answers.size(); ++i) {
        counts->answers += received->answers[i].size();
        if (received->answers[i].empty() == op.expect[i]) {
          counts->Problem("direct query: wrong answer");
        }
      }
      return;
    }
    case OpKind::kTranslate: {
      proto::TranslateRequest request;
      request.request = TranslateRequestFor(op, client_symbols);
      std::optional<proto::TranslateRequest> decoded;
      {
        ScopedSpan span(trace, "server.codec", op.id);
        decoded = Must(proto::DecodeTranslateRequest(
                           proto::EncodeTranslateRequest(request,
                                                         *client_symbols),
                           server_symbols),
                       "translate codec");
      }
      std::unique_ptr<Session> session =
          Pin(read_db, trace, op.id, last_version, counts);
      deddb::problems::DownwardResult result;
      {
        ScopedSpan span(trace, "interp.downward", op.id);
        result = Must(session->TranslateViewUpdate(decoded->request),
                      "TranslateViewUpdate");
      }
      proto::TranslateReply reply;
      reply.approximate = result.approximate;
      for (const deddb::problems::Translation& t : result.translations) {
        reply.alternatives.push_back(t.transaction);
      }
      std::optional<proto::TranslateReply> received;
      {
        ScopedSpan span(trace, "server.codec", op.id);
        received = Must(proto::DecodeTranslateReply(
                            proto::EncodeTranslateReply(reply, *server_symbols),
                            client_symbols),
                        "translate reply codec");
      }
      ++counts->translate_requests;
      counts->translations += received->alternatives.size();
      if (RenderTranslations(received->alternatives, *client_symbols) !=
          ExpectedTranslations(op, *shared->initial)) {
        counts->Problem("direct translate: wrong translations");
      }
      return;
    }
    case OpKind::kApply:
    case OpKind::kProcess: {
      const deddb::persist::CommitToken token{lane_client, op.id + 1};
      deddb::Transaction txn;
      {
        ScopedSpan span(trace, "server.codec", op.id);
        if (op.kind == OpKind::kApply) {
          proto::ApplyRequest request{{}, WriteTransaction(op, client_symbols),
                                      token};
          txn = Must(proto::DecodeApplyRequest(
                         proto::EncodeApplyRequest(request, *client_symbols),
                         server_symbols),
                     "apply codec")
                    .transaction;
        } else {
          proto::ProcessRequest request{
              {}, WriteTransaction(op, client_symbols), token};
          txn = Must(proto::DecodeProcessRequest(
                         proto::EncodeProcessRequest(request, *client_symbols),
                         server_symbols),
                     "process codec")
                    .transaction;
        }
      }
      bool accepted = true;
      uint64_t version = 0;
      {
        std::lock_guard<std::mutex> writer(shared->writer_mu);
        // Every other write runs with the armed CDC manager attached.
        const bool armed = (shared->writes++ % 2) == 1;
        if (armed) {
          ++shared->armed_writes;
          db->set_commit_observer(shared->cdc);
        }
        if (op.kind == OpKind::kApply) {
          ScopedSpan span(trace, armed ? "core.apply.cdc" : "core.apply",
                          op.id);
          db->LookupCommitToken(token);
          MustOk(db->Apply(txn, token), "Apply");
        } else {
          ScopedSpan span(trace, armed ? "core.process.cdc" : "core.process",
                          op.id);
          db->LookupCommitToken(token);
          processor->set_commit_token(token);
          accepted = Must(processor->ProcessTransaction(txn),
                          "ProcessTransaction")
                         .accepted;
        }
        version = db->version();
        if (armed) db->set_commit_observer(nullptr);
      }
      {
        ScopedSpan span(trace, "server.codec", op.id);
        if (op.kind == OpKind::kApply) {
          Must(proto::DecodeApplyReply(proto::EncodeApplyReply({version})),
               "apply reply codec");
        } else {
          proto::ProcessReply reply;
          reply.version = version;
          reply.accepted = accepted;
          Must(proto::DecodeProcessReply(proto::EncodeProcessReply(reply)),
               "process reply codec");
        }
      }
      MirrorWrite(op, shared, mirror_processor);
      if (op.kind == OpKind::kProcess) {
        ++counts->processed;
        if (accepted) ++counts->accepted;
        if (accepted != op.expect_accept) {
          counts->Problem("direct process: wrong verdict");
        }
      } else {
        ++counts->processed;
        ++counts->accepted;
      }
      return;
    }
  }
}

double MedianOf(const std::map<std::string, std::vector<double>>& layers,
                const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0 : Median(it->second);
}

/// Median of every sample of `layer` under every root whose name starts
/// with `prefix`.
double MedianAcross(const std::map<std::string, SelfTimes>& agg,
                    const std::string& prefix, const std::string& layer) {
  std::vector<double> all;
  for (const auto& [root, times] : agg) {
    if (root.rfind(prefix, 0) != 0) continue;
    auto it = times.layer_us.find(layer);
    if (it != times.layer_us.end()) {
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return Median(all);
}

/// Histogram {count, sum} of `name` inside a Stats reply's metrics block.
std::pair<double, double> JsonHistogram(const std::string& json,
                                        const std::string& name) {
  const size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return {0, 0};
  const std::string tail = json.substr(at);
  return {JsonField(tail, "count"), JsonField(tail, "sum")};
}

}  // namespace

double JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::vector<Metric> MeasureLayers(const Shape& shape, Stack* served,
                                  Stack* direct, Stack* mirror,
                                  const ServedRun& traced,
                                  const ServedRun& untraced,
                                  const std::string& stats_json,
                                  const std::string& span_path,
                                  std::vector<std::string>* problems) {
  // ---- Direct lanes: same streams, same lane count, same pacing. ----
  DirectShared shared;
  shared.db = direct->db.get();
  shared.mirror = mirror->db.get();
  shared.initial = &direct->initial;
  for (const Sink& sink : traced.sinks) {
    for (const Op& op : sink.ops) {
      if (op.kind == OpKind::kTranslate) shared.translate_in_stream = true;
    }
  }
  deddb::sub::SubscriptionManager cdc;
  shared.cdc = &cdc;
  for (const char* view : {"Unemp", "Alert"}) {
    deddb::sub::SubscriptionSpec spec;
    spec.predicate =
        Must(direct->db->database().FindPredicate(view), "view predicate");
    spec.filter = {std::nullopt};
    spec.derived = true;
    spec.max_queued = size_t{1} << 20;
    cdc.Activate(cdc.Register(spec, /*owner=*/1), direct->db->version());
  }
  uint64_t deltas_popped = 0;
  std::thread drain([&] {
    while (cdc.WaitPop().has_value()) ++deltas_popped;
  });

  std::vector<TraceBuffer> lane_traces;
  std::vector<LaneCounts> counts(shape.lanes);
  for (size_t lane = 0; lane < shape.lanes; ++lane) lane_traces.emplace_back(true);
  const int64_t start = NowNs() + 20'000'000;
  std::vector<std::thread> lanes;
  for (size_t lane = 0; lane < shape.lanes; ++lane) {
    lanes.emplace_back([&, lane] {
      ReduceTimerSlack();
      deddb::SymbolTable client_symbols;
      deddb::UpdateProcessor processor(direct->db.get());
      deddb::UpdateProcessor mirror_processor(mirror->db.get());
      DeductiveDatabase* read_db = shape.lane_on_replica[lane]
                                       ? mirror->db.get()
                                       : direct->db.get();
      uint64_t last_version = 0;
      const uint64_t client = NextClientId();
      const std::vector<Op>& ops = traced.sinks[lane].ops;
      // A closed-loop stream replays back to back; its first part is
      // enough for medians and keeps the traced run short.
      const size_t count = shape.closed_loop
                               ? std::min(ops.size(), kClosedLoopReplay)
                               : ops.size();
      for (size_t i = 0; i < count; ++i) {
        const Op& op = ops[i];
        if (!shape.closed_loop) SleepUntilNs(start + op.due_offset_ns);
        RunDirectOp(op, client, &shared, read_db, &client_symbols, &processor,
                    &mirror_processor, &lane_traces[lane], &last_version,
                    &counts[lane]);
      }
    });
  }
  for (std::thread& t : lanes) t.join();
  cdc.Shutdown();
  drain.join();

  // ---- Scratch WAL writer: group-commit headroom at the run's record size.
  const deddb::persist::PersistenceManager::Stats persisted =
      served->db->persistence()->stats();
  const double commits_total =
      static_cast<double>(persisted.last_seq - served->base_seq);
  const double wal_bytes_per_commit =
      commits_total > 0 ? static_cast<double>(persisted.wal_durable_bytes) /
                              commits_total
                        : 0;
  std::vector<TraceBuffer> wal_traces;
  uint64_t wal_commits = 0;
  uint64_t wal_fsyncs = 0;
  {
    std::unique_ptr<deddb::persist::WalWriter> wal = Must(
        deddb::persist::WalWriter::Create(direct->root + "/scratch.wal", 0,
                                          {.group_commit = true}),
        "creating the scratch WAL");
    const std::string payload(
        static_cast<size_t>(std::max(16.0, wal_bytes_per_commit)), 'x');
    constexpr size_t kWalCommitsPerThread = 500;
    for (size_t t = 0; t < 4; ++t) wal_traces.emplace_back(true);
    std::vector<std::thread> writers;
    for (size_t t = 0; t < 4; ++t) {
      writers.emplace_back([&, t] {
        for (size_t i = 0; i < kWalCommitsPerThread; ++i) {
          ScopedSpan root(&wal_traces[t], "diag.wal", i);
          ScopedSpan span(&wal_traces[t], "persist.wal_commit", i);
          deddb::persist::WalWriter::Ticket ticket =
              Must(wal->Enqueue(payload), "WAL enqueue");
          MustOk(wal->WaitDurable(ticket, {}), "WAL durable wait");
        }
      });
    }
    for (std::thread& t : writers) t.join();
    wal_commits = 4 * kWalCommitsPerThread;
    wal_fsyncs = wal->fsyncs();
  }

  // ---- Scratch replica: replay the served run's WAL feed. ----
  TraceBuffer repl_trace(true);
  {
    std::unique_ptr<DeductiveDatabase> replica =
        Must(DeductiveDatabase::OpenPersistent(served->checkpoint_copy),
             "opening the scratch replica");
    MustOk(replica->EnterReplicaMode(), "scratch replica mode");
    Must(replica->Compiled(), "compiling the scratch replica's rules");
    uint64_t from = served->base_seq;
    for (;;) {
      deddb::persist::PersistenceManager::FeedBatch batch =
          Must(served->db->persistence()->ReadFeedRecords(from, 512, 1u << 20),
               "reading the WAL feed");
      if (batch.records.empty()) break;
      for (const auto& record : batch.records) {
        ScopedSpan root(&repl_trace, "diag.repl", record.seq);
        ScopedSpan span(&repl_trace, "repl.apply", record.seq);
        Must(replica->ApplyReplicated(record.payload), "ApplyReplicated");
        from = record.seq;
      }
    }
    if (RenderState(replica.get()) != RenderState(served->db.get())) {
      problems->push_back("the scratch replica's state differs from the "
                          "primary's after replaying its feed");
    }
  }

  // ---- Aggregate. ----
  std::vector<const TraceBuffer*> buffers;
  for (const TraceBuffer& b : traced.traces) buffers.push_back(&b);
  for (const TraceBuffer& b : lane_traces) buffers.push_back(&b);
  for (const TraceBuffer& b : wal_traces) buffers.push_back(&b);
  buffers.push_back(&repl_trace);
  if (!WriteSpans(buffers, span_path)) {
    problems->push_back("could not write the span file " + span_path);
  }
  const std::map<std::string, SelfTimes> agg = AggregateSelfTimes(buffers);

  LaneCounts total;
  for (const LaneCounts& c : counts) {
    total.pins += c.pins;
    total.new_version_pins += c.new_version_pins;
    total.patterns += c.patterns;
    total.answers += c.answers;
    total.translate_requests += c.translate_requests;
    total.translations += c.translations;
    total.upward_txns += c.upward_txns;
    total.induced_events += c.induced_events;
    total.processed += c.processed;
    total.accepted += c.accepted;
    if (c.mismatches > 0) {
      problems->push_back(std::to_string(c.mismatches) +
                          " wrong direct results, first: " + c.first_problem);
    }
  }

  const double write_plain = MedianAcross(agg, "op.", "core.apply") +
                             MedianAcross(agg, "op.", "core.process");
  const double write_armed = MedianAcross(agg, "op.", "core.apply.cdc") +
                             MedianAcross(agg, "op.", "core.process.cdc");
  const double commit_tax = write_armed - write_plain;

  const auto queue_wait = JsonHistogram(stats_json, "server.queue_wait_us");
  const auto write_exec = JsonHistogram(stats_json, "server.write_exec_us");
  const double queue_wait_mean =
      queue_wait.first > 0 ? queue_wait.second / queue_wait.first : 0;
  const double write_exec_mean =
      write_exec.first > 0 ? write_exec.second / write_exec.first : 0;

  // ---- The per-op table: path rows + server.overhead = served median. ----
  std::printf("\n== %s: per-layer self time, traced run (us, medians) ==\n",
              shape.name.c_str());
  double headline_overhead = 0;
  for (size_t kind = 0; kind < 4; ++kind) {
    auto op_it = agg.find(kOpSpan[kind]);
    auto served_it = agg.find(kServedSpan[kind]);
    if (op_it == agg.end() || served_it == agg.end()) continue;
    const SelfTimes& ops = op_it->second;
    const double served_median = Median(served_it->second.root_us);
    std::vector<std::pair<std::string, double>> rows;
    rows.emplace_back("server.codec", MedianOf(ops.layer_us, "server.codec"));
    const OpKind op_kind = static_cast<OpKind>(kind);
    if (op_kind == OpKind::kQuery || op_kind == OpKind::kTranslate) {
      rows.emplace_back("core.pin", MedianOf(ops.layer_us, "core.pin"));
      rows.emplace_back(op_kind == OpKind::kQuery ? "eval.solve"
                                                  : "interp.downward",
                        MedianOf(ops.layer_us, op_kind == OpKind::kQuery
                                                   ? "eval.solve"
                                                   : "interp.downward"));
    } else {
      const char* layer =
          op_kind == OpKind::kApply ? "core.apply" : "core.process";
      rows.emplace_back(layer, MedianOf(ops.layer_us, layer));
      // The served writer runs with CDC armed only on change_feed.
      if (shape.feed) rows.emplace_back("sub.commit_tax", commit_tax);
    }
    double sum = 0;
    for (const auto& row : rows) sum += row.second;
    const double overhead = served_median - sum;
    rows.emplace_back("server.overhead", overhead);
    if (op_kind == shape.headline) headline_overhead = overhead;
    std::printf("op %-9s  n=%zu  served median %.1f us\n", OpName(op_kind),
                served_it->second.root_us.size(), served_median);
    const auto largest = std::max_element(
        rows.begin(), rows.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    for (const auto& [name, us] : rows) {
      std::printf("  %-18s %10.1f  %5.1f%%\n", name.c_str(), us,
                  served_median > 0 ? 100.0 * us / served_median : 0);
    }
    if (op_kind == OpKind::kApply || op_kind == OpKind::kProcess) {
      std::printf("  largest layer in write latency: %s (%.1f of %.1f us)\n",
                  largest->first.c_str(), largest->second, served_median);
      std::printf("  server.overhead includes the writer queue wait (Stats "
                  "server.queue_wait_us mean %.1f us) and the served "
                  "writer's time beyond the direct layers (Stats "
                  "server.write_exec_us mean %.1f us)\n",
                  queue_wait_mean, write_exec_mean);
      std::printf(
          "  inside %s (diagnostic lanes): interp.upward %.1f us, "
          "persist.wal_commit %.1f us\n",
          op_kind == OpKind::kApply ? "core.apply" : "core.process",
          MedianAcross(agg, "diag.upward", "interp.upward"),
          MedianAcross(agg, "diag.wal", "persist.wal_commit"));
    }
    // Tracing overhead: the same op's client latency, traced vs untraced.
    std::vector<double> traced_lat, untraced_lat;
    for (const Sink& s : traced.sinks) {
      traced_lat.insert(traced_lat.end(), s.latency_us[kind].begin(),
                        s.latency_us[kind].end());
    }
    for (const Sink& s : untraced.sinks) {
      untraced_lat.insert(untraced_lat.end(), s.latency_us[kind].begin(),
                          s.latency_us[kind].end());
    }
    const double t_med = Median(traced_lat);
    const double u_med = Median(untraced_lat);
    std::printf("  tracing overhead: %.1f us (traced %.1f vs untraced %.1f "
                "us client latency)\n",
                t_med - u_med, t_med, u_med);
  }

  // ---- Server, CDC and replication counters from the public surfaces. ----
  const double requests = JsonField(stats_json, "requests_read") +
                          JsonField(stats_json, "requests_write");
  const double rejected = JsonField(stats_json, "rejected_overload") +
                          JsonField(stats_json, "rejected_quota") +
                          JsonField(stats_json, "rejected_shutdown") +
                          JsonField(stats_json, "rejected_degraded");
  std::printf("server: rejected_ratio %.6f (%.0f of %.0f requests)\n",
              requests > 0 ? rejected / requests : 0, rejected, requests);
  if (shape.feed) {
    const double observed = JsonField(stats_json, "commits_observed");
    std::printf(
        "sub (served Stats): deltas_pushed_per_commit %.3f, gap_events %.0f\n",
        observed > 0 ? JsonField(stats_json, "deltas_pushed") / observed : 0,
        JsonField(stats_json, "gap_events"));
    const deddb::repl::Replica::Stats rs = served->replica->stats();
    std::printf("repl: records_per_batch %.2f, reconnects %llu\n",
                rs.batches_applied > 0
                    ? static_cast<double>(rs.records_applied) /
                          static_cast<double>(rs.batches_applied)
                    : 0,
                static_cast<unsigned long long>(rs.reconnects));
  }

  auto ratio = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
  };
  const double solve_per_query = MedianOf(
      agg.count("op.query") ? agg.at("op.query").layer_us
                            : std::map<std::string, std::vector<double>>{},
      "eval.solve");
  return {
      {"server.codec_us", MedianAcross(agg, "op.", "server.codec"), "us"},
      {"server.overhead_us", headline_overhead, "us"},
      {"server.queue_wait_us", queue_wait_mean, "us"},
      {"server.write_exec_us", write_exec_mean, "us"},
      {"core.pin_us", MedianAcross(agg, "op.", "core.pin"), "us"},
      {"core.pin_new_version_ratio",
       ratio(total.new_version_pins, total.pins), "ratio"},
      {"core.write_us", write_plain, "us"},
      {"core.accept_ratio", ratio(total.accepted, total.processed), "ratio"},
      {"eval.solve_us", solve_per_query, "us"},
      {"eval.answers_per_query", ratio(total.answers, total.patterns),
       "count"},
      {"interp.upward_us", MedianAcross(agg, "diag.upward", "interp.upward"),
       "us"},
      {"interp.induced_events_per_txn",
       ratio(total.induced_events, total.upward_txns), "count"},
      {"interp.downward_us", MedianAcross(agg, "", "interp.downward"), "us"},
      {"interp.translations_per_request",
       ratio(total.translations, total.translate_requests), "count"},
      {"events.compile_us", served->compile_us, "us"},
      {"persist.wal_commit_us",
       MedianAcross(agg, "diag.wal", "persist.wal_commit"), "us"},
      {"persist.commits_per_fsync", ratio(wal_commits, wal_fsyncs), "count"},
      {"persist.wal_bytes_per_commit", wal_bytes_per_commit, "bytes"},
      {"persist.checkpoint_s", served->checkpoint_s, "s"},
      {"sub.commit_tax_us", commit_tax, "us"},
      {"sub.deltas_pushed_per_commit",
       ratio(deltas_popped, shared.armed_writes), "count"},
      {"repl.apply_us", MedianAcross(agg, "diag.repl", "repl.apply"), "us"},
  };
}

}  // namespace perfbench
