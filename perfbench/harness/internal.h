// Declarations shared by the benchmark's translation units: the service
// stack, the per-workload request streams, the served run and the direct
// (serverless) layer lanes.
#ifndef DEDDB_PERFBENCH_INTERNAL_H_
#define DEDDB_PERFBENCH_INTERNAL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/deductive_database.h"
#include "gen.h"
#include "obs/metrics.h"
#include "repl/replica.h"
#include "runs.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "sub/view.h"
#include "trace.h"

namespace perfbench {

// ---- Workload shapes -------------------------------------------------------------

/// Everything that distinguishes one workload's stack and streams.
struct Shape {
  std::string name;
  size_t people = 0;
  bool materialize_unemp = false;
  bool closed_loop = false;
  /// change_feed: a subscriber connection and a replica behind its own
  /// server with two reader connections.
  bool feed = false;
  /// Request-stream lanes (one client connection and thread each).
  size_t lanes = 4;
  /// Open loop: offered requests per second of each lane.
  std::vector<double> lane_rate;
  /// Lanes whose connection goes to the replica's server.
  std::vector<bool> lane_on_replica;
  /// The op whose latency the server.overhead_us metric explains.
  OpKind headline = OpKind::kQuery;
};

Shape ShapeFor(const std::string& workload);

// ---- Streams ----------------------------------------------------------------------

/// The seeded request generator of one workload. Lanes own disjoint write
/// partitions, so per-lane generation can run on the lane's own thread.
class Streams {
 public:
  Streams(const Shape& shape, uint64_t seed, std::vector<Person> initial);

  /// The next request of `lane` (advancing that lane's generator and, for a
  /// write expected to succeed, the model).
  Op Next(size_t lane);

  /// change_feed's fence write: an employment toggle of a skilled person
  /// outside the writer lane's partition, so both Unemp and Alert change.
  Op MakeFence();

  const std::vector<Person>& initial() const { return initial_; }
  const std::vector<Person>& model() const { return model_; }
  const std::vector<uint32_t>& partition(size_t lane) const {
    return partitions_[lane];
  }

 private:
  uint32_t HotPerson(deddb::Rng* rng) const;
  uint32_t AnyReadOnlyPerson(deddb::Rng* rng) const;

  Shape shape_;
  std::vector<Person> initial_;
  std::vector<Person> model_;
  std::vector<deddb::Rng> rngs_;
  std::vector<uint64_t> next_id_;
  /// People nobody writes, and their popularity order for the Zipf draw.
  std::vector<uint32_t> read_only_;
  Zipf zipf_;
  std::vector<std::vector<uint32_t>> partitions_;
  uint32_t fence_person_ = 0;
};

// ---- The service stack --------------------------------------------------------------

/// A persistent employment database (group commit on), optionally served,
/// optionally with a replica. Destruction stops everything and removes the
/// stack's directories.
struct Stack {
  ~Stack();

  std::string root;  // removed on destruction
  std::unique_ptr<deddb::DeductiveDatabase> db;
  std::vector<Person> initial;
  uint64_t base_seq = 0;
  double compile_us = 0;
  double checkpoint_s = 0;

  deddb::obs::MetricsRegistry metrics;
  deddb::server::LoopbackNetwork net;
  std::unique_ptr<deddb::server::Server> server;

  std::unique_ptr<deddb::DeductiveDatabase> replica_db;
  std::unique_ptr<deddb::repl::Replica> replica;
  deddb::server::LoopbackNetwork replica_net;
  std::unique_ptr<deddb::server::Server> replica_server;

  /// A copy of the checkpoint taken at set-up, for the traced run's scratch
  /// replica (empty when not made).
  std::string checkpoint_copy;
};

struct StackOptions {
  bool serve = true;
  /// Attach `Stack::metrics` to the servers (traced run only).
  bool metrics = false;
  bool checkpoint_copy = false;
};

/// Opens/loads/checkpoints the database, compiles the event rules, builds
/// the active domain and the first session, and (with `serve`) starts the
/// servers and the replica and waits for the replica to catch up.
std::unique_ptr<Stack> BuildStack(const Shape& shape, uint64_t seed,
                                  const std::string& root,
                                  const StackOptions& options);

/// Fresh unique client id (tokens of distinct connections never alias).
uint64_t NextClientId();

/// A connected client on `net`, tokened, one attempt per request so every
/// failure is counted.
std::unique_ptr<deddb::server::Client> Connect(
    deddb::server::LoopbackNetwork* net);

// ---- Served runs -----------------------------------------------------------------------

/// Root span names, by OpKind: a client call in the served run, and the
/// same request's direct replay.
inline constexpr std::array<const char*, 4> kServedSpan = {
    "served.query", "served.translate", "served.apply", "served.process"};
inline constexpr std::array<const char*, 4> kOpSpan = {
    "op.query", "op.translate", "op.apply", "op.process"};

/// One lane's results.
struct Sink {
  std::array<std::vector<double>, 4> latency_us;  // by OpKind
  std::array<std::vector<int64_t>, 4> due_ns;     // parallel to latency_us
  std::vector<double> late_us;                    // open loop only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t processed = 0;
  uint64_t accepted = 0;
  std::string first_problem;
  /// Apply acks: (reply version, receive time ns).
  std::vector<std::pair<uint64_t, int64_t>> write_acks;
  /// Replica query replies: (receive time ns, applied_seq).
  std::vector<std::pair<int64_t, uint64_t>> replica_seen;
  /// The ops served, in order (the traced run replays them directly); an
  /// untraced closed loop keeps none.
  std::vector<Op> ops;

  void Problem(const std::string& what);
};

/// The connected clients of a served run; made at set-up.
struct Connections {
  std::vector<std::unique_ptr<deddb::server::Client>> lanes;
  std::unique_ptr<deddb::server::Client> subscriber;
  uint64_t unemp_sub = 0;
  uint64_t alert_sub = 0;
  deddb::sub::SubView unemp_view;
  deddb::sub::SubView alert_view;
};

Connections ConnectAll(const Shape& shape, Stack* stack, Streams* streams);

/// Results of one served run across lanes.
struct ServedRun {
  std::vector<Sink> sinks;
  int64_t start_ns = 0;
  int64_t run_ns = 0;
  double elapsed_s = 0;
  GenReport gen;  // open loop only
  /// change_feed: push and replica-lag samples (µs) and subscriber health.
  std::vector<double> push_us;
  std::vector<double> lag_us;
  uint64_t gap_events = 0;
  /// WAL records the run committed, and change_feed's fence writes.
  uint64_t commits = 0;
  uint64_t fences = 0;
  uint64_t subscriber_problems = 0;
  std::string subscriber_problem;
  std::vector<TraceBuffer> traces;
};

/// Serves every lane's stream for `seconds` (open loop on the workload's
/// schedule, or closed loop), spans around each client call when `traced`.
ServedRun Serve(const Shape& shape, Stack* stack, Connections* conns,
                Streams* streams, double seconds, bool traced);

/// The end-of-run output checks; appends each failure to `problems`.
void CheckFinalState(const Shape& shape, Stack* stack, Connections* conns,
                     const Streams& streams, const ServedRun& run,
                     std::vector<std::string>* problems);

/// Request building shared by the served run and the direct lanes.
std::vector<deddb::Atom> QueryPatterns(const Op& op,
                                       deddb::SymbolTable* symbols);
deddb::Transaction WriteTransaction(const Op& op, deddb::SymbolTable* symbols);
deddb::UpdateRequest TranslateRequestFor(const Op& op,
                                         deddb::SymbolTable* symbols);
/// Translations rendered like ExpectedTranslations.
std::vector<std::vector<std::string>> RenderTranslations(
    const std::vector<deddb::Transaction>& alternatives,
    const deddb::SymbolTable& symbols);

// ---- Direct layer lanes ---------------------------------------------------------------

/// Replays `run`'s recorded streams against `direct` (same seed, no server)
/// with the same lane count and pacing, and prints the per-layer table.
/// `mirror` (same seed, no server) receives the same writes untimed and
/// hosts the diagnostic calls and the replica-bound reads.
/// `untraced` is the same workload served without spans, for the tracing
/// overhead. Returns the per-layer metrics.
/// `stats_json` is the served stack's Stats reply right after the traced
/// run.
std::vector<Metric> MeasureLayers(const Shape& shape, Stack* served,
                                  Stack* direct, Stack* mirror,
                                  const ServedRun& traced,
                                  const ServedRun& untraced,
                                  const std::string& stats_json,
                                  const std::string& span_path,
                                  std::vector<std::string>* problems);

/// Reads a numeric field `"key":<number>` (first occurrence) from a Stats
/// JSON document; 0 when absent.
double JsonField(const std::string& json, const std::string& key);

/// Renders the Unemp/Alert/base facts of a database as sorted strings.
std::vector<std::string> RenderState(deddb::DeductiveDatabase* db);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_INTERNAL_H_
