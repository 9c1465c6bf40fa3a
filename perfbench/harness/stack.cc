// Workload shapes, the seeded request streams, and the service stack's
// set-up and teardown.
#include <filesystem>
#include <thread>

#include "common.h"
#include "internal.h"
#include "persist/manager.h"
#include "persist/snapshot.h"
#include "workload/employment.h"

namespace perfbench {

namespace fs = std::filesystem;
using deddb::DeductiveDatabase;
using deddb::server::Client;
using deddb::server::LoopbackNetwork;
using deddb::server::Server;
using deddb::server::ServerOptions;

namespace {

// Offered load of the open-loop workloads (requests per second); see
// perfbench/README.md for how they were chosen. serve_read's 2,400 req/s
// split 90/5/5 over Query/Translate/Apply: lanes 0-1 send the Translates
// (60/s each), lanes 2-3 the Queries and Applies (1,140/s each, 1 in 19 an
// Apply). A Translate runs for milliseconds, and a connection serves one
// request at a time, so Queries queued behind it on the same connection
// would measure the downward interpreter rather than the read path.
constexpr double kServeReadTranslateRate = 60;
constexpr double kServeReadQueryRate = 1140;
constexpr double kFeedWriteRate = 500;
constexpr double kFeedReaderRate = 1500;

// Write partitions: serve_read's last 2 x 250 people (lanes 2-3);
// change_feed's writer toggles labour-age people among the last 500.
constexpr size_t kServeReadPartition = 250;
constexpr size_t kFeedWriterPeople = 500;

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_read", "commit_storm",
                                                 "change_feed"};
  return names;
}

Shape ShapeFor(const std::string& workload) {
  Shape shape;
  shape.name = workload;
  if (workload == "serve_read") {
    shape.people = 20000;
    shape.lanes = 4;
    shape.lane_rate = {kServeReadTranslateRate, kServeReadTranslateRate,
                       kServeReadQueryRate, kServeReadQueryRate};
    shape.lane_on_replica.assign(4, false);
    shape.headline = OpKind::kQuery;
  } else if (workload == "commit_storm") {
    shape.people = 1000;
    shape.materialize_unemp = true;
    shape.closed_loop = true;
    shape.lanes = 4;
    shape.lane_rate.assign(4, 0);
    shape.lane_on_replica.assign(4, false);
    shape.headline = OpKind::kProcess;
  } else if (workload == "change_feed") {
    shape.people = 5000;
    shape.feed = true;
    shape.lanes = 3;  // + the subscriber connection = 4
    shape.lane_rate = {kFeedWriteRate, kFeedReaderRate, kFeedReaderRate};
    shape.lane_on_replica = {false, true, true};
    shape.headline = OpKind::kApply;
  } else {
    Die("unknown workload '" + workload + "'");
  }
  return shape;
}

// ---- Streams ------------------------------------------------------------------------

Streams::Streams(const Shape& shape, uint64_t seed, std::vector<Person> initial)
    : shape_(shape),
      initial_(std::move(initial)),
      model_(initial_),
      zipf_(1, 0.99),
      partitions_(shape.lanes) {
  for (size_t lane = 0; lane < shape.lanes; ++lane) {
    rngs_.emplace_back(seed * 1000003 + 17 * (lane + 1));
    next_id_.push_back(0);
  }
  const uint32_t people = static_cast<uint32_t>(shape.people);
  if (shape.name == "serve_read") {
    const uint32_t first_writer =
        people - static_cast<uint32_t>(2 * kServeReadPartition);
    for (uint32_t p = 0; p < first_writer; ++p) read_only_.push_back(p);
    for (uint32_t p = first_writer; p < people; ++p) {
      partitions_[2 + (p - first_writer) / kServeReadPartition].push_back(p);
    }
  } else if (shape.name == "commit_storm") {
    for (uint32_t p = 0; p < people; ++p) partitions_[p % 4].push_back(p);
  } else {
    const uint32_t first_writer =
        people - static_cast<uint32_t>(kFeedWriterPeople);
    for (uint32_t p = 0; p < first_writer; ++p) read_only_.push_back(p);
    bool have_fence = false;
    for (uint32_t p = first_writer; p < people; ++p) {
      if (!initial_[p].facts[kLa]) continue;
      if (!have_fence && initial_[p].facts[kSkilled]) {
        fence_person_ = p;
        have_fence = true;
        continue;
      }
      partitions_[0].push_back(p);
    }
    if (!have_fence || partitions_[0].empty()) {
      Die("change_feed: no labour-age people in the writer partition");
    }
  }
  if (!read_only_.empty()) {
    // Popularity order: a seeded shuffle, so the hot people are scattered.
    deddb::Rng shuffle(seed ^ 0x5eedf00dULL);
    for (size_t i = read_only_.size(); i > 1; --i) {
      std::swap(read_only_[i - 1], read_only_[shuffle.NextBelow(i)]);
    }
    zipf_ = Zipf(read_only_.size(), 0.99);
  }
}

uint32_t Streams::HotPerson(deddb::Rng* rng) const {
  return read_only_[zipf_.Sample(rng)];
}

uint32_t Streams::AnyReadOnlyPerson(deddb::Rng* rng) const {
  return read_only_[rng->NextBelow(read_only_.size())];
}

Op Streams::Next(size_t lane) {
  deddb::Rng* rng = &rngs_[lane];
  const std::vector<uint32_t>& part = partitions_[lane];
  Op op;
  if (shape_.name == "serve_read") {
    if (lane < 2) {
      // Uniform, not Zipf: δUnemp and ιUnemp cost differently, and a Zipf
      // draw would let the seed's few hottest people set their mix.
      op = MakeTranslate(AnyReadOnlyPerson(rng), model_);
    } else if (rng->NextBelow(19) != 0) {
      uint32_t a = HotPerson(rng);
      uint32_t b = HotPerson(rng);
      while (b == a) b = HotPerson(rng);
      op = MakeQuery({a, b}, model_);
    } else {
      op = MakeSkilledToggle(part[rng->NextBelow(part.size())], model_);
    }
  } else if (shape_.name == "commit_storm") {
    if (rng->NextBelow(8) == 0) {
      op = MakeQuery({part[rng->NextBelow(part.size())]}, model_);
    } else {
      op = MakeProcess(part, model_, rng->NextBelow(10) == 0, rng);
    }
  } else if (lane == 0) {
    op = MakeEmploymentToggle(part[rng->NextBelow(part.size())], model_);
  } else {
    op = MakeQuery({HotPerson(rng)}, model_);
  }
  if ((op.kind == OpKind::kApply || op.kind == OpKind::kProcess) &&
      op.expect_accept) {
    ApplyEvents(op.events, &model_);
  }
  op.id = (static_cast<uint64_t>(lane + 1) << 40) | next_id_[lane]++;
  return op;
}

Op Streams::MakeFence() {
  Op op = MakeEmploymentToggle(fence_person_, model_);
  ApplyEvents(op.events, &model_);
  return op;
}

// ---- Stack ----------------------------------------------------------------------------

Stack::~Stack() {
  if (replica_server != nullptr) replica_server->Stop();
  if (replica != nullptr) replica->Stop();
  if (server != nullptr) server->Stop();
  replica_server.reset();
  replica.reset();
  server.reset();
  replica_db.reset();
  db.reset();
  std::error_code ignored;
  if (!root.empty()) fs::remove_all(root, ignored);
}

uint64_t NextClientId() {
  static std::atomic<uint64_t> next{0x5eed0001};
  return next.fetch_add(1);
}

std::unique_ptr<Client> Connect(LoopbackNetwork* net) {
  deddb::server::ClientOptions options;
  options.client_id = NextClientId();
  options.max_attempts = 1;
  return std::make_unique<Client>(
      [net]() { return net->Connect(); }, options);
}

std::unique_ptr<Stack> BuildStack(const Shape& shape, uint64_t seed,
                                  const std::string& root,
                                  const StackOptions& options) {
  auto stack = std::make_unique<Stack>();
  stack->root = root;
  const std::string primary_dir = root + "/primary";
  std::error_code ec;
  fs::create_directories(primary_dir, ec);
  if (ec) Die("creating " + primary_dir + ": " + ec.message());

  // Load: the generated population, written as the directory's snapshot.
  {
    deddb::workload::EmploymentConfig config;
    config.people = shape.people;
    config.seed = seed;
    config.materialize_unemp = shape.materialize_unemp;
    std::unique_ptr<DeductiveDatabase> generated =
        Must(deddb::workload::MakeEmploymentDatabase(config),
             "generating the employment database");
    if (shape.materialize_unemp) {
      MustOk(generated->InitializeMaterializedViews(),
             "materializing Unemp");
    }
    stack->initial = ReadPopulation(generated.get(), shape.people);
    std::unique_ptr<deddb::persist::PersistenceManager> layout =
        Must(deddb::persist::PersistenceManager::Open(primary_dir, {}),
             "opening the database directory");
    MustOk(deddb::persist::WriteSnapshot(generated->database(), 0,
                                         layout->snapshot_path(), {}),
           "writing the initial snapshot");
  }

  // Open (group commit on), compile, checkpoint, warm.
  stack->db = Must(DeductiveDatabase::OpenPersistent(
                       primary_dir, deddb::PersistOptions{.group_commit = true}),
                   "opening the persistent database");
  int64_t t0 = NowNs();
  Must(stack->db->Compiled(), "compiling the event rules");
  stack->compile_us = static_cast<double>(NowNs() - t0) / 1000.0;
  t0 = NowNs();
  MustOk(stack->db->Checkpoint(), "checkpointing");
  stack->checkpoint_s = static_cast<double>(NowNs() - t0) / 1e9;
  Must(stack->db->Domain(), "building the active domain");
  if (!Must(stack->db->IsConsistent(), "checking consistency")) {
    Die("the generated database violates its constraints");
  }
  Must(stack->db->BeginSession(), "pinning the first session");
  stack->base_seq = stack->db->persistence()->stats().last_seq;

  if (options.checkpoint_copy) {
    stack->checkpoint_copy = root + "/checkpoint";
    fs::copy(primary_dir, stack->checkpoint_copy, fs::copy_options::recursive,
             ec);
    if (ec) Die("copying the checkpoint: " + ec.message());
  }
  if (!options.serve) return stack;

  ServerOptions server_options;
  if (options.metrics) server_options.obs.metrics = &stack->metrics;
  stack->server = std::make_unique<Server>(stack->db.get(), server_options);
  MustOk(stack->server->Serve(stack->net.TakeListener()), "starting the server");

  if (shape.feed) {
    // The replica starts from a copy of the primary's checkpoint and tails
    // the primary's WAL feed from there.
    const std::string replica_dir = root + "/replica";
    fs::copy(primary_dir, replica_dir, fs::copy_options::recursive, ec);
    if (ec) Die("copying the checkpoint for the replica: " + ec.message());
    stack->replica_db =
        Must(DeductiveDatabase::OpenPersistent(replica_dir),
             "opening the replica database");
    MustOk(stack->replica_db->EnterReplicaMode(), "entering replica mode");
    Must(stack->replica_db->Compiled(), "compiling the replica's rules");
    Must(stack->replica_db->Domain(), "building the replica's domain");
    LoopbackNetwork* primary_net = &stack->net;
    stack->replica = std::make_unique<deddb::repl::Replica>(
        stack->replica_db.get(),
        [primary_net]() { return primary_net->Connect(); });
    MustOk(stack->replica->Start(), "starting the replica");
    ServerOptions replica_options;
    replica_options.replica_status = stack->replica.get();
    if (options.metrics) replica_options.obs.metrics = &stack->metrics;
    stack->replica_server =
        std::make_unique<Server>(stack->replica_db.get(), replica_options);
    MustOk(stack->replica_server->Serve(stack->replica_net.TakeListener()),
           "starting the replica server");
    // The replica starts at the checkpoint's sequence; wait until its feed
    // connection is up (it then long-polls the primary for new records).
    const int64_t give_up = NowNs() + 30'000'000'000LL;
    while (stack->server->active_connections() == 0 ||
           stack->replica->replica_status().applied_seq < stack->base_seq) {
      if (NowNs() > give_up) Die("the replica never connected to its feed");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return stack;
}

std::vector<std::string> RenderState(DeductiveDatabase* db) {
  std::unique_ptr<deddb::Session> session =
      Must(db->BeginSession(), "pinning a session for the state check");
  std::vector<std::string> out;
  const deddb::SymbolTable& symbols = db->symbols();
  session->database().facts().ForEach(
      [&](deddb::SymbolId pred, const deddb::Tuple& tuple) {
        out.push_back(EventString(true, symbols.NameOf(pred),
                                  symbols.NameOf(tuple[0])));
      });
  for (const char* view : {"Unemp", "Alert"}) {
    deddb::Atom pattern = Must(
        session->MakeAtom(view, {session->Variable("x")}), "view pattern");
    for (const deddb::Tuple& t : Must(session->Solve(pattern), "solving")) {
      out.push_back(EventString(true, view, symbols.NameOf(t[0])));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
