// Wire-level benchmark harness.
//
// Runs one in-process OsdServer over a QueryEngine, wired the way
// tools/osd_server.cc wires them (durable store recovered, opened,
// attached and checkpointed before the server starts), and drives it over
// loopback with OsdClient connections from this process. Every answer is
// checked afterwards against an in-process NncSearch::Run on the same
// objects, outside the timed window.
//
// The harness only measures: it times its own calls and records what the
// program already returns (result frames, EngineStats, OsdServer counters,
// VersionedDataset and DurableStore stats, per-query traces). It prints
// one JSON object of raw samples on stdout; perfbench/run.py turns those
// into the named metrics.
//
// Usage:
//   osd_perfbench --workload stream_uniform|overlap_psd|hot_rw --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//                 [--trace-out FILE] [--tiny] [--corrupt-reference]
//
// --trace 0 sets the stack up kSetups times (set-up time samples), then
// measures one untraced window of S seconds on the last stack. --trace 1
// measures an untraced window of S/2 seconds and then, on a fresh stack,
// replays the same query sequence for S/2 seconds with "trace":true; the
// first kKeptTraces traced requests are written to --trace-out as JSON
// lines. --tiny shrinks the data for the self-test; --corrupt-reference
// damages one reference answer so the self-test can prove mismatches are
// caught.

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "datagen/surrogates.h"
#include "engine/query_engine.h"
#include "io/durable_store.h"
#include "net/client.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace {

using namespace osd;
using Clock = std::chrono::steady_clock;

// Engine/server configuration shared by every workload: osd_server
// defaults plus a fixed profile-cache capacity and a 1 s background fold.
constexpr long kProfileCacheBytes = 192L << 20;
constexpr double kFoldIntervalS = 1.0;
constexpr int kFoldDelta = 1024;  // osd_server default

// Writes insert and delete objects this far outside the [0, 1e4] data
// domain: every data object dominates them, so no read answer changes.
constexpr int kFarIdBase = 1'000'000;
constexpr double kFarCoord = 1e6;

// Idle write probe run before the query window of read-only workloads.
constexpr int kProbeWrites = 100;
constexpr double kProbeRate = 50.0;

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 9;

constexpr int kHotQueries = 32;
constexpr int kOverlapQueries = 128;
constexpr int kStreamQueries = 512;

// Traced requests whose terminal frame (span tree included) is kept and
// written out; a span tree runs to ~100 KB, so keeping every one of a
// traced hot_rw phase would hold ~0.5 GB.
constexpr int kKeptTraces = 512;
constexpr double kZipfExponent = 1.1;

const char* const kOpNames[] = {"ssd", "sssd", "psd", "fsd"};
const Operator kOps[] = {Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                         Operator::kFSd};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "osd_perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

std::string Num(double v) { return net::JsonNumber(v); }

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string trace_out;
  bool tiny = false;
  bool corrupt_reference = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "stream_uniform" && args.workload != "overlap_psd" &&
      args.workload != "hot_rw") {
    Die("--workload must be stream_uniform, overlap_psd or hot_rw");
  }
  if (!(args.seconds > 0)) Die("--seconds must be > 0");
  if (args.trace != 0 && args.trace != 1) Die("--trace must be 0 or 1");
  if (args.work_dir.empty()) Die("--work-dir is required");
  if (args.trace == 1 && args.trace_out.empty()) {
    Die("--trace 1 needs --trace-out");
  }
  return args;
}

/// What a workload sends; see perfbench/README.md for why each exists.
struct Workload {
  int readers = 0;
  bool stream = true;
  double write_rate = 0.0;  ///< open-loop mutate batches/s in the window
};

Workload WorkloadFor(const std::string& name) {
  if (name == "stream_uniform") return {3, true, 0.0};
  if (name == "overlap_psd") return {2, true, 0.0};
  return {3, false, 2.0};  // hot_rw
}

/// The data is the same on every run: Table-2 anti-correlated synthetic
/// objects, or the CA-like surrogate subsampled to a size whose P-SD
/// queries take tens of milliseconds. Both are built from the repository's
/// default seed (42), like the fixed real datasets they stand in for; the
/// workload seed picks the requests. Ids are 0..n-1, equal to indices.
constexpr uint64_t kDataSeed = 42;

std::vector<UncertainObject> MakeObjects(const Args& args) {
  std::vector<UncertainObject> objects;
  if (args.workload == "overlap_psd") {
    const Dataset full = CaLike(kDataSeed);
    const int n = args.tiny ? 300 : 2000;
    Rng rng(kDataSeed);
    std::vector<int> pick(static_cast<size_t>(full.size()));
    for (int i = 0; i < full.size(); ++i) pick[i] = i;
    for (int i = full.size() - 1; i > 0; --i) {
      std::swap(pick[i], pick[rng.UniformInt(0, i)]);
    }
    pick.resize(static_cast<size_t>(n));
    std::sort(pick.begin(), pick.end());
    for (int k = 0; k < n; ++k) {
      const UncertainObject& src = full.object(pick[k]);
      std::vector<double> coords;
      coords.reserve(static_cast<size_t>(src.num_instances() * src.dim()));
      for (int j = 0; j < src.num_instances(); ++j) {
        const Point p = src.Instance(j);
        for (int d = 0; d < src.dim(); ++d) coords.push_back(p[d]);
      }
      objects.emplace_back(k, src.dim(), std::move(coords), src.probs());
    }
  } else {
    SyntheticParams params;  // Table 2: d = 3, m_d = 40, anti-correlated
    params.num_objects = args.tiny ? 300 : 3000;
    params.seed = kDataSeed;
    objects = GenerateSyntheticObjects(params);
  }
  for (size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].id() != static_cast<int>(i)) {
      Die("object ids must be 0..n-1");
    }
  }
  return objects;
}

struct Query {
  int object_id = 0;
  int op = 0;  ///< index into kOps / kOpNames
};

std::vector<int> Shuffled(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(0, i)]);
  }
  return order;
}

/// Deterministic query streams from the workload seed. Reset() rewinds
/// them, so a traced phase replays the untraced phase's sequence.
///
/// The query sets are fixed like the data; the seed only orders and draws
/// requests over them. stream_uniform cycles a list of 512 uniformly drawn
/// (object, operator) pairs, overlap_psd a list of 128 P-SD queries, each
/// in seeded order; a query comes back only after hundreds of others, long
/// after its profiles left the cache. hot_rw draws Zipf ranks over 32
/// queries per connection. Seeded query sets made whole-run figures differ
/// by 10% (overlap_psd, stream_uniform's CPU per query) to 2.5x (hot_rw,
/// whose three head queries carry half the traffic) between seeds.
class QuerySource {
 public:
  QuerySource(const std::string& workload, uint64_t seed, int objects,
              int connections)
      : seed_(seed) {
    const std::vector<int> picks = Shuffled(objects, kDataSeed);
    if (workload == "stream_uniform") {
      Rng rng(kDataSeed);
      for (int i = 0; i < kStreamQueries; ++i) {
        list_.push_back({static_cast<int>(rng.UniformInt(0, objects - 1)),
                         i % 4});  // the four operators in equal shares
      }
    } else if (workload == "overlap_psd") {
      for (int i = 0; i < std::min(kOverlapQueries, objects); ++i) {
        list_.push_back({picks[i], 2});  // psd
      }
    } else {
      hot_.assign(picks.begin(),
                  picks.begin() + std::min(kHotQueries, objects));
      double total = 0.0;
      for (size_t k = 1; k <= hot_.size(); ++k) {
        total += 1.0 / std::pow(k, kZipfExponent);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
    }
    std::vector<Query> ordered;
    for (int i : Shuffled(static_cast<int>(list_.size()), seed)) {
      ordered.push_back(list_[static_cast<size_t>(i)]);
    }
    list_ = std::move(ordered);
    rngs_.assign(static_cast<size_t>(connections), Rng(0));
    Reset();
  }

  void Reset() {
    next_.store(0);
    for (size_t c = 0; c < rngs_.size(); ++c) {
      rngs_[c] = Rng(seed_ * 7919 + 101 * c + 1);
    }
  }

  /// Next query of connection `conn`; only that connection's thread calls.
  Query Next(int conn) {
    if (!list_.empty()) {
      return list_[static_cast<size_t>(next_.fetch_add(1)) % list_.size()];
    }
    // hot_rw: S-SD on a Zipf-ranked hot query.
    const double u = rngs_[static_cast<size_t>(conn)].Uniform(0.0, 1.0);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return {hot_[std::min(rank, hot_.size() - 1)], 0};
  }

 private:
  uint64_t seed_;
  std::vector<Query> list_;
  std::vector<int> hot_;
  std::vector<double> zipf_cdf_;
  std::vector<Rng> rngs_;
  std::atomic<long> next_{0};
};

EngineOptions MakeEngineOptions() {
  EngineOptions options{.num_threads = 0,
                        .queue_capacity = 4096,
                        .shed_on_overload = true};
  options.profile_cache_bytes = kProfileCacheBytes;
  options.fold_interval_s = kFoldIntervalS;
  options.fold_delta_threshold = kFoldDelta;
  return options;
}

std::string OptionsJson(const EngineOptions& e, const net::ServerOptions& s,
                        int threads) {
  std::string out = "{\"engine\":{\"num_threads\":" + std::to_string(threads);
  out += ",\"queue_capacity\":" + std::to_string(e.queue_capacity);
  out += ",\"shed_on_overload\":" +
         std::string(e.shed_on_overload ? "true" : "false");
  out += ",\"per_query_mem_bytes\":" + std::to_string(e.per_query_mem_bytes);
  out += ",\"engine_mem_bytes\":" + std::to_string(e.engine_mem_bytes);
  out += ",\"profile_cache_bytes\":" + std::to_string(e.profile_cache_bytes);
  out += ",\"max_batch\":" + std::to_string(e.max_batch);
  out += ",\"fold_interval_s\":" + Num(e.fold_interval_s);
  out += ",\"fold_delta_threshold\":" + std::to_string(e.fold_delta_threshold);
  out += ",\"watchdog\":" + std::string(e.watchdog ? "true" : "false");
  out += "},\"server\":{\"max_connections\":" +
         std::to_string(s.max_connections);
  out += ",\"max_output_buffer_bytes\":" +
         std::to_string(s.max_output_buffer_bytes);
  out += ",\"output_high_watermark_bytes\":" +
         std::to_string(s.output_high_watermark_bytes);
  out += ",\"idle_timeout_s\":" + Num(s.idle_timeout_s);
  out += ",\"write_stall_timeout_s\":" + Num(s.write_stall_timeout_s);
  out += ",\"durable\":true,\"fsync\":\"as shipped\"}}";
  return out;
}

/// One serving stack: engine, durable store and server, owned together
/// and torn down in osd_server's order (drain, detach, seal).
struct Stack {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<io::DurableStore> store;
  std::unique_ptr<net::OsdServer> server;
  std::string wal_dir;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
    if (engine != nullptr && store != nullptr) {
      engine->versioned().DetachDurability();
      std::string error;
      if (!store->Seal(engine->versioned().last_seq(), &error)) {
        std::fprintf(stderr, "osd_perfbench: seal failed: %s\n",
                     error.c_str());
      }
    }
    server.reset();
    store.reset();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
};

/// Builds the index, starts the engine, recovers/opens the WAL, takes the
/// startup checkpoint and starts the server; *seconds gets the time all of
/// that took.
std::unique_ptr<Stack> SetUp(std::vector<UncertainObject> objects,
                             const std::string& wal_dir, double* seconds) {
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  auto stack = std::make_unique<Stack>();
  stack->wal_dir = wal_dir;
  std::string error;
  const auto t0 = Clock::now();
  io::DurableStore::RecoverResult rec;
  if (!io::DurableStore::Recover(wal_dir, &rec, &error)) Die(error);
  stack->engine = std::make_unique<QueryEngine>(Dataset(std::move(objects)),
                                                MakeEngineOptions());
  stack->store = std::make_unique<io::DurableStore>();
  if (!stack->store->Open(wal_dir, rec.last_seq, &error)) Die(error);
  stack->engine->versioned().AttachDurability(stack->store.get(),
                                              rec.last_seq);
  stack->store->Checkpoint(stack->engine->versioned().Acquire(),
                           rec.last_seq);
  net::ServerOptions options;
  options.durable = stack->store.get();
  stack->server = std::make_unique<net::OsdServer>(stack->engine.get(),
                                                   options);
  if (!stack->server->Start(&error)) Die(error);
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return stack;
}

/// Counters the program already exports, read at phase start and end.
struct Counters {
  long rejected = 0, retries = 0;
  long cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  long cache_stale_evictions = 0;
  long net_evictions = 0, net_coalesced = 0;
  uint64_t epoch = 0, folds = 0, mutations = 0;
  uint64_t wal_appends = 0;
};

Counters ReadCounters(const Stack& stack) {
  Counters c;
  const EngineStats es = stack.engine->Snapshot();
  c.rejected = es.rejected;
  c.retries = es.retries;
  c.cache_hits = es.profile_cache_hits;
  c.cache_misses = es.profile_cache_misses;
  c.cache_evictions = es.profile_cache_evictions;
  c.cache_stale_evictions = es.profile_cache_stale_evictions;
  c.net_evictions = stack.server->evictions();
  c.net_coalesced = stack.server->candidates_coalesced();
  const VersionedDataset::Stats vs = stack.engine->versioned().GetStats();
  c.epoch = vs.epoch;
  c.folds = vs.folds;
  c.mutations = vs.mutations;
  const io::DurableStore::Stats ds = stack.store->GetStats();
  c.wal_appends = ds.appends;
  return c;
}

std::string CountersJson(const Counters& c) {
  std::string out = "{";
  auto add = [&](const char* key, long long v) {
    if (out.size() > 1) out += ",";
    out += "\"" + std::string(key) + "\":" + std::to_string(v);
  };
  add("rejected", c.rejected);
  add("retries", c.retries);
  add("cache_hits", c.cache_hits);
  add("cache_misses", c.cache_misses);
  add("cache_evictions", c.cache_evictions);
  add("cache_stale_evictions", c.cache_stale_evictions);
  add("net_evictions", c.net_evictions);
  add("net_coalesced", c.net_coalesced);
  add("epoch", static_cast<long long>(c.epoch));
  add("folds", static_cast<long long>(c.folds));
  add("mutations", static_cast<long long>(c.mutations));
  add("wal_appends", static_cast<long long>(c.wal_appends));
  return out + "}";
}

/// One submitted query as the client saw it. Times are offsets in ms from
/// the phase's window start.
struct Request {
  int conn = 0;
  long id = 0;
  Query query;
  double send_ms = 0.0;
  double first_ms = -1.0;  ///< first candidate known (streamed or terminal)
  double end_ms = -1.0;    ///< terminal frame
  int frames = 0;
  long bytes = 0;
  std::string status;  ///< result status, error code, or a client failure
  double latency_ms = 0.0, run_ms = 0.0;  ///< from the result frame
  std::vector<int> candidates;
  bool wrong = false;
  std::string raw_result;  ///< traced phase: the terminal frame payload
};

double NumberOr(const net::JsonValue& msg, const char* key, double fallback) {
  const net::JsonValue* v = msg.Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

void ParseResult(const net::JsonValue& msg, Request* r) {
  const net::JsonValue* status = msg.Find("status");
  r->status = status != nullptr && status->is_string() ? status->AsString()
                                                       : "malformed";
  r->latency_ms = NumberOr(msg, "latency_ms", 0.0);
  r->run_ms = NumberOr(msg, "run_ms", 0.0);
  if (const net::JsonValue* cands = msg.Find("candidates");
      cands != nullptr && cands->is_array()) {
    for (const net::JsonValue& c : cands->Items()) {
      r->candidates.push_back(static_cast<int>(c.AsNumber()));
    }
  }
}

/// Closed-loop reader: submit, read frames to the terminal one, repeat
/// until the window ends.
void RunReader(int port, int conn, bool stream, bool traced,
               QuerySource* source, Clock::time_point t0,
               Clock::time_point t_end, std::atomic<int>* traces_kept,
               std::vector<Request>* out) {
  net::OsdClient client;
  std::string error;
  if (!client.Connect("127.0.0.1", port, "bench", &error)) {
    Request r;
    r.conn = conn;
    r.status = "connect_failed";
    out->push_back(std::move(r));
    std::fprintf(stderr, "osd_perfbench: connect: %s\n", error.c_str());
    return;
  }
  std::this_thread::sleep_until(t0);
  long next_id = 0;
  while (Clock::now() < t_end) {
    Request r;
    r.conn = conn;
    r.id = ++next_id;
    r.query = source->Next(conn);
    net::SubmitParams params;
    params.id = r.id;
    params.object_id = r.query.object_id;
    params.op = kOpNames[r.query.op];
    params.stream = stream;
    params.trace = traced;
    const std::string submit = net::BuildSubmitMessage(params);
    r.send_ms = Ms(t0, Clock::now());
    if (!client.Send(submit, &error)) {
      r.status = "send_failed";
      out->push_back(std::move(r));
      return;
    }
    for (;;) {
      net::JsonValue msg;
      std::string raw;
      if (!client.Read(&msg, &error, &raw)) {
        r.status = "read_failed";
        out->push_back(std::move(r));
        std::fprintf(stderr, "osd_perfbench: read: %s\n", error.c_str());
        return;
      }
      const double now_ms = Ms(t0, Clock::now());
      ++r.frames;
      r.bytes += static_cast<long>(raw.size() + net::kFrameHeaderBytes);
      const std::string type = net::MessageType(msg);
      if (static_cast<long>(NumberOr(msg, "id", -1)) != r.id) {
        r.status = "foreign_frame";
        r.end_ms = now_ms;
        break;
      }
      if (type == "candidate" || type == "candidates_coalesced") {
        if (r.first_ms < 0) r.first_ms = now_ms;
        continue;
      }
      r.end_ms = now_ms;
      if (type == "result") {
        ParseResult(msg, &r);
        // Without streaming the first candidate arrives with the result.
        if (r.first_ms < 0) r.first_ms = now_ms;
        if (traced && traces_kept->fetch_add(1) < kKeptTraces) {
          r.raw_result = std::move(raw);
        }
      } else if (type == "error") {
        const net::JsonValue* code = msg.Find("code");
        r.status = code != nullptr && code->is_string() ? code->AsString()
                                                        : "error";
      } else {
        r.status = "unexpected_" + type;
      }
      break;
    }
    out->push_back(std::move(r));
  }
}

struct WriteRecord {
  double due_ms = 0.0, send_ms = 0.0, ack_ms = -1.0;
  std::string status = "no_ack";
};

struct WriterLog {
  std::vector<WriteRecord> writes;
  std::vector<double> wal_bytes_per_append;
};

net::MutateOp FarInsert(int k, int dim) {
  net::MutateOp op;
  op.action = "insert";
  op.object_id = kFarIdBase + k;
  for (int j = 0; j < 4; ++j) {
    std::vector<double> row;
    for (int d = 0; d < dim; ++d) row.push_back(kFarCoord + k + 0.25 * (j + d));
    row.push_back(1.0);
    op.instances.push_back(std::move(row));
  }
  return op;
}

/// Open-loop writer: batch k is due at t0 + k / rate for every due time
/// before t_end, and is sent then whatever happened to earlier batches.
/// Each batch inserts one far object and deletes the previous one.
/// Acks are read between sends with poll, so a slow ack never delays the
/// schedule; lateness shows as send_ms - due_ms.
void RunWriter(int port, int dim, double rate, Clock::time_point t0,
               Clock::time_point t_end, const io::DurableStore* store,
               WriterLog* log) {
  net::OsdClient client;
  std::string error;
  if (!client.Connect("127.0.0.1", port, "bench_writer", &error)) {
    WriteRecord w;
    w.status = "connect_failed";
    log->writes.push_back(w);
    return;
  }
  std::this_thread::sleep_until(t0);
  const auto due = [&](size_t k) { return t0 + Seconds(k / rate); };
  const auto ack_deadline = t_end + std::chrono::seconds(10);
  net::FrameDecoder decoder;
  size_t sent = 0, acked = 0;
  io::DurableStore::Stats last = store->GetStats();
  bool failed = false;
  while (!failed) {
    const auto now = Clock::now();
    const bool sending = due(sent) < t_end;
    if (sending && now >= due(sent)) {
      std::vector<net::MutateOp> ops{FarInsert(static_cast<int>(sent), dim)};
      if (sent > 0) {
        net::MutateOp del;
        del.action = "delete";
        del.object_id = kFarIdBase + static_cast<int>(sent) - 1;
        ops.push_back(std::move(del));
      }
      WriteRecord w;
      w.due_ms = Ms(t0, due(sent));
      w.send_ms = Ms(t0, Clock::now());
      log->writes.push_back(w);
      if (!client.Send(net::BuildMutateMessage(static_cast<long>(sent) + 1,
                                               ops),
                       &error)) {
        log->writes.back().status = "send_failed";
        break;
      }
      ++sent;
      continue;
    }
    if (!sending && acked == sent) break;
    if (now >= ack_deadline) break;
    // ppoll, not poll: a millisecond-granular timeout would send each
    // batch up to 1 ms late and add that to every write latency.
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        (sending ? due(sent) : ack_deadline) - now);
    const timespec timeout{static_cast<time_t>(wait.count() / 1'000'000'000),
                           static_cast<long>(wait.count() % 1'000'000'000)};
    pollfd pfd{client.fd(), POLLIN, 0};
    if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;
    char buf[16 * 1024];
    const ssize_t n = net::RecvSome(client.fd(), buf, sizeof(buf));
    if (n <= 0 || !decoder.Feed(buf, static_cast<size_t>(n))) break;
    std::string payload;
    while (decoder.Next(&payload)) {
      const double ack_ms = Ms(t0, Clock::now());
      net::JsonValue msg;
      if (!net::ParseJson(payload, &msg, &error)) {
        failed = true;
        break;
      }
      const long id = static_cast<long>(NumberOr(msg, "id", 0));
      if (id < 1 || id > static_cast<long>(sent)) continue;
      WriteRecord& w = log->writes[static_cast<size_t>(id - 1)];
      if (w.ack_ms >= 0) continue;
      w.ack_ms = ack_ms;
      const std::string type = net::MessageType(msg);
      if (type == "mutate_ok") {
        w.status = "OK";
      } else {
        const net::JsonValue* code = msg.Find("code");
        w.status = code != nullptr && code->is_string() ? code->AsString()
                                                        : "unexpected_" + type;
      }
      ++acked;
      // Bytes the active WAL segment grew per append since the previous
      // ack; a rotation (segment shrank) yields no sample.
      const io::DurableStore::Stats now_stats = store->GetStats();
      if (now_stats.appends > last.appends &&
          now_stats.wal_bytes > last.wal_bytes) {
        log->wal_bytes_per_append.push_back(
            static_cast<double>(now_stats.wal_bytes - last.wal_bytes) /
            static_cast<double>(now_stats.appends - last.appends));
      }
      last = now_stats;
    }
  }
}

struct Phase {
  bool traced = false;
  double window_s = 0.0;
  double setup_s = 0.0;
  int threads = 0;
  Counters before, after;
  std::vector<Request> requests;
  WriterLog writes;
  double write_window_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the query window
  std::string options_json;
};

Phase RunPhase(const Args& args, const Workload& workload,
               const std::vector<UncertainObject>& objects,
               QuerySource* source, bool traced, double window_s) {
  Phase phase;
  phase.traced = traced;
  phase.window_s = window_s;
  std::unique_ptr<Stack> stack =
      SetUp(objects, args.work_dir + "/wal_phase", &phase.setup_s);
  phase.threads = stack->engine->num_threads();
  phase.options_json = OptionsJson(MakeEngineOptions(), net::ServerOptions{},
                                   phase.threads);
  const int port = stack->server->port();
  const int dim = objects.front().dim();
  phase.before = ReadCounters(*stack);

  if (workload.write_rate <= 0 && !traced) {
    // Read-only workloads: an idle write probe before the query window,
    // then a wait until the background fold has absorbed it, so no fold
    // or checkpoint lands in the window.
    const auto p0 = Clock::now() + std::chrono::milliseconds(50);
    phase.write_window_s = kProbeWrites / kProbeRate;
    RunWriter(port, dim, kProbeRate, p0, p0 + Seconds(phase.write_window_s),
              stack->store.get(), &phase.writes);
    const auto give_up = Clock::now() + Seconds(5 * kFoldIntervalS);
    for (;;) {
      const VersionedDataset::Stats st = stack->engine->versioned().GetStats();
      if ((st.delta_size == 0 && st.tombstones == 0) ||
          Clock::now() > give_up) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::vector<std::vector<Request>> per_conn(
      static_cast<size_t>(workload.readers));
  const auto t0 = Clock::now() + std::chrono::milliseconds(100);
  const auto t_end = t0 + Seconds(window_s);
  const double cpu0 = ProcessCpuSeconds();
  std::atomic<int> traces_kept{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < workload.readers; ++c) {
    threads.emplace_back(RunReader, port, c, workload.stream, traced, source,
                         t0, t_end, &traces_kept,
                         &per_conn[static_cast<size_t>(c)]);
  }
  if (workload.write_rate > 0) {
    threads.emplace_back(RunWriter, port, dim, workload.write_rate, t0, t_end,
                         stack->store.get(), &phase.writes);
    phase.write_window_s = window_s;
  }
  for (std::thread& t : threads) t.join();
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  phase.after = ReadCounters(*stack);
  for (auto& conn : per_conn) {
    for (Request& r : conn) phase.requests.push_back(std::move(r));
  }
  return phase;
}

/// Reference answers for every distinct (object, operator) the phases
/// issued, computed in parallel with NncSearch::Run on a plain Dataset.
std::map<std::pair<int, int>, std::vector<int>> ComputeReferences(
    const Dataset& dataset, const std::vector<Phase>& phases) {
  std::set<std::pair<int, int>> keys;
  for (const Phase& p : phases) {
    for (const Request& r : p.requests) {
      if (r.end_ms >= 0) keys.insert({r.query.object_id, r.query.op});
    }
  }
  const std::vector<std::pair<int, int>> todo(keys.begin(), keys.end());
  std::vector<std::vector<int>> answers(todo.size());
  std::atomic<size_t> next{0};
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < todo.size();
           i = next.fetch_add(1)) {
        NncOptions options;
        options.op = kOps[todo[i].second];
        options.exclude_id = todo[i].first;  // ids equal indices
        const NncSearch search(dataset, options);
        answers[i] = search.Run(dataset.object(todo[i].first)).candidates;
        std::sort(answers[i].begin(), answers[i].end());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<std::pair<int, int>, std::vector<int>> refs;
  for (size_t i = 0; i < todo.size(); ++i) {
    refs[todo[i]] = std::move(answers[i]);
  }
  return refs;
}

std::string PhaseJson(const Phase& p) {
  std::string out = "{\"traced\":" + std::string(p.traced ? "true" : "false");
  out += ",\"window_s\":" + Num(p.window_s);
  out += ",\"setup_s\":" + Num(p.setup_s);
  out += ",\"threads\":" + std::to_string(p.threads);
  out += ",\"cpu_s\":" + Num(p.cpu_s);
  out += ",\"before\":" + CountersJson(p.before);
  out += ",\"after\":" + CountersJson(p.after);
  // Compact rows, one per request, in request_fields order.
  out += ",\"request_fields\":[\"send_ms\",\"first_ms\",\"end_ms\","
         "\"latency_ms\",\"run_ms\",\"frames\",\"bytes\",\"ok\",\"wrong\"]";
  out += ",\"requests\":[";
  for (size_t i = 0; i < p.requests.size(); ++i) {
    const Request& r = p.requests[i];
    if (i > 0) out += ",";
    const std::string row[] = {Num(r.send_ms),
                               Num(r.first_ms),
                               Num(r.end_ms),
                               Num(r.latency_ms),
                               Num(r.run_ms),
                               std::to_string(r.frames),
                               std::to_string(r.bytes),
                               r.status == "OK" ? "1" : "0",
                               r.wrong ? "1" : "0"};
    out += '[';
    for (size_t k = 0; k < std::size(row); ++k) {
      if (k > 0) out += ',';
      out += row[k];
    }
    out += ']';
  }
  out += "],\"failures\":{";
  std::map<std::string, long> failures;
  for (const Request& r : p.requests) {
    if (r.status != "OK") ++failures["read:" + r.status];
  }
  for (const WriteRecord& w : p.writes.writes) {
    if (w.status != "OK") ++failures["write:" + w.status];
  }
  bool first = true;
  for (const auto& [k, v] : failures) {
    out += (first ? "\"" : ",\"") + k + "\":" + std::to_string(v);
    first = false;
  }
  out += "},\"write_window_s\":" + Num(p.write_window_s);
  out += ",\"writes\":[";
  for (size_t i = 0; i < p.writes.writes.size(); ++i) {
    const WriteRecord& w = p.writes.writes[i];
    if (i > 0) out += ",";
    out += "[" + Num(w.due_ms) + "," + Num(w.send_ms) + "," + Num(w.ack_ms) +
           "," + (w.status == "OK" ? "1" : "0") + "]";
  }
  out += "],\"wal_bytes_per_append\":[";
  for (size_t i = 0; i < p.writes.wal_bytes_per_append.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(p.writes.wal_bytes_per_append[i]);
  }
  return out + "]}";
}

/// Traced requests as JSON lines: the harness's own spans (send, first
/// candidate, terminal frame, ms from the window start) plus the terminal
/// frame, which carries latency_ms, run_ms and the program's trace.
void WriteTraceFile(const std::string& path, const Phase& phase) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (const Request& r : phase.requests) {
    if (r.raw_result.empty()) continue;
    std::fprintf(f,
                 "{\"conn\":%d,\"id\":%ld,\"object_id\":%d,\"op\":\"%s\","
                 "\"spans\":{\"send_ms\":%s,\"first_candidate_ms\":%s,"
                 "\"terminal_ms\":%s},\"result\":%s}\n",
                 r.conn, r.id, r.query.object_id, kOpNames[r.query.op],
                 Num(r.send_ms).c_str(), Num(r.first_ms).c_str(),
                 Num(r.end_ms).c_str(), r.raw_result.c_str());
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload workload = WorkloadFor(args.workload);
  std::filesystem::create_directories(args.work_dir);

  const std::vector<UncertainObject> objects = MakeObjects(args);
  const Dataset reference_data{std::vector<UncertainObject>(objects)};
  QuerySource source(args.workload, args.seed,
                     static_cast<int>(objects.size()), workload.readers);

  std::vector<double> setup_s;
  std::vector<Phase> phases;
  if (args.trace == 0) {
    for (int i = 0; i + 1 < kSetups; ++i) {
      double s = 0.0;
      SetUp(objects, args.work_dir + "/wal_setup", &s);
      setup_s.push_back(s);
    }
    phases.push_back(
        RunPhase(args, workload, objects, &source, false, args.seconds));
    setup_s.push_back(phases.back().setup_s);
  } else {
    phases.push_back(
        RunPhase(args, workload, objects, &source, false, args.seconds / 2));
    source.Reset();
    phases.push_back(
        RunPhase(args, workload, objects, &source, true, args.seconds / 2));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_peak_mb = usage.ru_maxrss / 1024.0;

  // Answer check, outside every timed window.
  const auto ref_t0 = Clock::now();
  auto refs = ComputeReferences(reference_data, phases);
  if (args.corrupt_reference && !refs.empty()) {
    std::vector<int>& first = refs.begin()->second;
    if (first.empty()) {
      first.push_back(0);
    } else {
      first.pop_back();
    }
  }
  long mismatches = 0;
  for (Phase& p : phases) {
    for (Request& r : p.requests) {
      if (r.status != "OK") continue;
      std::vector<int> got = r.candidates;
      std::sort(got.begin(), got.end());
      r.wrong = got != refs[{r.query.object_id, r.query.op}];
      mismatches += r.wrong ? 1 : 0;
    }
  }
  const double ref_s =
      std::chrono::duration<double>(Clock::now() - ref_t0).count();

  if (args.trace == 1) WriteTraceFile(args.trace_out, phases.back());

  std::string out = "{\"workload\":\"" + args.workload + "\"";
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + Num(args.seconds);
  out += ",\"trace\":" + std::to_string(args.trace);
  out += ",\"tiny\":" + std::string(args.tiny ? "true" : "false");
  out += ",\"readers\":" + std::to_string(workload.readers);
  out += ",\"stream\":" + std::string(workload.stream ? "true" : "false");
  out += ",\"write_rate\":" +
         Num(workload.write_rate > 0 ? workload.write_rate : kProbeRate);
  out += ",\"writes_in_window\":" +
         std::string(workload.write_rate > 0 ? "true" : "false");
  out += ",\"dataset\":{\"source\":\"" +
         std::string(args.workload == "overlap_psd" ? "ca_like_subsample"
                                                    : "synthetic_anti") +
         "\",\"objects\":" + std::to_string(objects.size()) +
         ",\"dim\":" + std::to_string(objects.front().dim()) + "}";
  out += ",\"options\":" + phases.front().options_json;
  out += ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += (i > 0 ? "," : "") + Num(setup_s[i]);
  }
  out += "],\"rss_peak_mb\":" + Num(rss_peak_mb);
  out += ",\"reference\":{\"distinct\":" + std::to_string(refs.size()) +
         ",\"seconds\":" + Num(ref_s) +
         ",\"mismatches\":" + std::to_string(mismatches) +
         ",\"corrupted\":" + (args.corrupt_reference ? "true" : "false") + "}";
  out += ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    out += (i > 0 ? "," : "") + PhaseJson(phases[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
