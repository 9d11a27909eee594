#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared machinery of the end-to-end benchmark: run options, the
// in-memory span recorder behind the per-layer ledger, latency samples,
// seeded inputs (log, batches, query mixes), in-process serving nodes, the
// closed-loop HTTP clients and the correctness checks.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "index/sequence_index.h"
#include "log/event_log.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "storage/database.h"

namespace perfbench {

using namespace seqdet;

// Every thread count the benchmark passes to the program, set explicitly so
// both sides of a comparison run the same configuration (4-core box).
constexpr size_t kIndexThreads = 4;    // IndexOptions::num_threads
constexpr size_t kHttpThreads = 2;     // HttpServerOptions::num_threads
constexpr size_t kQueryThreads = 1;    // ServingOptions::query_threads
constexpr size_t kScatterThreads = 4;  // RouterOptions::scatter_threads
constexpr size_t kClients = 2;         // closed-loop keep-alive clients
constexpr size_t kShards = 2;          // query_routed workers
constexpr int64_t kRouterDeadlineMs = 30000;
// HttpServerOptions::max_keepalive_requests. At the default of 100 exactly
// 1% of requests pay a reconnect, which puts every p99 on the boundary
// between reconnecting and plain requests.
constexpr size_t kKeepAliveRequests = 1000;
constexpr size_t kDetectLimit = 50;    // /detect limit= of every target
constexpr size_t kContinueTopK = 3;
constexpr size_t kMinBatches = 1000;   // p99 of Update needs >= 1000 samples

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every input size; the self-test runs at a tiny scale.
  double scale = 1.0;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_dir = ".bench_build/perfbench-traces";
  /// Self-test hook: corrupts one expected body so the checks must fire.
  bool corrupt_expected = false;
};

double NowSeconds();  // steady clock, seconds since process start

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span recorder. Disabled, every call is one branch. A span's
/// layer is its name up to the first '.', and a layer's self time is its
/// spans' durations minus the parts their child spans cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // NowSeconds()
    double end = 0;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // spans of one request share it; 0 = none
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Reserves a span id (0 when disabled) so children can name a parent
  /// before the parent span ends.
  uint64_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  void Record(Span span);

  /// Self seconds per layer over every recorded span.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Seconds of every span named `name`, summed.
  double TotalSeconds(const std::string& name) const;
  size_t size() const;
  /// Writes one JSON object per span, one per line.
  bool Dump(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_, parent_, request_;
  double start_;
};

// ---------------------------------------------------------------------------
// Samples and results
// ---------------------------------------------------------------------------

/// Measurements with the time each was taken. The reported figures are
/// medians over parts of the timed phase, so a burst of load from other
/// tenants of a shared host moves one part, not the figure.
struct Samples {
  std::vector<double> values;
  std::vector<double> times;  // NowSeconds() when each value was taken
  void Add(double v, double t = 0) {
    values.push_back(v);
    times.push_back(t);
  }
  void Append(const Samples& other);
  size_t size() const { return values.size(); }
  /// Nearest-rank percentile over all values, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// Median over 1-second windows of each window's median (windows with
  /// fewer than 20 values are skipped; under 3 windows, the plain median).
  double Median() const;
  /// Median over consecutive chunks of 1000 values, in time order, of each
  /// chunk's p-th percentile (under 3 chunks, the plain percentile). Every
  /// estimate then rests on >= 1000 samples.
  double Tail(double p) const;
  /// Values per second: the interquartile mean over the whole 1-second
  /// windows of the span (under 4 windows, count over span).
  double Rate() const;
  double Mean() const;
};

/// What one workload measured, keyed by metric name.
struct RunResult {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Human-readable report lines (printed before the JSON line).
  std::vector<std::string> notes;

  void Fail(const std::string& what);
  void Note(const std::string& line);
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The bpi_2017-like trace pool every input is drawn from:
/// GenerateBpiLikeLog(Bpi2017Profile()), generated once per process.
const eventlog::EventLog& TracePool();

/// A seeded log: `num_traces` traces sampled from TracePool(). The pool's
/// process model is kept, so seeds change which traces (and which arrival
/// times) a run sees but not the shape of the process.
eventlog::EventLog SampleLog(uint64_t seed, size_t num_traces);

struct TimedEvent {
  eventlog::TraceId trace;
  eventlog::Event event;
};

/// Every event of `log`, in timestamp order (ties by trace, activity).
std::vector<TimedEvent> TimeOrdered(const eventlog::EventLog& log);

/// events[begin, end) as one log carrying `dictionary`'s names.
eventlog::EventLog Slice(const std::vector<TimedEvent>& events, size_t begin,
                         size_t end,
                         const eventlog::ActivityDictionary& dictionary);

/// Cuts events[begin, end) into `count` time-ordered batches and writes
/// each as its own CSV file under `dir`; returns the paths in order.
std::vector<std::string> WriteBatchFiles(
    const std::vector<TimedEvent>& events, size_t begin, size_t end,
    size_t count, const eventlog::ActivityDictionary& dictionary,
    const std::string& dir, RunResult* result);

enum class Route { kDetect, kXDetect, kStats, kContinue };
constexpr size_t kNumRoutes = 4;
const char* RouteName(Route route);  // metric prefix: detect, xdetect, ...

struct Target {
  Route route;
  std::string text;  // the pattern as written in q=
  std::string path;  // the request target
};

/// The analyst mix: `per_route` targets of each route (four times as many
/// of the cheap /stats), activities drawn by their frequency in
/// TracePool() with a fixed generator. Every run asks the same questions;
/// its seed varies the log they are asked of.
std::vector<Target> AnalystMix(size_t per_route);

/// A small fixed dashboard over TracePool()'s hottest plain pairs and
/// triples, plus two extended patterns, a stats and a continue tile per hot
/// pair.
std::vector<Target> DashboardMix();

/// Notes an "inputs:" line with digests of the log and the targets, so two
/// runs' inputs can be told apart (or shown equal).
void NoteInputs(const eventlog::EventLog& log, const std::vector<Target>& mix,
                RunResult* result);

// ---------------------------------------------------------------------------
// Program under test
// ---------------------------------------------------------------------------

/// One on-disk index with the defaults users get (WAL on, sync_wal off,
/// 32 MiB memtable, 64 MiB posting cache), STNM.
struct Node {
  std::string dir;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::SequenceIndex> index;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;

  ~Node();
  /// Opens (creating) the database and index; records a storage.open span.
  Status Open(bool auto_fold, Tracer* tracer);
  /// Stops serving and closes the index and database.
  void Close();
  /// Starts a QueryService + HttpServer on an ephemeral port.
  Status Serve();
  uint16_t port() const { return http->port(); }
};

index::IndexOptions IndexOptionsFor(bool auto_fold);
server::HttpServerOptions HttpOptions();
server::ServingOptions ServingOptionsFor();

/// Segment + WAL bytes of a database directory.
uint64_t DirBytes(const std::string& dir);
uint64_t WalBytes(const std::string& dir);

/// VmHWM of this process in MiB.
double PeakRssMiB();
/// Writes back the dirty pages set-up left, returns freed heap to the
/// system and resets the peak-RSS mark (writes 5 to /proc/self/clear_refs),
/// so every timed phase starts from the same state.
void BeginTimedPhase();

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

struct WriteStats {
  Samples update_ms;  // per batch, from its due time when paced
  uint64_t events = 0;
  uint64_t batches = 0;
  uint64_t failed = 0;
  uint64_t pairs_indexed = 0;
  double max_lag_ms = 0;  // how late the paced writer started a batch
  double first_start = 0, last_end = 0;  // NowSeconds()
};

/// ReadCsvLogFile -> Update for every file. With several indexes, each
/// batch is split by ShardOfTrace and every part applied to its shard. With
/// `period_s > 0` batch i is due at `start + i * period_s`; its latency is
/// counted from that due time, so a writer that falls behind shows the
/// backlog in its latencies instead of silently lightening the load.
WriteStats StreamBatches(const std::vector<std::string>& files,
                         const std::vector<index::SequenceIndex*>& indexes,
                         double start, double period_s, Tracer* tracer);

/// Waits for the maintenance service, then folds whatever load is still
/// pending below its thresholds, so the index ends with none. Returns
/// false when the service did not become idle.
bool Settle(index::SequenceIndex* index, Tracer* tracer);

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

struct LoadStats {
  Samples latency_ms[kNumRoutes];
  Samples done;  // one entry per completed request, for the rate
  uint64_t completed = 0;
  uint64_t failed = 0;        // transport errors and non-200
  uint64_t wrong = 0;         // body differs from the expected body
  uint64_t response_bytes = 0;
  double seconds = 0;
};

/// `kClients` keep-alive clients replay `mix` in a closed loop against
/// `port` until `stop` is set or `seconds` pass (when > 0). Client c takes
/// targets c, c + kClients, ... cyclically. When `expected` is non-empty
/// every response body must equal expected[target index].
LoadStats RunClients(uint16_t port, const std::vector<Target>& mix,
                     const std::vector<std::string>& expected, double seconds,
                     const std::atomic<bool>* stop, Tracer* tracer);

/// One sequential pass over `mix`, returning each body ("" on failure).
std::vector<std::string> FetchAll(uint16_t port,
                                  const std::vector<Target>& mix,
                                  RunResult* result);

/// Checks a seeded sample of /detect targets of `mix`: the served body must
/// equal DetectResponseJson over the in-process answer, and that answer
/// must equal the SASE oracle over `raw_log` as a match multiset.
void OracleCheck(const index::SequenceIndex& index,
                 const eventlog::EventLog& raw_log,
                 const std::vector<Target>& mix,
                 const std::vector<std::string>& bodies, size_t sample,
                 uint64_t seed, bool corrupt_first, RunResult* result);

/// Adds the end-to-end read metrics of one load phase.
void ReportLoad(const LoadStats& load, RunResult* result);

/// Per-layer read-path metrics: deltas of the index and serving counters
/// over the timed window.
struct ReadCounters {
  index::PostingCacheStats cache;
  index::IndexReadStats read;
  uint64_t pool_tasks = 0;
  uint64_t peak_queue = 0;
  uint64_t connections = 0;
  uint64_t timeouts = 0;
  uint64_t shed = 0;
};
ReadCounters SnapshotCounters(const std::vector<const Node*>& nodes);
void ReportReadLayers(const ReadCounters& before, const ReadCounters& after,
                      uint64_t queries, const std::vector<const Node*>& nodes,
                      const LoadStats& load, RunResult* result);

/// Replays `mix` in-process through Parse*PatternQuery and QueryProcessor
/// (the `query` and `server.serialize_us` ledger lines).
void ReplayInProcess(const index::SequenceIndex& index,
                     const std::vector<Target>& mix, Tracer* tracer,
                     RunResult* result);

/// Write-path ledger lines (log / index write / fold / storage).
void ReportWriteLayers(const WriteStats& write,
                       const std::vector<std::string>& files,
                       const std::vector<const Node*>& nodes, Tracer* tracer,
                       RunResult* result);

/// Adds the end-to-end write metrics.
void ReportWrite(const WriteStats& write, double settled_at,
                 RunResult* result);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------------------

void RunIngest(const Options& options, Tracer* tracer, RunResult* result);
void RunQuery(const Options& options, bool routed, Tracer* tracer,
              RunResult* result);
void RunQueryDuringIngest(const Options& options, Tracer* tracer,
                          RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
