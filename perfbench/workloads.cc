// The four workloads. Every one of them writes and reads, so each prints
// every end-to-end metric, but each puts its weight on different layers:
//
//   ingest               the write path: >= 1000 time-ordered CSV batches
//                        through ReadCsvLogFile -> Update with auto-fold,
//                        timed until the index has settled; a short read
//                        phase over the fresh index follows.
//   query                the read path over a working set larger than the
//                        64 MiB posting cache: bulk load plus a streamed
//                        tail in setup, fold, flush, reopen (mmap'd
//                        segments), then the analyst mix.
//   query_routed         the same log split over 2 trace-hash shards behind
//                        a ShardRouter; every body must equal the
//                        single-process body.
//   query_during_ingest  a paced writer appends the second half of a log
//                        while the clients replay a cache-resident
//                        dashboard; cache misses come from invalidation.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <thread>

#include "common/strings.h"
#include "harness.h"
#include "index/trace_shard.h"
#include "log/csv_io.h"
#include "query/pattern_parser.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/shard_router.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Input sizes at scale 1.
constexpr size_t kIngestTraces = 1000;    // ~38k events
// Enough batches that the few a fold cycle stalls stay well under 1%: the
// p99 then measures the Update path's own tail, not how many stalls landed.
constexpr size_t kIngestBatches = 6000;
constexpr size_t kQueryTraces = 13000;    // ~500k events
constexpr size_t kQueryTailEvents = 6000; // streamed in kQueryTailBatches
constexpr size_t kQueryTailBatches = 2000;
constexpr double kWriteRate = 1000;       // events/s, query_during_ingest
constexpr double kMeanTraceEvents = 38.3;
constexpr size_t kIngestMixPerRoute = 256;
constexpr size_t kQueryMixPerRoute = 256;
constexpr size_t kOracleSample = 16;
constexpr int kSetupReps = 3;

size_t Scaled(double n, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(n * scale)));
}

void Require(const Status& s, const std::string& what, RunResult* result) {
  ++result->attempted;
  if (!s.ok()) result->Fail(what + ": " + s.ToString());
}

/// Loads one CSV file into `index` with a single Update.
void BulkLoad(const std::string& file, index::SequenceIndex* index,
              RunResult* result) {
  auto log = eventlog::ReadCsvLogFile(file);
  if (!log.ok()) {
    Require(log.status(), "read " + file, result);
    return;
  }
  Require(index->Update(*log).status(), "bulk Update", result);
}

void Flush(const std::vector<Node*>& nodes, Tracer* tracer,
           RunResult* result) {
  ScopedSpan span(tracer, "index.flush");
  for (Node* n : nodes) Require(n->index->Flush(), "Flush", result);
}

void CheckConsistency(const Node& node, RunResult* result) {
  ++result->attempted;
  auto report = node.index->CheckConsistency();
  if (!report.ok()) {
    result->Fail("CheckConsistency: " + report.status().ToString());
  } else if (!report->ok()) {
    result->Fail("CheckConsistency: " + report->violations.front());
  } else {
    result->Note(StringPrintf("CheckConsistency: ok (%zu pairs, %zu "
                              "postings, %zu traces)",
                              report->pairs_checked, report->postings_checked,
                              report->traces_checked));
  }
}

/// The timed read phase. In trace mode the window is split: the first half
/// runs untraced and gives the end-to-end numbers, the second runs traced
/// and gives the ledger; their throughput ratio is the tracing overhead.
/// With `stop`, the (last) half runs until it is set. Returns the load the
/// per-layer metrics describe.
LoadStats ReadPhase(uint16_t port, const std::vector<Target>& mix,
                    const std::vector<std::string>& expected, double seconds,
                    const std::atomic<bool>* stop,
                    const std::vector<const Node*>& nodes, Tracer* tracer,
                    RunResult* result) {
  if (!tracer->enabled()) {
    LoadStats load = RunClients(port, mix, expected, stop ? 0 : seconds,
                                stop, nullptr);
    ReportLoad(load, result);
    return load;
  }
  LoadStats plain = RunClients(port, mix, expected, seconds / 2, stop,
                               nullptr);
  ReportLoad(plain, result);
  const ReadCounters before = SnapshotCounters(nodes);
  LoadStats traced = RunClients(port, mix, expected,
                                stop ? 0 : seconds / 2, stop, tracer);
  const ReadCounters after = SnapshotCounters(nodes);
  result->attempted += traced.completed + traced.failed;
  result->failed += traced.failed + traced.wrong;
  ReportReadLayers(before, after, traced.completed, nodes, traced, result);
  const double qps_plain = static_cast<double>(plain.completed) /
                           std::max(1e-9, plain.seconds);
  const double qps_traced = static_cast<double>(traced.completed) /
                            std::max(1e-9, traced.seconds);
  result->metrics["trace.overhead_ratio"] =
      qps_traced > 0 ? qps_plain / qps_traced - 1.0 : 0.0;
  return traced;
}

/// Decoded bytes of every pair posting list the mix can read: consecutive
/// positive elements of each /detect pattern (all alternative
/// combinations, Kleene self pairs) and the top-k continuation candidates.
uint64_t WorkingSetBytes(const index::SequenceIndex& index,
                         const std::vector<Target>& mix) {
  std::set<index::EventTypePair> pairs;
  for (const Target& t : mix) {
    if (t.route == Route::kDetect || t.route == Route::kXDetect) {
      auto p = query::ParseExtendedPatternQuery(t.text, index.dictionary());
      if (!p.ok()) continue;
      const query::PatternElement* prev = nullptr;
      for (const auto& e : p->elements) {
        if (e.negated) continue;
        if (e.kleene) {
          for (auto a : e.alternatives) {
            for (auto b : e.alternatives) pairs.insert({a, b});
          }
        }
        if (prev != nullptr) {
          for (auto a : prev->alternatives) {
            for (auto b : e.alternatives) pairs.insert({a, b});
          }
        }
        prev = &e;
      }
    } else if (t.route == Route::kContinue) {
      auto p = query::ParsePatternQuery(t.text, index.dictionary());
      if (!p.ok() || p->pattern.empty()) continue;
      auto followers = index.GetFollowerStats(p->pattern.activities.back());
      if (!followers.ok()) continue;
      for (size_t i = 0; i < followers->size() && i < kContinueTopK; ++i) {
        pairs.insert({p->pattern.activities.back(), (*followers)[i].other});
      }
    }
  }
  uint64_t postings = 0;
  for (const auto& pair : pairs) {
    if (auto s = index.GetPairSummary(pair); s.ok()) postings += s->postings;
  }
  return postings * sizeof(index::PairOccurrence);
}

void NoteWorkingSet(const std::string& who, uint64_t bytes,
                    RunResult* result) {
  const index::IndexOptions defaults;
  result->Note(StringPrintf(
      "working set %s: %.1f MiB decoded postings vs %.1f MiB posting cache "
      "(%.2fx)",
      who.c_str(), static_cast<double>(bytes) / (1 << 20),
      static_cast<double>(defaults.cache_bytes) / (1 << 20),
      static_cast<double>(bytes) / static_cast<double>(defaults.cache_bytes)));
}

}  // namespace

// ---------------------------------------------------------------------------

void RunIngest(const Options& o, Tracer* tracer, RunResult* result) {
  eventlog::EventLog log;
  std::vector<std::string> files;
  Node node;
  node.dir = o.work_dir + "/ingest";
  // Set-up is cheap here, so it is repeated and its median reported.
  Samples setups;
  double rep_start = 0;  // the first repetition starts with the process
  for (int rep = 0; rep < kSetupReps; ++rep) {
    node.Close();
    fs::remove_all(node.dir);
    log = SampleLog(o.seed, Scaled(kIngestTraces, o.scale));
    const auto events = TimeOrdered(log);
    files = WriteBatchFiles(events, 0, events.size(), kIngestBatches,
                            log.dictionary(), o.work_dir + "/batches", result);
    Require(node.Open(/*auto_fold=*/true,
                      rep + 1 == kSetupReps ? tracer : nullptr),
            "open index", result);
    setups.Add(NowSeconds() - rep_start);
    rep_start = NowSeconds();
  }
  result->metrics["setup_s"] = setups.Percentile(50);
  result->Note(StringPrintf("log: %zu traces, %zu events, %zu batches",
                            log.num_traces(), log.num_events(), files.size()));
  BeginTimedPhase();

  WriteStats write =
      StreamBatches(files, {node.index.get()}, 0, 0, tracer);
  if (!Settle(node.index.get(), tracer)) {
    result->Fail("maintenance service did not settle");
  }
  ReportWrite(write, NowSeconds(), result);
  result->metrics["disk_bytes_per_event"] =
      static_cast<double>(DirBytes(node.dir)) /
      static_cast<double>(std::max<size_t>(1, log.num_events()));
  CheckConsistency(node, result);
  Flush({&node}, tracer, result);
  if (tracer->enabled()) {
    ReportWriteLayers(write, files, {&node}, tracer, result);
  }

  // Read-after-ingest over the settled index.
  Require(node.Serve(), "serve", result);
  const auto mix =
      AnalystMix(Scaled(kIngestMixPerRoute, o.scale));
  NoteInputs(log, mix, result);
  NoteWorkingSet("single process", WorkingSetBytes(*node.index, mix), result);
  const auto expected = FetchAll(node.port(), mix, result);
  ::sync();  // the write phase's dirty pages, not the reads, pay writeback
  ReadPhase(node.port(), mix, expected, o.seconds * 0.5, nullptr, {&node},
            tracer, result);
  result->metrics["peak_rss_mb"] = PeakRssMiB();
  OracleCheck(*node.index, log, mix, expected, kOracleSample, o.seed,
              o.corrupt_expected, result);
  if (tracer->enabled()) ReplayInProcess(*node.index, mix, tracer, result);
}

// ---------------------------------------------------------------------------

void RunQuery(const Options& o, bool routed, Tracer* tracer,
              RunResult* result) {
  const eventlog::EventLog log =
      SampleLog(o.seed, Scaled(kQueryTraces, o.scale));
  const auto events = TimeOrdered(log);
  const size_t tail = std::min(Scaled(kQueryTailEvents, o.scale),
                               events.size() / 4);
  const size_t bulk_end = events.size() - tail;
  const std::string bulk_file =
      WriteBatchFiles(events, 0, bulk_end, 1, log.dictionary(),
                      o.work_dir + "/bulk", result)
          .front();
  const auto tail_files =
      WriteBatchFiles(events, bulk_end, events.size(), kQueryTailBatches,
                      log.dictionary(), o.work_dir + "/tail", result);
  result->Note(StringPrintf(
      "log: %zu traces, %zu events (%zu bulk + %zu streamed in %zu batches)",
      log.num_traces(), events.size(), bulk_end, tail, tail_files.size()));

  // The single-process index: the system under test for `query`, the
  // reference every routed body is compared with for `query_routed`.
  Node single;
  single.dir = o.work_dir + "/single";
  Require(single.Open(/*auto_fold=*/true, nullptr), "open index", result);
  BulkLoad(bulk_file, single.index.get(), result);
  if (!Settle(single.index.get(), nullptr)) {
    result->Fail("bulk load did not settle");
  }

  std::vector<std::unique_ptr<Node>> shards;
  std::vector<Node*> measured = {&single};
  if (routed) {
    // Untimed: bring the reference to the same content, the tail in one
    // Update (batching must not change any answer).
    Require(single.index->Update(Slice(events, bulk_end, events.size(),
                                       log.dictionary()))
                .status(),
            "reference tail Update", result);
    if (!Settle(single.index.get(), nullptr)) {
      result->Fail("reference index did not settle");
    }
    // As shard-split does: every shard interns the full dictionary in the
    // source file's order, so activity ids (and with them the id
    // tie-break of continuation rankings) match the reference.
    auto bulk = eventlog::ReadCsvLogFile(bulk_file);
    Require(bulk.status(), "read bulk", result);
    std::vector<eventlog::EventLog> parts(kShards);
    if (bulk.ok()) {
      for (auto& part : parts) {
        for (const auto& name : bulk->dictionary().names()) {
          part.dictionary().Intern(name);
        }
      }
      for (const auto& trace : bulk->traces()) {
        parts[index::ShardOfTrace(trace.id, kShards)].AddTrace(trace);
      }
    }
    measured.clear();
    for (size_t s = 0; s < kShards; ++s) {
      shards.push_back(std::make_unique<Node>());
      shards.back()->dir = o.work_dir + "/shard" + std::to_string(s);
      Require(shards.back()->Open(/*auto_fold=*/true, nullptr), "open shard",
              result);
      Require(shards.back()->index->Update(parts[s]).status(), "shard Update",
              result);
      if (!Settle(shards.back()->index.get(), nullptr)) {
        result->Fail("shard bulk load did not settle");
      }
      measured.push_back(shards.back().get());
    }
  }
  std::vector<index::SequenceIndex*> measured_indexes;
  for (Node* n : measured) measured_indexes.push_back(n->index.get());
  WriteStats write = StreamBatches(tail_files, measured_indexes, 0, 0, tracer);
  for (Node* n : measured) {
    if (!Settle(n->index.get(), tracer)) {
      result->Fail("maintenance service did not settle");
    }
  }
  ReportWrite(write, NowSeconds(), result);

  // Fold, flush, close and reopen, so reads go through mmap'd segments.
  std::vector<Node*> all = {&single};
  for (auto& s : shards) all.push_back(s.get());
  Flush(all, tracer, result);
  if (tracer->enabled()) {
    std::vector<const Node*> view(measured.begin(), measured.end());
    ReportWriteLayers(write, tail_files, view, tracer, result);
  }
  uint64_t disk = 0;
  for (Node* n : all) {
    n->Close();
    Require(n->Open(/*auto_fold=*/false,
                    std::find(measured.begin(), measured.end(), n) !=
                            measured.end()
                        ? tracer
                        : nullptr),
            "reopen", result);
    Require(n->Serve(), "serve", result);
  }
  for (Node* n : measured) disk += DirBytes(n->dir);
  result->metrics["disk_bytes_per_event"] =
      static_cast<double>(disk) / static_cast<double>(events.size());

  std::unique_ptr<server::ShardRouter> router;
  server::HttpServer router_http(HttpOptions());
  if (routed) {
    server::RouterOptions ro;
    for (auto& s : shards) {
      ro.shards.push_back(server::ShardEndpoint{"127.0.0.1", s->port()});
    }
    ro.scatter_threads = kScatterThreads;
    ro.default_deadline_ms = kRouterDeadlineMs;
    router = std::make_unique<server::ShardRouter>(ro);
    router->RegisterRoutes(&router_http);
    Require(router_http.Start(0), "start router", result);
  }
  const uint16_t port = routed ? router_http.port() : single.port();

  const auto mix = AnalystMix(Scaled(kQueryMixPerRoute, o.scale));
  NoteInputs(log, mix, result);
  // Warm-up; the single-process bodies are every later body's reference.
  auto expected = FetchAll(single.port(), mix, result);
  if (routed) {
    const auto routed_bodies = FetchAll(port, mix, result);
    size_t differ = 0;
    for (size_t i = 0; i < mix.size(); ++i) {
      differ += routed_bodies[i] != expected[i];
    }
    result->attempted += mix.size();
    if (differ > 0) {
      result->Fail(std::to_string(differ) +
                   " routed bodies differ from the single-process bodies");
    }
  }
  NoteWorkingSet("single process", WorkingSetBytes(*single.index, mix),
                 result);
  for (size_t s = 0; s < shards.size(); ++s) {
    NoteWorkingSet("shard " + std::to_string(s),
                   WorkingSetBytes(*shards[s]->index, mix), result);
  }
  std::vector<std::string> compare_to = expected;
  if (o.corrupt_expected && !compare_to.empty()) compare_to[0] += " ";

  result->metrics["setup_s"] = NowSeconds();
  BeginTimedPhase();
  const server::RouterStatsSnapshot router_before =
      routed ? router->stats() : server::RouterStatsSnapshot{};
  std::vector<const Node*> view(measured.begin(), measured.end());
  const LoadStats load = ReadPhase(port, mix, compare_to, o.seconds, nullptr,
                                   view, tracer, result);
  result->metrics["peak_rss_mb"] = PeakRssMiB();

  OracleCheck(*single.index, log, mix, expected, kOracleSample, o.seed,
              o.corrupt_expected, result);
  if (!tracer->enabled()) return;
  ReplayInProcess(*single.index, mix, tracer, result);
  if (!routed) return;

  auto& m = result->metrics;
  const server::RouterStatsSnapshot after = router->stats();
  double shard_p50 = 0;
  for (const auto& s : shards) {
    for (const auto& r : s->service->serving_stats().routes) {
      if (r.route == "/detect") shard_p50 = std::max(shard_p50, r.p50_ms);
    }
  }
  Samples detect_all = load.latency_ms[static_cast<size_t>(Route::kDetect)];
  detect_all.Append(load.latency_ms[static_cast<size_t>(Route::kXDetect)]);
  m["router.shard_handler_p50_ms"] = shard_p50;
  m["router.overhead_ms"] = detect_all.Percentile(50) - shard_p50;
  m["router.scatters"] =
      static_cast<double>(after.scatters - router_before.scatters);
  double hedges = 0, failures = 0;
  for (size_t i = 0; i < after.shards.size(); ++i) {
    hedges += static_cast<double>(after.shards[i].hedges -
                                  router_before.shards[i].hedges);
    failures += static_cast<double>(after.shards[i].failures -
                                    router_before.shards[i].failures);
  }
  m["router.hedges"] = hedges;
  m["router.failures"] = failures;
  m["router.pool_dials"] =
      static_cast<double>(after.pool.dials - router_before.pool.dials);
  m["router.pool_reuses"] =
      static_cast<double>(after.pool.reuses - router_before.pool.reuses);
  // The merge's parse step over the bodies the shards send the router.
  Samples parse_us;
  for (size_t i = 0, taken = 0; i < mix.size() && taken < 64; ++i) {
    if (mix[i].route != Route::kDetect) continue;
    ++taken;
    for (auto& s : shards) {
      server::HttpClient client(s->port());
      auto response = client.Get(mix[i].path);
      if (!response.ok() || response->status != 200) continue;
      ScopedSpan span(tracer, "router.merge_parse");
      const double t0 = NowSeconds();
      const bool ok = server::JsonValue::Parse(response->body).ok();
      parse_us.Add((NowSeconds() - t0) * 1e6);
      if (!ok) result->Fail("shard body does not parse as JSON");
    }
  }
  m["router.merge_parse_us"] = parse_us.Mean();
  router_http.Stop();
}

// ---------------------------------------------------------------------------

void RunQueryDuringIngest(const Options& o, Tracer* tracer,
                          RunResult* result) {
  // The write rate is absolute, so both sides of a comparison append the
  // same events per second; the log holds two windows' worth of events.
  const double stream_events = kWriteRate * o.seconds * o.scale;
  const size_t traces =
      Scaled(std::ceil(2 * stream_events / kMeanTraceEvents), 1.0);
  eventlog::EventLog log;
  std::vector<TimedEvent> events;
  std::vector<std::string> files;
  const std::vector<Target> dashboard = DashboardMix();
  size_t half = 0;
  Node node;
  node.dir = o.work_dir + "/live";
  Samples setups;
  double rep_start = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    node.Close();
    fs::remove_all(node.dir);
    log = SampleLog(o.seed, traces);
    events = TimeOrdered(log);
    half = events.size() / 2;
    const std::string first_half =
        WriteBatchFiles(events, 0, half, 1, log.dictionary(),
                        o.work_dir + "/first", result)
            .front();
    files = WriteBatchFiles(events, half, events.size(), kMinBatches,
                            log.dictionary(), o.work_dir + "/second", result);
    Require(node.Open(/*auto_fold=*/true,
                      rep + 1 == kSetupReps ? tracer : nullptr),
            "open index", result);
    BulkLoad(first_half, node.index.get(), result);
    Require(node.Serve(), "serve", result);
    FetchAll(node.port(), dashboard, result);  // warm the cache
    setups.Add(NowSeconds() - rep_start);
    rep_start = NowSeconds();
  }
  result->metrics["setup_s"] = setups.Percentile(50);
  const double period =
      static_cast<double>(events.size() - half) / kWriteRate /
      static_cast<double>(std::max<size_t>(1, files.size()));
  const double window = period * static_cast<double>(files.size());
  result->Note(StringPrintf(
      "log: %zu traces, %zu events; %zu indexed in setup, %zu appended in "
      "%zu batches every %.2f ms (scheduled %.0f events/s over %.2f s); "
      "dashboard of %zu targets",
      log.num_traces(), events.size(), half, events.size() - half,
      files.size(), period * 1e3, kWriteRate, window, dashboard.size()));
  NoteInputs(log, dashboard, result);
  NoteWorkingSet("single process", WorkingSetBytes(*node.index, dashboard),
                 result);
  BeginTimedPhase();

  std::atomic<bool> writer_done{false};
  WriteStats write;
  const double start = NowSeconds();
  std::thread writer([&] {
    write = StreamBatches(files, {node.index.get()}, start, period, tracer);
    writer_done.store(true);
  });
  ReadPhase(node.port(), dashboard, {}, window, &writer_done, {&node}, tracer,
            result);
  writer.join();
  if (!Settle(node.index.get(), tracer)) {
    result->Fail("maintenance service did not settle");
  }
  ReportWrite(write, NowSeconds(), result);
  result->metrics["peak_rss_mb"] = PeakRssMiB();
  result->metrics["disk_bytes_per_event"] =
      static_cast<double>(DirBytes(node.dir)) /
      static_cast<double>(std::max<size_t>(1, events.size()));
  result->metrics["bench.writer_lag_ms"] = write.max_lag_ms;
  const double achieved = static_cast<double>(write.events) /
                          std::max(1e-9, write.last_end - write.first_start);
  result->Note(StringPrintf(
      "writer: achieved %.0f events/s against %.0f scheduled, max lag "
      "%.2f ms",
      achieved, kWriteRate, write.max_lag_ms));

  // The final dashboard answers must equal the oracle over the full log.
  const auto final_bodies = FetchAll(node.port(), dashboard, result);
  OracleCheck(*node.index, log, dashboard, final_bodies, 2 * dashboard.size(),
              o.seed, o.corrupt_expected, result);
  if (!tracer->enabled()) return;
  Flush({&node}, tracer, result);
  ReportWriteLayers(write, files, {&node}, tracer, result);
  ReplayInProcess(*node.index, dashboard, tracer, result);
}

}  // namespace perfbench
