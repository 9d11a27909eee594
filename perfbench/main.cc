// perfbench: the end-to-end benchmark of seqdet.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--work-dir <dir>] [--trace-dir <dir>]
//
// Prints a run fingerprint and a report, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1. Exits 1 when
// any answer was wrong, 2 on bad arguments.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/strings.h"
#include "harness.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_events_per_s", "events/s"},
    {"update_p50_ms", "ms"},
    {"query_qps", "queries/s"},
    {"detect_p50_ms", "ms"},
    {"detect_p99_ms", "ms"},
    {"xdetect_p50_ms", "ms"},
    {"xdetect_p99_ms", "ms"},
    {"stats_p50_ms", "ms"},
    {"continue_p50_ms", "ms"},
    {"continue_p99_ms", "ms"},
    {"success_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"disk_bytes_per_event", "bytes/event"},
};

constexpr MetricSpec kPerLayer[] = {
    {"log.parse_s", "s"},
    {"log.events_per_s", "events/s"},
    {"index.update_s", "s"},
    {"index.update_p99_ms", "ms"},
    {"index.extract_s", "s"},
    {"index.pairs_per_event", "pairs/event"},
    {"index.pairs_indexed", "count"},
    {"index.flush_s", "s"},
    {"index.settle_s", "s"},
    {"index.fold_cycles", "count"},
    {"index.keys_folded", "count"},
    {"index.fold_bytes_rewritten", "bytes"},
    {"index.fragment_ratio", "ratio"},
    {"storage.open_s", "s"},
    {"storage.disk_bytes", "bytes"},
    {"storage.wal_bytes", "bytes"},
    {"storage.segments", "count"},
    {"storage.blocks", "count"},
    {"storage.compression_ratio", "ratio"},
    {"index.cache_hits", "count"},
    {"index.cache_misses", "count"},
    {"index.cache_hit_ratio", "ratio"},
    {"index.cache_evictions", "count"},
    {"index.cache_invalidations", "count"},
    {"index.blocks_decoded_per_query", "blocks"},
    {"index.blocks_skipped_per_query", "blocks"},
    {"index.bytes_decoded_per_query", "bytes"},
    {"query.parse_us", "us"},
    {"query.detect_ms", "ms"},
    {"query.xdetect_ms", "ms"},
    {"query.stats_ms", "ms"},
    {"query.continue_ms", "ms"},
    {"query.matches_per_detect", "matches"},
    {"server.detect_handler_p50_ms", "ms"},
    {"server.stats_handler_p50_ms", "ms"},
    {"server.continue_handler_p50_ms", "ms"},
    {"server.hop_ms", "ms"},
    {"server.stats_p99_ms", "ms"},
    {"server.serialize_us", "us"},
    {"server.response_bytes", "bytes"},
    {"server.connections_accepted", "count"},
    {"server.shed", "count"},
    {"server.timeouts", "count"},
    {"router.overhead_ms", "ms"},
    {"router.shard_handler_p50_ms", "ms"},
    {"router.merge_parse_us", "us"},
    {"router.scatters", "count"},
    {"router.hedges", "count"},
    {"router.failures", "count"},
    {"router.pool_dials", "count"},
    {"router.pool_reuses", "count"},
    {"common.pool.tasks", "count"},
    {"common.pool.peak_queue_depth", "count"},
    {"bench.writer_lag_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest|query|query_routed|"
               "query_during_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale <f>] [--work-dir <dir>] [--trace-dir <dir>]\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-expected") {
      o->corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    int64_t n = 0;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed" && ParseInt64(value, &n)) {
      o->seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds" && ParseDouble(value, &o->seconds) &&
               o->seconds > 0) {
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      o->trace = value == "1";
    } else if (arg == "--scale" && ParseDouble(value, &o->scale) &&
               o->scale > 0) {
    } else if (arg == "--work-dir") {
      o->work_dir = value;
    } else if (arg == "--trace-dir") {
      o->trace_dir = value;
    } else {
      return false;
    }
  }
  return o->workload == "ingest" || o->workload == "query" ||
         o->workload == "query_routed" ||
         o->workload == "query_during_ingest";
}

void PrintFingerprint(const Options& o) {
  struct utsname host {};
  uname(&host);
  const index::IndexOptions idx;
  const storage::TableOptions table;
  std::printf(
      "fingerprint: nproc=%ld kernel=%s build=%s compiler=\"g++ %s\" "
      "zstd=%d\n"
      "fingerprint: workload=%s seed=%llu seconds=%g trace=%d scale=%g\n"
      "fingerprint: policy=STNM index_threads=%zu http_threads=%zu "
      "query_threads=%zu scatter_threads=%zu clients=%zu shards=%zu\n"
      "fingerprint: wal=%d sync_wal=%d memtable_flush_bytes=%zu "
      "cache_bytes=%zu auto_fold_min_pending_bytes=%llu "
      "router_deadline_ms=%lld keepalive_requests=%zu\n",
      sysconf(_SC_NPROCESSORS_ONLN), host.release, PERFBENCH_BUILD_TYPE,
      __VERSION__, PERFBENCH_ZSTD, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      o.scale, kIndexThreads, kHttpThreads, kQueryThreads, kScatterThreads,
      kClients, kShards, table.use_wal ? 1 : 0, table.sync_wal ? 1 : 0,
      table.memtable_flush_bytes, idx.cache_bytes,
      static_cast<unsigned long long>(idx.maintenance.min_pending_bytes),
      static_cast<long long>(kRouterDeadlineMs), kKeepAliveRequests);
}

void PrintLedger(const Tracer& tracer, const RunResult& result) {
  std::printf("ledger: self time per layer over %zu spans\n", tracer.size());
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    std::printf("  %-10s %10.4f s\n", layer.c_str(), seconds);
  }
  for (const MetricSpec& spec : kPerLayer) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      std::printf("  %-34s n/a\n", spec.name);
    } else {
      std::printf("  %-34s %.6g %s\n", spec.name, it->second, spec.unit);
    }
  }
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    Usage();
    return 2;
  }
  PrintFingerprint(o);
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  Tracer tracer(o.trace);
  RunResult result;
  if (o.workload == "ingest") {
    RunIngest(o, &tracer, &result);
  } else if (o.workload == "query" || o.workload == "query_routed") {
    RunQuery(o, o.workload == "query_routed", &tracer, &result);
  } else {
    RunQueryDuringIngest(o, &tracer, &result);
  }
  std::filesystem::remove_all(o.work_dir, ec);
  if (o.trace) {
    result.metrics["storage.open_s"] = tracer.TotalSeconds("storage.open");
  }

  result.attempted = std::max<uint64_t>(result.attempted, 1);
  result.failed = std::min(result.failed, result.attempted);
  result.metrics["success_ratio"] =
      1.0 - static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  for (const auto& line : result.notes) std::printf("%s\n", line.c_str());
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const auto& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (o.trace) {
    const std::string dump = o.trace_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".jsonl";
    std::printf("spans: %zu written to %s%s\n", tracer.size(), dump.c_str(),
                tracer.Dump(dump) ? "" : " (write failed)");
    PrintLedger(tracer, result);
  }

  const bool correct = result.check_failures.empty() && result.failed == 0;
  std::string metrics;
  for (const MetricSpec& spec : o.trace ? std::vector<MetricSpec>(
                                              std::begin(kPerLayer),
                                              std::end(kPerLayer))
                                        : std::vector<MetricSpec>(
                                              std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && !o.trace) {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name);
      return 1;
    }
    // Per-layer lines of a layer the workload does not run read 0.
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += StringPrintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            spec.name, value, spec.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
