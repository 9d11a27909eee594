// Demonstrates that background auto-fold reaches folded-format query
// latency without anyone running `seqdet fold`: one skewed workload (see
// SkewedLog below) is ingested in batches three ways —
//
//   no_fold     ingest only; queries read the fragment piles
//   auto_fold   ingest with the maintenance service on; after the service
//               quiesces (WaitIdle), queries read what *it* folded
//   manual_fold ingest, then an explicit FoldPostingsIncremental() (what
//               `seqdet fold` runs)
//
// and the trace-selective query latency of auto_fold must land on
// manual_fold's, far below no_fold's. Emits BENCH_maintenance.json.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "index/maintenance.h"
#include "query/query_processor.h"

using namespace seqdet;

namespace {

constexpr size_t kRareActivities = 8;
constexpr size_t kRareBandTraces = 8;
constexpr size_t kHotActivities = 6;

std::string ActName(const char* prefix, size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

// Hot pairs in every trace, each rare activity confined to one narrow
// trace-id band, so folded block headers let rare-anchored queries skip
// almost everything.
eventlog::EventLog SkewedLog(size_t traces, uint64_t seed) {
  eventlog::EventLog log;
  Rng rng(seed);
  const size_t stride = traces / kRareActivities;
  for (size_t t = 0; t < traces; ++t) {
    int64_t ts = static_cast<int64_t>(t) * 1000;
    if (t % stride < kRareBandTraces) {
      log.Append(t, ActName("R", t / stride), ts++);
    }
    for (int round = 0; round < 3; ++round) {
      for (size_t h = 0; h < kHotActivities; ++h) {
        ts += 1 + static_cast<int64_t>(rng.NextBounded(5));
        log.Append(t, ActName("H", h), ts);
      }
    }
  }
  log.SortAllTraces();
  return log;
}

/// Splits `log` into `batches` consecutive trace-range batches — the
/// streaming-ingest shape that piles up append fragments.
std::vector<eventlog::EventLog> SplitBatches(const eventlog::EventLog& log,
                                             size_t batches) {
  std::vector<eventlog::EventLog> out(batches);
  size_t i = 0;
  for (const eventlog::Trace& trace : log.traces()) {
    eventlog::EventLog& batch = out[i++ * batches / log.num_traces()];
    for (const auto& event : trace.events) {
      batch.Append(trace.id, log.dictionary().Name(event.activity),
                   event.ts);
    }
  }
  for (auto& b : out) b.SortAllTraces();
  return out;
}

struct ModeResult {
  std::string name;
  double ingest_seconds = 0;   // Update() calls only
  double settle_seconds = 0;   // fold time (manual) / WaitIdle (auto)
  double ms_per_query = 0;
  size_t matches = 0;
  uint64_t bytes_decoded_per_query = 0;
  double fragment_ratio = 0;   // at query time
  uint64_t service_folds = 0;
  uint64_t service_keys_folded = 0;
};

// Rare-anchored queries: each starts at one narrow-band rare activity,
// then joins against two hot pair lists.
std::vector<query::Pattern> RareQueries(const index::SequenceIndex& index) {
  std::vector<query::Pattern> queries;
  auto id = [&](const std::string& name) {
    return index.dictionary().Lookup(name);
  };
  for (size_t k = 0; k < kRareActivities; ++k) {
    query::Pattern p;
    p.activities = {id(ActName("R", k)), id("H0"), id("H1")};
    queries.push_back(std::move(p));
    p.activities = {id(ActName("R", k)), id("H2"), id("H3")};
    queries.push_back(std::move(p));
  }
  return queries;
}

ModeResult RunMode(const std::string& name,
                   const std::vector<eventlog::EventLog>& batches,
                   const bench::BenchOptions& options, bool auto_fold,
                   bool manual_fold) {
  ModeResult result;
  result.name = name;
  auto db = bench::FreshDb();
  index::IndexOptions index_options;
  index_options.num_threads = options.threads;
  index_options.cache_bytes = 0;  // cold decode path, like posting_blocks
  if (auto_fold) {
    index_options.maintenance.auto_fold = true;
    index_options.maintenance.check_interval_ms = 20;
    index_options.maintenance.min_pending_bytes = 64u << 10;
    index_options.maintenance.min_pending_ops = 1024;
  }
  auto opened = index::SequenceIndex::Open(db.get(), index_options);
  if (!opened.ok()) std::abort();
  auto index = std::move(opened).value();

  Stopwatch ingest;
  for (const auto& batch : batches) {
    auto stats = index->Update(batch);
    if (!stats.ok()) std::abort();
  }
  result.ingest_seconds = ingest.ElapsedSeconds();

  Stopwatch settle;
  if (auto_fold) {
    if (!index->maintenance()->WaitIdle(/*timeout_ms=*/120000)) {
      std::fprintf(stderr, "maintenance service failed to quiesce\n");
      std::abort();
    }
  } else if (manual_fold) {
    Status folded = index->FoldPostingsIncremental();
    if (!folded.ok()) std::abort();
  }
  result.settle_seconds = settle.ElapsedSeconds();

  auto frag = index->PostingFragmentationStats();
  if (frag.ok()) result.fragment_ratio = frag->FragmentRatio();
  if (auto_fold) {
    index::MaintenanceStats m = index->maintenance_stats();
    result.service_folds = m.folds_run;
    result.service_keys_folded = m.keys_folded;
  }

  query::QueryProcessor qp(index.get());
  auto queries = RareQueries(*index);
  index::IndexReadStats before = index->read_stats();
  size_t total_queries = 0;
  double seconds = bench::TimeSeconds(options.repetitions, [&] {
    result.matches = 0;
    for (const auto& q : queries) {
      auto matches = qp.Detect(q);
      if (!matches.ok()) std::abort();
      result.matches += matches->size();
      ++total_queries;
    }
  });
  index::IndexReadStats after = index->read_stats();
  result.ms_per_query =
      seconds * 1e3 / static_cast<double>(queries.size());
  result.bytes_decoded_per_query =
      (after.bytes_decoded - before.bytes_decoded) / total_queries;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  std::string out_path = "BENCH_maintenance.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--out=")) out_path = arg.substr(6);
  }
  const size_t traces = std::max<size_t>(
      8192, static_cast<size_t>(163840 * options.scale));
  const size_t batches = 16;
  eventlog::EventLog log = SkewedLog(traces, options.seed);
  auto split = SplitBatches(log, batches);

  std::printf(
      "maintenance bench: %zu traces, %zu events, %zu ingest batches\n\n",
      traces, log.num_events(), batches);

  std::vector<ModeResult> results;
  results.push_back(RunMode("no_fold", split, options, false, false));
  results.push_back(RunMode("auto_fold", split, options, true, false));
  results.push_back(RunMode("manual_fold", split, options, false, true));

  bench::TablePrinter table({"mode", "ingest_s", "settle_s", "ms/query",
                             "bytes/query", "frag_ratio", "folds"});
  for (const auto& r : results) {
    table.AddRow({r.name, bench::Secs(r.ingest_seconds),
                  bench::Secs(r.settle_seconds),
                  StringPrintf("%.4f", r.ms_per_query),
                  std::to_string(r.bytes_decoded_per_query),
                  StringPrintf("%.3f", r.fragment_ratio),
                  std::to_string(r.service_folds)});
  }
  table.Print();

  const ModeResult& none = results[0];
  const ModeResult& autof = results[1];
  const ModeResult& manual = results[2];
  double parity = manual.ms_per_query > 0
                      ? autof.ms_per_query / manual.ms_per_query
                      : 0;
  std::printf(
      "\nauto_fold vs manual_fold latency ratio: %.2fx (1.0 = parity)\n"
      "auto_fold vs no_fold speedup: %.2fx\n",
      parity,
      autof.ms_per_query > 0 ? none.ms_per_query / autof.ms_per_query : 0);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"maintenance\",\n"
               "  \"traces\": %zu,\n"
               "  \"scale\": %.3f,\n"
               "  \"repetitions\": %zu,\n"
               "  \"ingest_batches\": %zu,\n"
               "  \"auto_vs_manual_latency_ratio\": %.3f,\n"
               "  \"auto_vs_nofold_speedup\": %.2f,\n"
               "  \"match_counts_equal\": %s,\n"
               "  \"modes\": [\n",
               traces, options.scale, options.repetitions, batches, parity,
               autof.ms_per_query > 0
                   ? none.ms_per_query / autof.ms_per_query
                   : 0,
               (none.matches == autof.matches &&
                autof.matches == manual.matches)
                   ? "true"
                   : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"ingest_seconds\": %.3f, "
        "\"settle_seconds\": %.3f, \"ms_per_query\": %.4f, "
        "\"matches\": %zu, \"bytes_decoded_per_query\": %llu, "
        "\"fragment_ratio\": %.3f, \"service_folds\": %llu, "
        "\"service_keys_folded\": %llu}%s\n",
        r.name.c_str(), r.ingest_seconds, r.settle_seconds, r.ms_per_query,
        r.matches, static_cast<unsigned long long>(r.bytes_decoded_per_query),
        r.fragment_ratio, static_cast<unsigned long long>(r.service_folds),
        static_cast<unsigned long long>(r.service_keys_folded),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
