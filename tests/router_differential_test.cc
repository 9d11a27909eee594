// Router differential harness: a ShardRouter over N trace-hash shards
// versus one QueryService over the unsharded index, byte-for-byte.
//
// The merge contract (DESIGN.md §15) is not "equivalent results" but
// *identical bytes*: every /detect, /stats and /continue response through
// the router — match order, derived doubles, serialization — must equal
// the single process's response exactly, at every shard count. The
// harness drives seeded random patterns (plain and extended grammar)
// through both sides over in-process HTTP servers at 1, 2, 4 and 8
// shards; shard count 1 pins the degenerate case (the merge path itself,
// with nothing to merge).
//
// Replay a failing seed with SEQDET_DIFF_SEED=<seed>; scale the corpus
// with SEQDET_DIFF_PATTERNS (default 1000 detect patterns per shard
// count, a quarter of that for each of the other axes).

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/sync.h"
#include "datagen/generators.h"
#include "gtest/gtest.h"
#include "index/sequence_index.h"
#include "index/trace_shard.h"
#include "log/event_log.h"
#include "query/pattern.h"
#include "query/query_processor.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "server/shard_router.h"
#include "storage/database.h"

namespace seqdet {
namespace {

using eventlog::ActivityId;
using eventlog::EventLog;
using index::IndexOptions;
using index::Policy;
using index::SequenceIndex;
using query::ExtendedPattern;
using query::PatternElement;

uint64_t DiffSeed() {
  if (const char* env = std::getenv("SEQDET_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20210323;
}

size_t PatternsPerConfig() {
  if (const char* env = std::getenv("SEQDET_DIFF_PATTERNS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1000;
}

EventLog DiffLog(uint64_t seed) {
  datagen::RandomLogConfig config;
  config.num_traces = 120;
  config.max_events_per_trace = 40;
  config.num_activities = 10;
  config.seed = seed;
  config.mean_gap = 5;
  config.activity_skew = 0.3;
  return datagen::GenerateRandomLog(config);
}

/// The same partitioning `seqdet shard-split` performs: traces by hash,
/// every partition pre-interned with the full dictionary so activity ids
/// are identical across shards.
std::vector<EventLog> PartitionLog(const EventLog& log, size_t num_shards) {
  std::vector<EventLog> parts(num_shards);
  for (auto& part : parts) {
    for (const auto& name : log.dictionary().names()) {
      part.dictionary().Intern(name);
    }
  }
  for (const auto& trace : log.traces()) {
    parts[index::ShardOfTrace(trace.id, num_shards)].AddTrace(trace);
  }
  return parts;
}

/// One in-process "process": in-memory index + QueryService + HttpServer.
struct Node {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<SequenceIndex> index;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;

  explicit Node(const EventLog& log) {
    storage::DbOptions db_options;
    db_options.table.in_memory = true;
    db_options.table.use_wal = false;
    db = std::move(storage::Database::Open("", db_options)).value();
    IndexOptions options;
    options.policy = Policy::kSkipTillNextMatch;
    options.num_threads = 1;
    options.posting_block_bytes = 96;
    index = std::move(SequenceIndex::Open(db.get(), options)).value();
    auto stats = index->Update(log);
    EXPECT_TRUE(stats.ok()) << stats.status();
    service = std::make_unique<server::QueryService>(index.get());
    http = std::make_unique<server::HttpServer>();
    service->RegisterRoutes(http.get());
    EXPECT_TRUE(http->Start(0).ok());
  }
  ~Node() { http->Stop(); }
};

/// The full comparison rig: single unsharded server vs. router over N
/// sharded workers, all in-process.
struct Rig {
  Node single;
  std::vector<std::unique_ptr<Node>> workers;
  std::unique_ptr<server::ShardRouter> router;
  std::unique_ptr<server::HttpServer> router_http;

  Rig(const EventLog& log, size_t num_shards) : single(log) {
    server::RouterOptions options;
    for (const EventLog& part : PartitionLog(log, num_shards)) {
      workers.push_back(std::make_unique<Node>(part));
      options.shards.push_back(
          server::ShardEndpoint{"127.0.0.1", workers.back()->http->port()});
    }
    // Generous budget, hedging off: the differential axis certifies merge
    // bytes, not tail-latency policy (router_fault_test covers that).
    options.default_deadline_ms = 60000;
    options.hedge_after_ms = 0;
    router = std::make_unique<server::ShardRouter>(options);
    router_http = std::make_unique<server::HttpServer>();
    router->RegisterRoutes(router_http.get());
    EXPECT_TRUE(router_http->Start(0).ok());
  }
  ~Rig() { router_http->Stop(); }
};

/// A pass-through front for one worker that records the query of every
/// /continue request it forwards, so a test can check what the router
/// actually asks its shards.
struct RecordingFront {
  uint16_t backend;
  Mutex mu;
  std::vector<std::map<std::string, std::string>> continues GUARDED_BY(mu);
  // Last, so its workers stop before the members they use are destroyed.
  server::HttpServer http;

  explicit RecordingFront(uint16_t backend_port) : backend(backend_port) {
    http.Route("/continue", [this](const server::HttpRequest& request) {
      {
        MutexLock lock(mu);
        continues.push_back(request.query);
      }
      std::string target = "/continue";
      char sep = '?';
      for (const auto& [key, value] : request.query) {
        target += sep + server::HttpClient::UrlEncode(key) + "=" +
                  server::HttpClient::UrlEncode(value);
        sep = '&';
      }
      server::HttpClient client(backend);
      auto response = client.Get(target);
      if (!response.ok()) {
        return server::HttpResponse::Error(502, response.status().ToString());
      }
      return server::HttpResponse{response->status, "application/json",
                                  response->body, {}};
    });
    EXPECT_TRUE(http.Start(0).ok());
  }

  std::vector<std::map<std::string, std::string>> Take() REQUIRES(!mu) {
    MutexLock lock(mu);
    return std::exchange(continues, {});
  }
};

struct GetResult {
  int status = 0;
  std::string body;
};

GetResult Get(uint16_t port, const std::string& target) {
  server::HttpClient client(port);
  auto response = client.Get(target);
  EXPECT_TRUE(response.ok()) << target << ": " << response.status();
  if (!response.ok()) return {};
  return {response->status, response->body};
}

/// The assertion every axis funnels into: same status, same bytes.
void ExpectIdentical(const Rig& rig, const std::string& target,
                     const std::string& context) {
  server::HttpClient single(rig.single.http->port());
  server::HttpClient routed(rig.router_http->port());
  auto want = single.Get(target);
  auto got = routed.Get(target);
  ASSERT_TRUE(want.ok()) << context << ": " << want.status();
  ASSERT_TRUE(got.ok()) << context << ": " << got.status();
  ASSERT_EQ(got->status, want->status) << context << " router body: "
                                       << got->body;
  ASSERT_EQ(got->body, want->body) << context;
}

std::vector<std::vector<ActivityId>> RandomPatterns(size_t count,
                                                    size_t num_activities,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ActivityId>> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = static_cast<size_t>(rng.NextInRange(2, 4));
    std::vector<ActivityId> p(len);
    for (auto& a : p) {
      a = static_cast<ActivityId>(rng.NextBounded(num_activities));
    }
    patterns.push_back(std::move(p));
  }
  return patterns;
}

/// Same sampler as differential_test's extended axis: every pattern valid
/// by construction.
std::vector<ExtendedPattern> RandomExtendedPatterns(size_t count,
                                                    size_t num_activities,
                                                    uint64_t seed) {
  Rng rng(seed ^ 0xE47E4DEDull);
  std::vector<ExtendedPattern> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ExtendedPattern pattern;
    const size_t len = 1 + rng.NextBounded(4);
    for (size_t e = 0; e < len; ++e) {
      PatternElement element;
      const size_t alts = rng.NextBool(0.3) ? 1 + rng.NextBounded(3) : 1;
      for (size_t a = 0; a < alts; ++a) {
        element.alternatives.push_back(
            static_cast<ActivityId>(rng.NextBounded(num_activities)));
      }
      std::sort(element.alternatives.begin(), element.alternatives.end());
      element.alternatives.erase(
          std::unique(element.alternatives.begin(),
                      element.alternatives.end()),
          element.alternatives.end());
      element.negated = rng.NextBool(0.2);
      element.kleene = !element.negated && rng.NextBool(0.25);
      pattern.elements.push_back(std::move(element));
    }
    bool any_positive = false;
    for (const auto& e : pattern.elements) any_positive |= !e.negated;
    if (!any_positive) {
      pattern.elements[rng.NextBounded(pattern.elements.size())].negated =
          false;
    }
    if (rng.NextBool(0.3)) pattern.max_span = rng.NextInRange(1, 80);
    if (rng.NextBool(0.3)) pattern.max_gap = rng.NextInRange(1, 25);
    EXPECT_TRUE(pattern.Validate().ok());
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

std::string PatternText(const SequenceIndex& index,
                        const std::vector<ActivityId>& pattern) {
  std::string q;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) q += " -> ";
    q += index.dictionary().Name(pattern[i]);
  }
  return q;
}

std::string Describe(const std::string& target, size_t shards,
                     uint64_t seed) {
  return "shards=" + std::to_string(shards) + " target=" + target +
         " (replay: SEQDET_DIFF_SEED=" + std::to_string(seed) + ")";
}

class RouterDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RouterDifferentialTest, DetectByteIdentical) {
  const uint64_t seed = DiffSeed();
  const size_t shards = GetParam();
  EventLog log = DiffLog(seed);
  Rig rig(log, shards);
  Rng limit_rng(seed ^ 0x11717ull);

  auto patterns = RandomPatterns(PatternsPerConfig(),
                                 log.dictionary().size(), seed);
  query::QueryProcessor qp(rig.single.index.get());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const auto& p = patterns[i];
    std::string q = server::HttpClient::UrlEncode(
        PatternText(*rig.single.index, p));
    // Mostly unlimited (full merge order is on trial); a sampled minority
    // with tight limits, where merged-truncation must still equal
    // single-process truncation (per-shard prefixes cover the global
    // prefix because the merge is a stable sort by disjoint trace ids).
    std::string target = "/detect?q=" + q + "&limit=1000000";
    if (limit_rng.NextBool(0.25)) {
      target = "/detect?q=" + q + "&limit=" +
               std::to_string(limit_rng.NextInRange(0, 5));
    }
    ExpectIdentical(rig, target, Describe(target, shards, seed));

    // Transitive anchor on a sampled subset: the single server itself
    // matches the in-process engine (the full-corpus version of this
    // assertion lives in differential_test).
    if (i % 64 == 0) {
      auto single = Get(rig.single.http->port(),
                        "/detect?q=" + q + "&limit=1000000");
      auto matches = qp.Detect(query::Pattern(p));
      ASSERT_TRUE(matches.ok()) << matches.status();
      ASSERT_EQ(single.body, server::DetectResponseJson(*matches, 1000000))
          << Describe(target, shards, seed);
    }
  }
}

TEST_P(RouterDifferentialTest, ExtendedDetectByteIdentical) {
  const uint64_t seed = DiffSeed();
  const size_t shards = GetParam();
  EventLog log = DiffLog(seed);
  Rig rig(log, shards);
  const auto& dict = rig.single.index->dictionary();

  auto patterns = RandomExtendedPatterns(
      std::max<size_t>(PatternsPerConfig() / 4, 100), dict.size(), seed);
  for (const ExtendedPattern& p : patterns) {
    std::string target = "/detect?q=" +
                         server::HttpClient::UrlEncode(p.ToString(dict)) +
                         "&limit=1000000";
    ExpectIdentical(rig, target, Describe(target, shards, seed));
  }
}

TEST_P(RouterDifferentialTest, StatsByteIdentical) {
  const uint64_t seed = DiffSeed();
  const size_t shards = GetParam();
  EventLog log = DiffLog(seed);
  Rig rig(log, shards);
  Rng rng(seed ^ 0x57A75ull);

  auto patterns = RandomPatterns(
      std::max<size_t>(PatternsPerConfig() / 4, 100),
      log.dictionary().size(), seed ^ 1);
  for (const auto& p : patterns) {
    std::string target =
        "/stats?q=" + server::HttpClient::UrlEncode(
                          PatternText(*rig.single.index, p));
    if (rng.NextBool()) target += "&last=1";
    ExpectIdentical(rig, target, Describe(target, shards, seed));
  }
}

TEST_P(RouterDifferentialTest, ContinueByteIdenticalAllModes) {
  const uint64_t seed = DiffSeed();
  const size_t shards = GetParam();
  EventLog log = DiffLog(seed);
  Rig rig(log, shards);
  Rng rng(seed ^ 0xC027ull);

  auto patterns = RandomPatterns(
      std::max<size_t>(PatternsPerConfig() / 4, 100),
      log.dictionary().size(), seed ^ 2);
  const char* kModes[] = {"accurate", "fast", "hybrid"};
  // Hybrid's topk drives the fast-rank-then-verify split, and the router
  // sends the top-k ids to the shards' verify leg. Every fourth hybrid
  // case each verifies one candidate, three, and every follower (the
  // dictionary size bounds |followers|); the rest draw topk from 0-6 on a
  // coin flip, where 0 falls back to the pure fast ranking on both sides.
  const size_t all_followers = log.dictionary().size();
  for (size_t i = 0; i < patterns.size(); ++i) {
    std::string q = server::HttpClient::UrlEncode(
        PatternText(*rig.single.index, patterns[i]));
    std::string target =
        "/continue?q=" + q + "&mode=" + kModes[i % 3];
    if (i % 3 == 2) {
      switch (i / 3 % 4) {
        case 0:
          target += "&topk=1";
          break;
        case 1:
          target += "&topk=3";
          break;
        case 2:
          target += "&topk=" + std::to_string(all_followers);
          break;
        default:
          if (rng.NextBool()) {
            target += "&topk=" + std::to_string(rng.NextInRange(0, 6));
          }
      }
    }
    if (rng.NextBool(0.3)) {
      target += "&limit=" + std::to_string(rng.NextInRange(0, 8));
    }
    ExpectIdentical(rig, target, Describe(target, shards, seed));
  }
}

TEST_P(RouterDifferentialTest, HybridVerifyLegCarriesTopK) {
  const uint64_t seed = DiffSeed();
  const size_t shards = GetParam();
  EventLog log = DiffLog(seed);
  Rig rig(log, shards);
  // A second router over recording fronts of the same workers.
  std::vector<std::unique_ptr<RecordingFront>> fronts;
  server::RouterOptions options;
  for (const auto& worker : rig.workers) {
    fronts.push_back(std::make_unique<RecordingFront>(worker->http->port()));
    options.shards.push_back(
        server::ShardEndpoint{"127.0.0.1", fronts.back()->http.port()});
  }
  options.default_deadline_ms = 60000;
  options.hedge_after_ms = 0;
  server::ShardRouter router(options);
  server::HttpServer router_http;
  router.RegisterRoutes(&router_http);
  ASSERT_TRUE(router_http.Start(0).ok());

  query::QueryProcessor qp(rig.single.index.get());
  for (const auto& p : RandomPatterns(20, log.dictionary().size(), seed ^ 3)) {
    const std::string q =
        server::HttpClient::UrlEncode(PatternText(*rig.single.index, p));
    auto fast = qp.ContinueFast(query::Pattern(p));
    ASSERT_TRUE(fast.ok()) << fast.status();
    for (size_t topk : {size_t{1}, size_t{3}}) {
      const std::string target =
          "/continue?q=" + q + "&mode=hybrid&topk=" + std::to_string(topk);
      GetResult routed = Get(router_http.port(), target);
      EXPECT_EQ(routed.body, Get(rig.single.http->port(), target).body)
          << Describe(target, shards, seed);
      // Every shard's verify leg names exactly the merged Fast top-k.
      std::set<std::string> want;
      for (size_t i = 0; i < std::min(topk, fast->size()); ++i) {
        want.insert(std::to_string((*fast)[i].activity));
      }
      for (auto& front : fronts) {
        size_t verify_legs = 0;
        for (const auto& query : front->Take()) {
          if (auto mode = query.find("mode");
              mode == query.end() || mode->second != "accurate") {
            continue;
          }
          ++verify_legs;
          auto it = query.find("candidates");
          ASSERT_NE(it, query.end())
              << "verify leg without a candidate filter: "
              << Describe(target, shards, seed);
          std::set<std::string> got;
          if (!it->second.empty()) {
            for (const std::string& id : Split(it->second, ',')) {
              got.insert(id);
            }
          }
          EXPECT_EQ(got, want) << Describe(target, shards, seed);
        }
        EXPECT_EQ(verify_legs, 1u) << Describe(target, shards, seed);
      }
    }
  }
  // Plain accurate mode still verifies every follower: no filter.
  Get(router_http.port(), "/continue?q=" +
                              server::HttpClient::UrlEncode(PatternText(
                                  *rig.single.index, {ActivityId{0}})) +
                              "&mode=accurate");
  for (auto& front : fronts) {
    for (const auto& query : front->Take()) {
      EXPECT_EQ(query.count("candidates"), 0u);
    }
  }
}

TEST_P(RouterDifferentialTest, ErrorResponsesRelayedVerbatim) {
  const uint64_t seed = DiffSeed();
  const size_t shards = GetParam();
  EventLog log = DiffLog(seed);
  Rig rig(log, shards);

  // Shard rejections (unknown activity, bad syntax, bad mode) must relay
  // byte-identically: the router forwards the first shard's 400 instead
  // of synthesizing its own error shape.
  for (const char* target :
       {"/detect?q=no_such_activity_xyz", "/detect?q=%28%28%28",
        "/stats?q=act_0", "/continue?q=act_0+-%3E+act_1&mode=bogus",
        "/detect", "/stats", "/continue"}) {
    ExpectIdentical(rig, target, Describe(target, shards, seed));
  }
  // /health is a router-local answer with the single server's bytes.
  ExpectIdentical(rig, "/health", Describe("/health", shards, seed));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, RouterDifferentialTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace seqdet
