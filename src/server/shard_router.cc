#include "server/shard_router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "query/query_processor.h"
#include "server/json.h"
#include "server/query_service.h"

namespace seqdet::server {

namespace {

// Same defaulting as the single-process handlers (query_service.cc), so a
// request without `limit` serializes identically either way.
size_t LimitParam(const HttpRequest& request, size_t fallback) {
  auto it = request.query.find("limit");
  if (it == request.query.end()) return fallback;
  int64_t v;
  return ParseInt64(it->second, &v) && v >= 0 ? static_cast<size_t>(v)
                                              : fallback;
}

std::string_view TrimSpace(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Integer aggregates of one merged /continue candidate, keyed by the
/// shard-reported activity id (identical across shards — shard-split
/// pre-interns the full dictionary into every partition).
struct CandidateAgg {
  std::string name;
  uint64_t completions = 0;
  int64_t sum_duration = 0;
};

/// Folds one raw proposal/candidate object into `agg`.
Status AccumulateCandidate(const JsonValue& entry,
                           std::map<int64_t, CandidateAgg>* agg) {
  SEQDET_ASSIGN_OR_RETURN(int64_t id, entry.GetInt("id"));
  SEQDET_ASSIGN_OR_RETURN(std::string name, entry.GetString("activity"));
  SEQDET_ASSIGN_OR_RETURN(int64_t completions, entry.GetInt("completions"));
  SEQDET_ASSIGN_OR_RETURN(int64_t sum_duration, entry.GetInt("sum_duration"));
  CandidateAgg& a = (*agg)[id];
  a.name = std::move(name);
  a.completions += static_cast<uint64_t>(completions);
  a.sum_duration += sum_duration;
  return Status::OK();
}

/// Materializes merged aggregates as ContinuationProposals, recomputing
/// the average exactly as every single-process path does (int64 sum /
/// uint64 count, both widened to double once).
std::vector<query::ContinuationProposal> ProposalsFromAggregates(
    const std::map<int64_t, CandidateAgg>& agg, uint64_t completion_cap) {
  std::vector<query::ContinuationProposal> proposals;
  proposals.reserve(agg.size());
  for (const auto& [id, a] : agg) {
    query::ContinuationProposal p;
    p.activity = static_cast<eventlog::ActivityId>(id);
    p.total_completions = std::min(completion_cap, a.completions);
    p.average_duration =
        a.completions == 0
            ? 0.0
            : static_cast<double>(a.sum_duration) /
                  static_cast<double>(a.completions);
    p.sum_duration = a.sum_duration;
    proposals.push_back(p);
  }
  return proposals;
}

std::vector<ProposalView> ViewsFor(
    const std::vector<query::ContinuationProposal>& proposals,
    const std::map<int64_t, CandidateAgg>& agg) {
  std::vector<ProposalView> views;
  views.reserve(proposals.size());
  for (const auto& p : proposals) {
    ProposalView view;
    view.activity = agg.at(static_cast<int64_t>(p.activity)).name;
    view.completions = p.total_completions;
    view.avg_duration = p.average_duration;
    view.score = p.score;
    views.push_back(std::move(view));
  }
  return views;
}

/// Merged raw `mode=accurate` fan-in: union candidates by id, sum the
/// integer aggregates (a shard without a candidate contributes zero).
Result<std::map<int64_t, CandidateAgg>> MergeAccurateRaw(
    const std::vector<const HttpClient::Response*>& responses) {
  std::map<int64_t, CandidateAgg> agg;
  for (const auto* response : responses) {
    SEQDET_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(response->body));
    SEQDET_ASSIGN_OR_RETURN(const auto* proposals, doc.GetArray("proposals"));
    for (const JsonValue& entry : *proposals) {
      SEQDET_RETURN_IF_ERROR(AccumulateCandidate(entry, &agg));
    }
  }
  return agg;
}

/// Merged raw `mode=fast` fan-in: Algorithm 4 over merged sums — the
/// pattern bound is min over *summed* pair counts (min-of-sums, which no
/// shard can compute locally), candidate counts sum uncapped and the cap
/// applies once, at the router.
struct FastMerge {
  std::map<int64_t, CandidateAgg> agg;
  uint64_t bound = std::numeric_limits<uint64_t>::max();
};

Result<FastMerge> MergeFastRaw(
    const std::vector<const HttpClient::Response*>& responses) {
  FastMerge merged;
  std::vector<uint64_t> pair_sums;
  bool first = true;
  for (const auto* response : responses) {
    SEQDET_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(response->body));
    SEQDET_ASSIGN_OR_RETURN(const auto* pairs, doc.GetArray("pattern_pairs"));
    if (first) {
      pair_sums.assign(pairs->size(), 0);
      first = false;
    } else if (pairs->size() != pair_sums.size()) {
      return Status::Internal("shard pattern_pairs length mismatch");
    }
    for (size_t i = 0; i < pairs->size(); ++i) {
      if (!(*pairs)[i].is_int()) {
        return Status::Internal("non-integer pattern_pairs entry");
      }
      pair_sums[i] += static_cast<uint64_t>((*pairs)[i].int_value());
    }
    SEQDET_ASSIGN_OR_RETURN(const auto* candidates,
                            doc.GetArray("candidates"));
    for (const JsonValue& entry : *candidates) {
      SEQDET_RETURN_IF_ERROR(AccumulateCandidate(entry, &merged.agg));
    }
  }
  for (uint64_t sum : pair_sums) merged.bound = std::min(merged.bound, sum);
  return merged;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard list parsing
// ---------------------------------------------------------------------------

Result<std::vector<ShardEndpoint>> ParseShardList(std::string_view csv) {
  std::vector<ShardEndpoint> shards;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view token = TrimSpace(csv.substr(start, comma - start));
    start = comma + 1;
    if (token.empty()) continue;
    ShardEndpoint ep;
    std::string_view port_part = token;
    if (size_t colon = token.rfind(':'); colon != std::string_view::npos) {
      std::string_view host = TrimSpace(token.substr(0, colon));
      if (host.empty()) {
        return Status::InvalidArgument("empty host in shard '" +
                                       std::string(token) + "'");
      }
      ep.host = std::string(host);
      port_part = token.substr(colon + 1);
    }
    int64_t port = 0;
    if (!ParseInt64(port_part, &port) || port < 1 || port > 65535) {
      return Status::InvalidArgument("bad shard port in '" +
                                     std::string(token) + "'");
    }
    ep.port = static_cast<uint16_t>(port);
    shards.push_back(std::move(ep));
  }
  if (shards.empty()) {
    return Status::InvalidArgument("empty shard list");
  }
  return shards;
}

// ---------------------------------------------------------------------------
// ScatterState
// ---------------------------------------------------------------------------

/// One fan-out in flight. The handler thread owns the wait loop; attempt
/// tasks on the scatter pool resolve legs under `mu`. Held by shared_ptr
/// from both sides, so an attempt that outlives its request (hedge lost
/// the race, deadline gave up on the shard) lands on live memory and is
/// ignored by the `resolved` check.
struct ShardRouter::ScatterState {
  struct Leg {
    bool resolved = false;
    bool hedge_launched = false;
    bool probe = false;
    size_t outstanding = 0;
    bool have_error = false;
    Status first_error = Status::OK();
    Result<HttpClient::Response> outcome{Status::Internal("pending")};
  };

  explicit ScatterState(size_t num_legs) : legs(num_legs) {}

  /// Fan-out lock. Order (common/sync.h map): ScatterState::mu is held
  /// across the launch loop, which acquires ShardState::mu (Admit) and
  /// ThreadPool::mu_ (Submit) under it — both are cheap bookkeeping
  /// acquisitions, never I/O. The only blocking call under it is the
  /// cv.WaitFor below, which releases mu while waiting.
  Mutex mu;
  CondVar cv;
  Clock::time_point started{};
  std::vector<Leg> legs;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter(RouterOptions options) : options_(std::move(options)) {
  shards_.reserve(options_.shards.size());
  for (const auto& endpoint : options_.shards) {
    shards_.push_back(std::make_shared<ShardState>(endpoint));
  }
  HttpClientPool::Options pool_options;
  pool_options.max_idle_per_host = options_.max_idle_connections_per_shard;
  pool_options.client.connect_timeout_ms = options_.connect_timeout_ms;
  pool_ = std::make_shared<HttpClientPool>(pool_options);
  size_t threads = options_.scatter_threads != 0
                       ? options_.scatter_threads
                       : 2 * std::max<size_t>(1, shards_.size());
  scatter_pool_ = std::make_unique<ThreadPool>(threads);
}

// The ThreadPool destructor drains queued attempts and joins, so every
// task's captured `this` outlives the task (scatter_pool_ is destroyed
// before any member an attempt touches).
ShardRouter::~ShardRouter() = default;

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

ShardRouter::Admission ShardRouter::Admit(ShardState* shard) const {
  MutexLock lock(shard->mu);
  if (!shard->open) return Admission::kAllow;
  if (!shard->probe_inflight && Clock::now() >= shard->open_until) {
    shard->probe_inflight = true;
    return Admission::kProbe;
  }
  return Admission::kRejected;
}

void ShardRouter::RecordOutcome(ShardState* shard, bool ok,
                                bool was_probe) const {
  MutexLock lock(shard->mu);
  if (was_probe) shard->probe_inflight = false;
  if (ok) {
    shard->consecutive_failures = 0;
    shard->open = false;
    return;
  }
  ++shard->consecutive_failures;
  if (shard->open) {
    // A failed probe (or a stale attempt admitted before the trip):
    // re-arm the cooldown from now.
    shard->open_until =
        Clock::now() + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    return;
  }
  if (options_.breaker_failure_threshold > 0 &&
      shard->consecutive_failures >= options_.breaker_failure_threshold) {
    shard->open = true;
    shard->open_until =
        Clock::now() + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    shard->breaker_opens.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Scatter
// ---------------------------------------------------------------------------

void ShardRouter::LaunchAttempt(const std::shared_ptr<ScatterState>& state,
                                size_t leg, size_t attempt, bool probe,
                                const std::string& target,
                                const Deadline& deadline) {
  std::shared_ptr<ShardState> shard = shards_[leg];
  shard->requests.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<HttpClientPool> pool = pool_;
  scatter_pool_->Submit([this, state, leg, attempt, probe, target, deadline,
                         shard, pool] {
    Result<HttpClient::Response> result = Status::Internal("unset");
    double remaining = deadline.RemainingMillis();
    bool attempted = remaining > 0;
    if (!attempted) {
      // Expired before we could even dial: not the shard's fault, so it
      // is no breaker input — but a probe must release its slot.
      result = Status::Aborted("deadline expired before contacting " +
                               shard->endpoint.ToString());
      if (probe) {
        MutexLock lock(shard->mu);
        shard->probe_inflight = false;
      }
    } else {
      // The transport may block for at most the remaining budget.
      int64_t io_ms = std::isinf(remaining)
                          ? 0
                          : std::max<int64_t>(
                                1, static_cast<int64_t>(std::ceil(remaining)));
      if (attempt == 0) {
        HttpClientPool::Handle handle =
            pool->Acquire(shard->endpoint.host, shard->endpoint.port);
        handle->set_io_timeout_ms(io_ms);
        result = handle->Get(target);
      } else {
        // Hedges deliberately skip the pool: the bet is that the primary's
        // connection (or the worker thread serving it) is stuck, so the
        // retry must not inherit either.
        HttpClient::Options fresh_options;
        fresh_options.connect_timeout_ms = options_.connect_timeout_ms;
        fresh_options.io_timeout_ms = io_ms;
        HttpClient fresh(shard->endpoint.host, shard->endpoint.port,
                         fresh_options);
        result = fresh.Get(target);
      }
      RecordOutcome(shard.get(), result.ok(), probe);
      if (!result.ok()) {
        shard->failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    MutexLock lock(state->mu);
    ScatterState::Leg& l = state->legs[leg];
    if (l.outstanding > 0) --l.outstanding;
    if (!l.resolved) {
      if (result.ok()) {
        l.resolved = true;
        l.outcome = std::move(result);
        if (attempt > 0) {
          shard->hedge_wins.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        if (!l.have_error) {
          l.have_error = true;
          l.first_error = result.status();
        }
        // A failure only resolves the leg when nothing else is racing for
        // it (the hedge may still come back with an answer).
        if (l.outstanding == 0) {
          l.resolved = true;
          l.outcome = l.first_error;
        }
      }
    }
    state->cv.NotifyAll();
  });
}

std::vector<Result<HttpClient::Response>> ShardRouter::Scatter(
    const std::string& target, const Deadline& deadline) {
  scatters_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = shards_.size();
  auto state = std::make_shared<ScatterState>(n);
  state->started = Clock::now();

  // The per-hop deadline the workers see: the remaining budget minus the
  // router's merge margin, so the slowest shard leaves time to merge.
  std::string hop_target = target;
  if (deadline.has_deadline()) {
    int64_t hop_ms = std::max<int64_t>(
        1, static_cast<int64_t>(
               std::floor(deadline.RemainingMillis() -
                          static_cast<double>(options_.merge_margin_ms))));
    hop_target += hop_target.find('?') == std::string::npos ? '?' : '&';
    hop_target += "deadline_ms=" + std::to_string(hop_ms);
  }

  MutexLock lock(state->mu);
  for (size_t i = 0; i < n; ++i) {
    Admission admission = Admit(shards_[i].get());
    ScatterState::Leg& leg = state->legs[i];
    if (admission == Admission::kRejected) {
      shards_[i]->short_circuits.fetch_add(1, std::memory_order_relaxed);
      leg.resolved = true;
      leg.outcome = Status::IOError("circuit breaker open for " +
                                    shards_[i]->endpoint.ToString());
      continue;
    }
    leg.probe = admission == Admission::kProbe;
    leg.outstanding = 1;
    LaunchAttempt(state, i, /*attempt=*/0, leg.probe, hop_target, deadline);
  }

  const bool hedging = options_.hedge_after_ms > 0;
  const Clock::time_point hedge_at =
      state->started + std::chrono::milliseconds(options_.hedge_after_ms);
  while (true) {
    bool all_resolved = true;
    for (const auto& leg : state->legs) all_resolved &= leg.resolved;
    if (all_resolved) break;

    if (deadline.Expired()) {
      // Give up on the stragglers; their attempts stay in flight on the
      // scatter pool and resolve into this (shared) state harmlessly.
      for (size_t i = 0; i < n; ++i) {
        ScatterState::Leg& leg = state->legs[i];
        if (!leg.resolved) {
          leg.resolved = true;
          leg.outcome = Status::Aborted("deadline expired awaiting " +
                                        shards_[i]->endpoint.ToString());
        }
      }
      break;
    }

    Clock::time_point now = Clock::now();
    if (hedging && now >= hedge_at) {
      for (size_t i = 0; i < n; ++i) {
        ScatterState::Leg& leg = state->legs[i];
        // Probes never hedge: the breaker contract is one request through
        // a half-open breaker.
        if (!leg.resolved && !leg.hedge_launched && !leg.probe) {
          leg.hedge_launched = true;
          leg.outstanding += 1;
          shards_[i]->hedges.fetch_add(1, std::memory_order_relaxed);
          LaunchAttempt(state, i, /*attempt=*/1, /*probe=*/false, hop_target,
                        deadline);
        }
      }
    }

    double wait_ms = 3600e3;
    if (hedging && now < hedge_at) {
      wait_ms = std::min(
          wait_ms,
          std::chrono::duration<double, std::milli>(hedge_at - now).count());
    }
    if (deadline.has_deadline()) {
      wait_ms = std::min(wait_ms, std::max(deadline.RemainingMillis(), 0.0));
    }
    state->cv.WaitFor(state->mu,
                      std::chrono::duration<double, std::milli>(wait_ms + 0.5));
  }

  std::vector<Result<HttpClient::Response>> out;
  out.reserve(n);
  for (auto& leg : state->legs) out.push_back(std::move(leg.outcome));
  return out;
}

// ---------------------------------------------------------------------------
// Fan-in policy
// ---------------------------------------------------------------------------

Deadline ShardRouter::RequestDeadline(const HttpRequest& request) const {
  int64_t budget_ms = options_.default_deadline_ms;
  if (auto it = request.query.find("deadline_ms");
      it != request.query.end()) {
    int64_t v;
    if (ParseInt64(it->second, &v) && v > 0) budget_ms = v;
  }
  if (budget_ms <= 0) return Deadline::Never();
  return Deadline::After(std::min(budget_ms, options_.max_deadline_ms));
}

ShardRouter::FanIn ShardRouter::Triage(
    const std::vector<Result<HttpClient::Response>>& legs) {
  FanIn fan;
  const HttpClient::Response* relay = nullptr;
  std::vector<std::string> failed_shards;
  bool all_timeouts = true;
  std::string detail;
  for (size_t i = 0; i < legs.size(); ++i) {
    if (legs[i].ok()) {
      if (legs[i]->status == 200) {
        fan.ok.push_back(&*legs[i]);
      } else if (relay == nullptr) {
        relay = &*legs[i];
      }
    } else {
      failed_shards.push_back(shards_[i]->endpoint.ToString());
      if (!legs[i].status().IsAborted()) all_timeouts = false;
      if (detail.empty()) detail = legs[i].status().ToString();
    }
  }
  if (relay != nullptr) {
    // A shard *answered* with a rejection (bad pattern, per-hop deadline,
    // shed). The single process would reject identically — relay the
    // first one verbatim rather than inventing a router-flavored error.
    passthrough_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    response.status = relay->status;
    response.body = relay->body;
    if (auto it = relay->headers.find("content-type");
        it != relay->headers.end()) {
      response.content_type = it->second;
    }
    fan.early = std::move(response);
    return fan;
  }
  if (failed_shards.empty()) return fan;
  if (options_.allow_partial && !fan.ok.empty()) {
    fan.degraded = true;
    return fan;
  }
  partial_503_.fetch_add(1, std::memory_order_relaxed);
  const int status = all_timeouts ? 504 : 503;
  JsonWriter json;
  json.BeginObject()
      .Key("error")
      .String(status == 504 ? "deadline exceeded in shard fan-out"
                            : "shard fan-out failed")
      .Key("failed_shards")
      .BeginArray();
  for (const auto& endpoint : failed_shards) json.String(endpoint);
  json.EndArray().Key("detail").String(detail).EndObject();
  HttpResponse response = HttpResponse::Json(json.str());
  response.status = status;
  fan.early = std::move(response);
  return fan;
}

HttpResponse ShardRouter::MergedResponse(std::string body, bool degraded,
                                         size_t answered) {
  HttpResponse response = HttpResponse::Json(std::move(body));
  if (degraded) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
    response.headers.emplace_back(
        "X-Seqdet-Degraded", std::to_string(answered) + "/" +
                                 std::to_string(shards_.size()) + " shards");
  } else {
    merged_ok_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

HttpResponse ShardRouter::ScatterAndMerge(
    const HttpRequest& request, const std::string& target,
    const std::function<Result<std::string>(
        const std::vector<const HttpClient::Response*>&)>& merge) {
  Deadline deadline = RequestDeadline(request);
  std::vector<Result<HttpClient::Response>> legs = Scatter(target, deadline);
  FanIn fan = Triage(legs);
  if (fan.early.has_value()) return *std::move(fan.early);
  Result<std::string> merged = merge(fan.ok);
  if (!merged.ok()) {
    // A 200 body the merge could not digest is a protocol bug between
    // router and workers (version skew), not a client error.
    return HttpResponse::Error(
        502, "shard merge failed: " + merged.status().ToString());
  }
  return MergedResponse(*std::move(merged), fan.degraded, fan.ok.size());
}

// ---------------------------------------------------------------------------
// Routes
// ---------------------------------------------------------------------------

void ShardRouter::RegisterRoutes(HttpServer* server) {
  server->Route("/health",
                [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Route("/info",
                [this](const HttpRequest& r) { return HandleInfo(r); });
  server->Route("/detect",
                [this](const HttpRequest& r) { return HandleDetect(r); });
  server->Route("/stats",
                [this](const HttpRequest& r) { return HandleStats(r); });
  server->Route("/continue",
                [this](const HttpRequest& r) { return HandleContinue(r); });
}

HttpResponse ShardRouter::HandleHealth(const HttpRequest&) {
  JsonWriter json;
  json.BeginObject().Key("status").String("ok").EndObject();
  return HttpResponse::Json(json.str());
}

HttpResponse ShardRouter::HandleInfo(const HttpRequest& request) {
  Deadline deadline = RequestDeadline(request);
  std::vector<Result<HttpClient::Response>> legs = Scatter("/info", deadline);
  RouterStatsSnapshot stats_now = stats();
  JsonWriter json;
  json.BeginObject().Key("router").BeginObject();
  json.Key("shards").Int(static_cast<int64_t>(shards_.size()));
  json.Key("default_deadline_ms").Int(options_.default_deadline_ms);
  json.Key("hedge_after_ms").Int(options_.hedge_after_ms);
  json.Key("allow_partial").Bool(options_.allow_partial);
  json.Key("scatters").Int(static_cast<int64_t>(stats_now.scatters));
  json.Key("merged_ok").Int(static_cast<int64_t>(stats_now.merged_ok));
  json.Key("degraded").Int(static_cast<int64_t>(stats_now.degraded));
  json.Key("partial_failures").Int(static_cast<int64_t>(stats_now.partial_503));
  json.Key("passthrough").Int(static_cast<int64_t>(stats_now.passthrough));
  json.Key("pool")
      .BeginObject()
      .Key("dials")
      .Int(static_cast<int64_t>(stats_now.pool.dials))
      .Key("reuses")
      .Int(static_cast<int64_t>(stats_now.pool.reuses))
      .Key("discards")
      .Int(static_cast<int64_t>(stats_now.pool.discards))
      .Key("idle")
      .Int(static_cast<int64_t>(stats_now.pool.idle))
      .EndObject();
  json.Key("shard_stats").BeginArray();
  for (const auto& shard : stats_now.shards) {
    json.BeginObject()
        .Key("endpoint")
        .String(shard.endpoint)
        .Key("breaker")
        .String(shard.breaker)
        .Key("requests")
        .Int(static_cast<int64_t>(shard.requests))
        .Key("failures")
        .Int(static_cast<int64_t>(shard.failures))
        .Key("hedges")
        .Int(static_cast<int64_t>(shard.hedges))
        .Key("hedge_wins")
        .Int(static_cast<int64_t>(shard.hedge_wins))
        .Key("breaker_opens")
        .Int(static_cast<int64_t>(shard.breaker_opens))
        .Key("short_circuits")
        .Int(static_cast<int64_t>(shard.short_circuits))
        .EndObject();
  }
  json.EndArray().EndObject();
  json.Key("shards").BeginArray();
  for (size_t i = 0; i < legs.size(); ++i) {
    json.BeginObject().Key("endpoint").String(shards_[i]->endpoint.ToString());
    bool embedded = false;
    if (legs[i].ok() && legs[i]->status == 200) {
      // Embed verbatim — but only after a parse proves the splice cannot
      // corrupt the enclosing document.
      if (JsonValue::Parse(legs[i]->body).ok()) {
        json.Key("ok").Bool(true).Key("info").Raw(legs[i]->body);
        embedded = true;
      }
    }
    if (!embedded) {
      std::string error =
          legs[i].ok() ? "shard responded " + std::to_string(legs[i]->status)
                       : legs[i].status().ToString();
      json.Key("ok").Bool(false).Key("error").String(error);
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  return HttpResponse::Json(json.str());
}

HttpResponse ShardRouter::HandleDetect(const HttpRequest& request) {
  auto q = request.query.find("q");
  if (q == request.query.end()) {
    return HttpResponse::Error(400, "missing q parameter");
  }
  const size_t limit = LimitParam(request, 100);
  std::string target = "/detect?q=" + HttpClient::UrlEncode(q->second) +
                       "&limit=" + std::to_string(limit);
  return ScatterAndMerge(
      request, target,
      [limit](const std::vector<const HttpClient::Response*>& responses)
          -> Result<std::string> {
        int64_t total = 0;
        std::vector<query::PatternMatch> matches;
        for (const auto* response : responses) {
          SEQDET_ASSIGN_OR_RETURN(JsonValue doc,
                                  JsonValue::Parse(response->body));
          SEQDET_ASSIGN_OR_RETURN(int64_t shard_total, doc.GetInt("total"));
          total += shard_total;
          SEQDET_ASSIGN_OR_RETURN(const auto* rows, doc.GetArray("matches"));
          for (const JsonValue& row : *rows) {
            query::PatternMatch match;
            SEQDET_ASSIGN_OR_RETURN(int64_t trace, row.GetInt("trace"));
            match.trace = static_cast<eventlog::TraceId>(trace);
            SEQDET_ASSIGN_OR_RETURN(const auto* timestamps,
                                    row.GetArray("timestamps"));
            for (const JsonValue& ts : *timestamps) {
              if (!ts.is_int()) {
                return Status::Internal("non-integer timestamp in match");
              }
              match.timestamps.push_back(
                  static_cast<eventlog::Timestamp>(ts.int_value()));
            }
            matches.push_back(std::move(match));
          }
        }
        // Traces are disjoint across shards and each shard's matches
        // arrive trace-nondecreasing, so a stable sort by trace is
        // exactly the k-way merge — and reproduces single-process order
        // (its matches are grouped by trace in the same per-trace order
        // the shard produces).
        std::stable_sort(matches.begin(), matches.end(),
                         [](const query::PatternMatch& a,
                            const query::PatternMatch& b) {
                           return a.trace < b.trace;
                         });
        return DetectResponseJson(total, matches, limit);
      });
}

HttpResponse ShardRouter::HandleStats(const HttpRequest& request) {
  auto q = request.query.find("q");
  if (q == request.query.end()) {
    return HttpResponse::Error(400, "missing q parameter");
  }
  const bool include_last = request.query.count("last") > 0;
  std::string target = "/stats?q=" + HttpClient::UrlEncode(q->second) +
                       "&raw=1" + (include_last ? "&last=1" : "");
  return ScatterAndMerge(
      request, target,
      [](const std::vector<const HttpClient::Response*>& responses)
          -> Result<std::string> {
        struct RowAgg {
          std::string first, second;
          uint64_t completions = 0;
          int64_t sum_duration = 0;
          std::optional<eventlog::Timestamp> last;
        };
        std::vector<RowAgg> rows;
        bool first_shard = true;
        for (const auto* response : responses) {
          SEQDET_ASSIGN_OR_RETURN(JsonValue doc,
                                  JsonValue::Parse(response->body));
          SEQDET_ASSIGN_OR_RETURN(const auto* shard_rows,
                                  doc.GetArray("rows"));
          if (first_shard) {
            rows.resize(shard_rows->size());
            first_shard = false;
          } else if (shard_rows->size() != rows.size()) {
            return Status::Internal("shard stats row count mismatch");
          }
          for (size_t i = 0; i < shard_rows->size(); ++i) {
            const JsonValue& row = (*shard_rows)[i];
            RowAgg& agg = rows[i];
            if (agg.first.empty()) {
              SEQDET_ASSIGN_OR_RETURN(agg.first, row.GetString("first"));
              SEQDET_ASSIGN_OR_RETURN(agg.second, row.GetString("second"));
            }
            SEQDET_ASSIGN_OR_RETURN(int64_t completions,
                                    row.GetInt("completions"));
            agg.completions += static_cast<uint64_t>(completions);
            SEQDET_ASSIGN_OR_RETURN(int64_t sum_duration,
                                    row.GetInt("sum_duration"));
            agg.sum_duration += sum_duration;
            if (const JsonValue* last = row.Find("last");
                last != nullptr && last->is_int()) {
              auto ts = static_cast<eventlog::Timestamp>(last->int_value());
              if (!agg.last.has_value() || ts > *agg.last) agg.last = ts;
            }
          }
        }
        // Derived values recomputed from merged integers, in row order,
        // exactly as QueryProcessor::Statistics computes them over the
        // unsharded index.
        uint64_t upper_bound = std::numeric_limits<uint64_t>::max();
        double estimated = 0;
        std::vector<StatsRowView> views;
        views.reserve(rows.size());
        for (const RowAgg& agg : rows) {
          upper_bound = std::min(upper_bound, agg.completions);
          double avg = agg.completions == 0
                           ? 0.0
                           : static_cast<double>(agg.sum_duration) /
                                 static_cast<double>(agg.completions);
          estimated += avg;
          StatsRowView view;
          view.first = agg.first;
          view.second = agg.second;
          view.completions = agg.completions;
          view.avg_duration = avg;
          view.last_completion = agg.last;
          views.push_back(std::move(view));
        }
        return StatsResponseJson(views, upper_bound, estimated);
      });
}

HttpResponse ShardRouter::HandleContinue(const HttpRequest& request) {
  auto q = request.query.find("q");
  if (q == request.query.end()) {
    return HttpResponse::Error(400, "missing q parameter");
  }
  std::string mode = "accurate";
  if (auto it = request.query.find("mode"); it != request.query.end()) {
    mode = it->second;
  }
  const size_t limit = LimitParam(request, 20);
  const std::string encoded_q = HttpClient::UrlEncode(q->second);

  if (mode == "accurate") {
    return ScatterAndMerge(
        request, "/continue?q=" + encoded_q + "&mode=accurate&raw=1",
        [limit](const std::vector<const HttpClient::Response*>& responses)
            -> Result<std::string> {
          SEQDET_ASSIGN_OR_RETURN(auto agg, MergeAccurateRaw(responses));
          auto proposals = ProposalsFromAggregates(
              agg, std::numeric_limits<uint64_t>::max());
          query::QueryProcessor::RankProposals(&proposals);
          return ContinueResponseJson(ViewsFor(proposals, agg), limit);
        });
  }
  if (mode == "fast") {
    return ScatterAndMerge(
        request, "/continue?q=" + encoded_q + "&mode=fast&raw=1",
        [limit](const std::vector<const HttpClient::Response*>& responses)
            -> Result<std::string> {
          SEQDET_ASSIGN_OR_RETURN(auto merged, MergeFastRaw(responses));
          auto proposals = ProposalsFromAggregates(merged.agg, merged.bound);
          query::QueryProcessor::RankProposals(&proposals);
          return ContinueResponseJson(ViewsFor(proposals, merged.agg), limit);
        });
  }
  if (mode != "hybrid") {
    return HttpResponse::Error(400, "unknown mode: " + mode);
  }

  // Hybrid is assembled router-side from the two raw primitives, the same
  // two steps as QueryProcessor::ContinueHybrid: a merged Fast pass ranks
  // every candidate, then an Accurate pass verifies the top-k — and only
  // the top-k: the verify leg names them in `candidates=`.
  size_t topk = 5;
  if (auto it = request.query.find("topk"); it != request.query.end()) {
    int64_t v;
    if (ParseInt64(it->second, &v) && v >= 0) topk = static_cast<size_t>(v);
  }
  Deadline deadline = RequestDeadline(request);
  std::vector<Result<HttpClient::Response>> fast_legs =
      Scatter("/continue?q=" + encoded_q + "&mode=fast&raw=1", deadline);
  FanIn fast_fan = Triage(fast_legs);
  if (fast_fan.early.has_value()) return *std::move(fast_fan.early);
  Result<FastMerge> fast = MergeFastRaw(fast_fan.ok);
  if (!fast.ok()) {
    return HttpResponse::Error(
        502, "shard merge failed: " + fast.status().ToString());
  }
  auto fast_proposals = ProposalsFromAggregates(fast->agg, fast->bound);
  query::QueryProcessor::RankProposals(&fast_proposals);
  if (topk == 0) {
    return MergedResponse(
        ContinueResponseJson(ViewsFor(fast_proposals, fast->agg), limit),
        fast_fan.degraded, fast_fan.ok.size());
  }
  const size_t verify = std::min(topk, fast_proposals.size());
  std::unordered_set<int64_t> top_ids;
  std::string candidates;
  for (size_t i = 0; i < verify; ++i) {
    top_ids.insert(static_cast<int64_t>(fast_proposals[i].activity));
    if (i > 0) candidates += ',';
    candidates += std::to_string(fast_proposals[i].activity);
  }

  std::vector<Result<HttpClient::Response>> accurate_legs =
      Scatter("/continue?q=" + encoded_q + "&mode=accurate&raw=1&candidates=" +
                  candidates,
              deadline);
  FanIn accurate_fan = Triage(accurate_legs);
  if (accurate_fan.early.has_value()) return *std::move(accurate_fan.early);
  Result<std::map<int64_t, CandidateAgg>> accurate =
      MergeAccurateRaw(accurate_fan.ok);
  if (!accurate.ok()) {
    return HttpResponse::Error(
        502, "shard merge failed: " + accurate.status().ToString());
  }
  // Shards that predate the filter answer for every follower; keeping
  // only the top-k here makes their bytes come out the same.
  std::map<int64_t, CandidateAgg> verified;
  for (const auto& [id, agg] : *accurate) {
    if (top_ids.count(id) > 0) verified.emplace(id, agg);
  }
  auto proposals = ProposalsFromAggregates(
      verified, std::numeric_limits<uint64_t>::max());
  query::QueryProcessor::RankProposals(&proposals);
  return MergedResponse(
      ContinueResponseJson(ViewsFor(proposals, verified), limit),
      fast_fan.degraded || accurate_fan.degraded,
      std::min(fast_fan.ok.size(), accurate_fan.ok.size()));
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

RouterStatsSnapshot ShardRouter::stats() const {
  RouterStatsSnapshot snapshot;
  snapshot.scatters = scatters_.load(std::memory_order_relaxed);
  snapshot.merged_ok = merged_ok_.load(std::memory_order_relaxed);
  snapshot.degraded = degraded_.load(std::memory_order_relaxed);
  snapshot.partial_503 = partial_503_.load(std::memory_order_relaxed);
  snapshot.passthrough = passthrough_.load(std::memory_order_relaxed);
  snapshot.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStatsSnapshot s;
    s.endpoint = shard->endpoint.ToString();
    {
      MutexLock lock(shard->mu);
      s.breaker = !shard->open ? "closed"
                  : shard->probe_inflight || Clock::now() >= shard->open_until
                      ? "half_open"
                      : "open";
    }
    s.requests = shard->requests.load(std::memory_order_relaxed);
    s.failures = shard->failures.load(std::memory_order_relaxed);
    s.hedges = shard->hedges.load(std::memory_order_relaxed);
    s.hedge_wins = shard->hedge_wins.load(std::memory_order_relaxed);
    s.breaker_opens = shard->breaker_opens.load(std::memory_order_relaxed);
    s.short_circuits = shard->short_circuits.load(std::memory_order_relaxed);
    snapshot.shards.push_back(std::move(s));
  }
  snapshot.pool = pool_->stats();
  return snapshot;
}

}  // namespace seqdet::server
