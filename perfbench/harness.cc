#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "baselines/sase/sase_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datagen/generators.h"
#include "index/pair_extraction.h"
#include "index/trace_shard.h"
#include "log/csv_io.h"
#include "query/pattern_parser.h"
#include "query/query_processor.h"
#include "server/http_client.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();
}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

void Tracer::Record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> covered;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        covered.emplace_back(std::max(c->start, s.start),
                             std::min(c->end, s.end));
      }
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0, reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        busy += hi - from;
        reach = hi;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, s.end - s.start - busy);
  }
  return self;
}

bool Tracer::Dump(const std::string& path) const {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << StringPrintf(
        "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%llu,"
        "\"parent\":%llu,\"request\":%llu}\n",
        s.name.c_str(), s.start, s.end,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request));
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      id_(tracer_ != nullptr ? tracer_->NewId() : 0),
      parent_(parent),
      request_(request),
      start_(tracer_ != nullptr ? NowSeconds() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->Record({name_, start_, NowSeconds(), id_, parent_, request_});
}

// ---------------------------------------------------------------------------
// Samples and results
// ---------------------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
  times.insert(times.end(), other.times.begin(), other.times.end());
}

namespace {

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Values grouped by the 1-second window of their time.
std::map<int64_t, Samples> ByWindow(const Samples& s) {
  std::map<int64_t, Samples> windows;
  for (size_t i = 0; i < s.values.size(); ++i) {
    windows[static_cast<int64_t>(std::floor(s.times[i]))].Add(s.values[i]);
  }
  return windows;
}

}  // namespace

double Samples::Median() const {
  std::vector<double> medians;
  for (const auto& [w, window] : ByWindow(*this)) {
    if (window.size() >= 20) medians.push_back(window.Percentile(50));
  }
  return medians.size() < 3 ? Percentile(50) : MedianOf(medians);
}

double Samples::Tail(double p) const {
  constexpr size_t kChunk = 1000;
  const size_t chunks = values.size() / kChunk;
  if (chunks < 3) return Percentile(p);
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](size_t a, size_t b) { return times[a] < times[b]; });
  std::vector<double> estimates;
  for (size_t c = 0; c < chunks; ++c) {
    Samples chunk;
    const size_t end = c + 1 == chunks ? order.size() : (c + 1) * kChunk;
    for (size_t i = c * kChunk; i < end; ++i) chunk.Add(values[order[i]]);
    estimates.push_back(chunk.Percentile(p));
  }
  return MedianOf(estimates);
}

double Samples::Rate() const {
  if (times.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  const auto windows = ByWindow(*this);
  std::vector<double> rates;
  for (const auto& [w, window] : windows) {
    // Only whole seconds inside the measured span count.
    if (static_cast<double>(w) >= *lo && static_cast<double>(w + 1) <= *hi) {
      rates.push_back(static_cast<double>(window.size()));
    }
  }
  if (rates.size() < 4) {
    return static_cast<double>(values.size()) / std::max(1e-9, *hi - *lo);
  }
  // Interquartile mean: as robust as the median, but not a whole count.
  std::sort(rates.begin(), rates.end());
  const size_t q = rates.size() / 4;
  return std::accumulate(rates.begin() + static_cast<ptrdiff_t>(q),
                         rates.end() - static_cast<ptrdiff_t>(q), 0.0) /
         static_cast<double>(rates.size() - 2 * q);
}

double Samples::Percentile(double p) const {
  if (values.empty()) return 0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  check_failures.push_back(what);
}

void RunResult::Note(const std::string& line) { notes.push_back(line); }

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const eventlog::EventLog& TracePool() {
  static const eventlog::EventLog pool =
      datagen::GenerateBpiLikeLog(datagen::Bpi2017Profile());
  return pool;
}

eventlog::EventLog SampleLog(uint64_t seed, size_t num_traces) {
  const eventlog::EventLog& pool = TracePool();
  std::vector<size_t> order(pool.num_traces());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  rng.Shuffle(&order);
  order.resize(std::min(std::max<size_t>(num_traces, 1), order.size()));
  std::sort(order.begin(), order.end());
  eventlog::EventLog log;
  for (const auto& name : pool.dictionary().names()) {
    log.dictionary().Intern(name);
  }
  for (size_t i : order) log.AddTrace(pool.traces()[i]);
  return log;
}

std::vector<TimedEvent> TimeOrdered(const eventlog::EventLog& log) {
  std::vector<TimedEvent> events;
  events.reserve(log.num_events());
  for (const auto& trace : log.traces()) {
    for (const auto& e : trace.events) events.push_back({trace.id, e});
  }
  std::sort(events.begin(), events.end(),
            [](const TimedEvent& a, const TimedEvent& b) {
              return std::tie(a.event.ts, a.trace, a.event.activity) <
                     std::tie(b.event.ts, b.trace, b.event.activity);
            });
  return events;
}

eventlog::EventLog Slice(const std::vector<TimedEvent>& events, size_t begin,
                         size_t end,
                         const eventlog::ActivityDictionary& dictionary) {
  eventlog::EventLog log;
  for (const auto& name : dictionary.names()) log.dictionary().Intern(name);
  for (size_t i = begin; i < end; ++i) {
    log.Append(events[i].trace, events[i].event);
  }
  return log;
}

std::vector<std::string> WriteBatchFiles(
    const std::vector<TimedEvent>& events, size_t begin, size_t end,
    size_t count, const eventlog::ActivityDictionary& dictionary,
    const std::string& dir, RunResult* result) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  count = std::max<size_t>(1, std::min(count, end - begin));
  std::vector<std::string> paths;
  paths.reserve(count);
  for (size_t b = 0; b < count; ++b) {
    const size_t lo = begin + (end - begin) * b / count;
    const size_t hi = begin + (end - begin) * (b + 1) / count;
    std::string path = StringPrintf("%s/batch_%05zu.csv", dir.c_str(), b);
    Status s =
        eventlog::WriteCsvLogFile(Slice(events, lo, hi, dictionary), path);
    if (!s.ok()) result->Fail("write " + path + ": " + s.ToString());
    paths.push_back(std::move(path));
  }
  return paths;
}

const char* RouteName(Route route) {
  switch (route) {
    case Route::kDetect:
      return "detect";
    case Route::kXDetect:
      return "xdetect";
    case Route::kStats:
      return "stats";
    case Route::kContinue:
      return "continue";
  }
  return "?";
}

namespace {

/// Draws activities by their event frequency in a log.
class ActivitySampler {
 public:
  explicit ActivitySampler(const eventlog::EventLog& log)
      : dict_(log.dictionary()), cumulative_(dict_.size(), 0) {
    for (const auto& trace : log.traces()) {
      for (const auto& e : trace.events) ++cumulative_[e.activity];
    }
    std::partial_sum(cumulative_.begin(), cumulative_.end(),
                     cumulative_.begin());
  }

  const std::string& Draw(Rng* rng) const {
    const uint64_t x = rng->NextBounded(std::max<uint64_t>(1, cumulative_.back()));
    const size_t a = static_cast<size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), x) -
        cumulative_.begin());
    return dict_.Name(static_cast<eventlog::ActivityId>(
        std::min(a, cumulative_.size() - 1)));
  }

  /// A draw different from `other` (falls back to `other` on a
  /// one-activity log).
  const std::string& DrawOther(Rng* rng, const std::string& other) const {
    for (int tries = 0; tries < 16; ++tries) {
      const std::string& a = Draw(rng);
      if (a != other) return a;
    }
    return other;
  }

 private:
  const eventlog::ActivityDictionary& dict_;
  std::vector<uint64_t> cumulative_;
};

std::string Chain(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += " -> ";
    out += names[i];
  }
  return out;
}

Target MakeTarget(Route route, std::string text) {
  const std::string q = server::HttpClient::UrlEncode(text);
  std::string path;
  switch (route) {
    case Route::kDetect:
    case Route::kXDetect:
      path = "/detect?q=" + q + "&limit=" + std::to_string(kDetectLimit);
      break;
    case Route::kStats:
      path = "/stats?q=" + q;
      break;
    case Route::kContinue:
      path = "/continue?q=" + q +
             "&mode=hybrid&topk=" + std::to_string(kContinueTopK) +
             "&limit=10";
      break;
  }
  return Target{route, std::move(text), std::move(path)};
}

std::string ExtendedText(const ActivitySampler& s, size_t form, Rng* rng) {
  const std::string a = s.Draw(rng);
  const std::string b = s.Draw(rng);
  const std::string c = s.Draw(rng);
  switch (form % 5) {
    case 0:
      return a + " (" + b + "|" + s.DrawOther(rng, b) + ") " + c;
    case 1:
      return a + " " + b + "+ " + c;
    case 2:
      return a + " !" + b + " " + c;
    case 3:
      return a + " " + b + " " + c + " within " +
             std::to_string(rng->NextInRange(3600, 36000));
    default:
      return a + " " + b + " gap <= " +
             std::to_string(rng->NextInRange(1800, 10800));
  }
}

}  // namespace

constexpr size_t kStatsWeight = 4;

std::vector<Target> AnalystMix(size_t per_route) {
  ActivitySampler sampler(TracePool());
  Rng rng(0xA11A1257ull);
  auto chain = [&](size_t length) {
    std::vector<std::string> names;
    for (size_t k = 0; k < length; ++k) names.push_back(sampler.Draw(&rng));
    return Chain(names);
  };
  // Pattern shapes (lengths, operators) cycle in a fixed proportion and
  // only the activities are drawn: shapes differ in cost by large factors,
  // so drawing them too would move the percentiles between runs.
  std::vector<Target> mix;
  for (size_t i = 0; i < per_route; ++i) {
    mix.push_back(MakeTarget(Route::kDetect, chain(2 + i % 3)));
    mix.push_back(
        MakeTarget(Route::kXDetect, ExtendedText(sampler, i, &rng)));
    // /stats is two orders cheaper than the rest: more of them cost little
    // time and give its p99 enough samples to stay steady.
    for (size_t k = 0; k < kStatsWeight; ++k) {
      mix.push_back(MakeTarget(Route::kStats, chain(2 + (i + k) % 3)));
    }
    mix.push_back(MakeTarget(Route::kContinue, chain(i % 4 == 0 ? 1 : 2)));
  }
  rng.Shuffle(&mix);
  return mix;
}

std::vector<Target> DashboardMix() {
  const eventlog::EventLog& log = TracePool();
  // Hottest directly-follows pairs of the log.
  std::map<std::pair<eventlog::ActivityId, eventlog::ActivityId>, uint64_t>
      follows;
  for (const auto& trace : log.traces()) {
    for (size_t i = 1; i < trace.events.size(); ++i) {
      ++follows[{trace.events[i - 1].activity, trace.events[i].activity}];
    }
  }
  std::vector<std::pair<uint64_t, std::pair<eventlog::ActivityId,
                                            eventlog::ActivityId>>>
      ranked;
  for (const auto& [pair, n] : follows) ranked.push_back({n, pair});
  std::sort(ranked.rbegin(), ranked.rend());
  const auto& dict = log.dictionary();
  auto name = [&](eventlog::ActivityId a) { return dict.Name(a); };
  std::vector<Target> mix;
  const size_t hot = std::min<size_t>(4, ranked.size());
  for (size_t i = 0; i < hot; ++i) {
    const auto [a, b] = ranked[i].second;
    mix.push_back(MakeTarget(Route::kDetect, Chain({name(a), name(b)})));
    // The pair extended by its own hottest follower.
    for (const auto& [n, next] : ranked) {
      if (next.first == b) {
        if (i < 2) {
          mix.push_back(MakeTarget(
              Route::kDetect, Chain({name(a), name(b), name(next.second)})));
        } else {
          mix.push_back(MakeTarget(Route::kXDetect,
                                   name(a) + " " + name(b) + "+ " +
                                       name(next.second)));
        }
        break;
      }
    }
    if (i < 2) {
      mix.push_back(MakeTarget(Route::kStats, Chain({name(a), name(b)})));
      mix.push_back(MakeTarget(Route::kContinue, Chain({name(a), name(b)})));
    }
  }
  return mix;
}

void NoteInputs(const eventlog::EventLog& log, const std::vector<Target>& mix,
                RunResult* result) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto mix_in = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ull;
    }
  };
  for (const auto& trace : log.traces()) {
    mix_in(trace.id);
    for (const auto& e : trace.events) {
      mix_in(e.activity);
      mix_in(static_cast<uint64_t>(e.ts));
    }
  }
  const uint64_t log_digest = h;
  for (const Target& t : mix) {
    for (char c : t.path) mix_in(static_cast<unsigned char>(c));
  }
  result->Note(StringPrintf("inputs: log=%016llx targets=%016llx",
                            static_cast<unsigned long long>(log_digest),
                            static_cast<unsigned long long>(h)));
}

// ---------------------------------------------------------------------------
// Program under test
// ---------------------------------------------------------------------------

index::IndexOptions IndexOptionsFor(bool auto_fold) {
  index::IndexOptions options;
  options.policy = index::Policy::kSkipTillNextMatch;
  options.num_threads = kIndexThreads;
  options.maintenance.auto_fold = auto_fold;
  return options;
}

server::HttpServerOptions HttpOptions() {
  server::HttpServerOptions options;
  options.num_threads = kHttpThreads;
  options.max_keepalive_requests = kKeepAliveRequests;
  return options;
}

server::ServingOptions ServingOptionsFor() {
  server::ServingOptions options;
  options.query_threads = kQueryThreads;
  return options;
}

Node::~Node() { Close(); }

Status Node::Open(bool auto_fold, Tracer* tracer) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  ScopedSpan span(tracer, "storage.open");
  auto opened = storage::Database::Open(dir, storage::DbOptions{});
  if (!opened.ok()) return opened.status();
  db = std::move(opened).value();
  auto idx = index::SequenceIndex::Open(db.get(), IndexOptionsFor(auto_fold));
  if (!idx.ok()) return idx.status();
  index = std::move(idx).value();
  return Status::OK();
}

void Node::Close() {
  if (http != nullptr) http->Stop();
  http.reset();
  service.reset();
  index.reset();
  db.reset();
}

Status Node::Serve() {
  service = std::make_unique<server::QueryService>(index.get(),
                                                   ServingOptionsFor());
  http = std::make_unique<server::HttpServer>(HttpOptions());
  service->RegisterRoutes(http.get());
  return http->Start(0);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".wal") {
      total += entry.file_size(ec);
    }
  }
  return total;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void BeginTimedPhase() {
  ::sync();
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

WriteStats StreamBatches(const std::vector<std::string>& files,
                         const std::vector<index::SequenceIndex*>& indexes,
                         double start, double period_s, Tracer* tracer) {
  WriteStats w;
  w.first_start = NowSeconds();
  for (size_t i = 0; i < files.size(); ++i) {
    double due = NowSeconds();
    if (period_s > 0) {
      due = start + static_cast<double>(i) * period_s;
      const double wait = due - NowSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      w.max_lag_ms = std::max(w.max_lag_ms, (NowSeconds() - due) * 1e3);
    }
    const uint64_t batch_id = tracer != nullptr ? tracer->NewId() : 0;
    const double batch_start = NowSeconds();
    ++w.batches;
    Result<eventlog::EventLog> log = Status::Internal("unread");
    {
      ScopedSpan span(tracer, "log.parse", batch_id, i + 1);
      log = eventlog::ReadCsvLogFile(files[i]);
    }
    if (!log.ok()) {
      ++w.failed;
      continue;
    }
    w.events += log->num_events();
    // One part per index: the whole batch, or its ShardOfTrace split.
    std::vector<eventlog::EventLog> parts;
    if (indexes.size() > 1) {
      parts.resize(indexes.size());
      for (auto& part : parts) {
        for (const auto& name : log->dictionary().names()) {
          part.dictionary().Intern(name);
        }
      }
      for (const auto& trace : log->traces()) {
        parts[index::ShardOfTrace(trace.id, indexes.size())].AddTrace(trace);
      }
    }
    double update_s = 0;
    for (size_t k = 0; k < indexes.size(); ++k) {
      const eventlog::EventLog& part = parts.empty() ? *log : parts[k];
      if (part.num_traces() == 0) continue;
      ScopedSpan span(tracer, "index.update", batch_id, i + 1);
      const double t0 = NowSeconds();
      auto stats = indexes[k]->Update(part);
      update_s += NowSeconds() - t0;
      if (!stats.ok()) {
        ++w.failed;
        continue;
      }
      w.pairs_indexed += stats->pairs_indexed;
    }
    const double end = NowSeconds();
    w.update_ms.Add((period_s > 0 ? end - due : update_s) * 1e3, end);
    if (tracer != nullptr) {
      tracer->Record({"bench.batch", batch_start, end, batch_id, 0, i + 1});
    }
  }
  w.last_end = NowSeconds();
  return w;
}

bool Settle(index::SequenceIndex* index, Tracer* tracer) {
  ScopedSpan span(tracer, "index.settle");
  if (index->maintenance() != nullptr &&
      !index->maintenance()->WaitIdle(/*timeout_ms=*/120000)) {
    return false;
  }
  const index::PendingFoldLoad pending = index->pending_fold_load();
  if (pending.bytes == 0 && pending.ops == 0) return true;
  return index->FoldPostingsIncremental().ok() &&
         index->CompactStatistics().ok();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

LoadStats RunClients(uint16_t port, const std::vector<Target>& mix,
                     const std::vector<std::string>& expected, double seconds,
                     const std::atomic<bool>* stop, Tracer* tracer) {
  LoadStats total;
  std::mutex mu;
  std::atomic<uint64_t> next_request{1};
  const double start = NowSeconds();
  const double deadline = seconds > 0 ? start + seconds : 1e300;
  auto client_loop = [&](size_t c) {
    LoadStats mine;
    server::HttpClient client(port);
    for (size_t k = c; !mix.empty(); k += kClients) {
      if (NowSeconds() >= deadline ||
          (stop != nullptr && stop->load(std::memory_order_relaxed))) {
        break;
      }
      const size_t i = k % mix.size();
      ScopedSpan span(tracer, "client.request", 0,
                      next_request.fetch_add(1, std::memory_order_relaxed));
      const double t0 = NowSeconds();
      auto response = client.Get(mix[i].path);
      const double t1 = NowSeconds();
      mine.latency_ms[static_cast<size_t>(mix[i].route)].Add((t1 - t0) * 1e3,
                                                             t1);
      if (!response.ok() || response->status != 200) {
        ++mine.failed;
        continue;
      }
      ++mine.completed;
      mine.done.Add(1, t1);
      mine.response_bytes += response->body.size();
      if (!expected.empty() && response->body != expected[i]) ++mine.wrong;
    }
    std::lock_guard<std::mutex> lock(mu);
    for (size_t r = 0; r < kNumRoutes; ++r) {
      total.latency_ms[r].Append(mine.latency_ms[r]);
    }
    total.done.Append(mine.done);
    total.completed += mine.completed;
    total.failed += mine.failed;
    total.wrong += mine.wrong;
    total.response_bytes += mine.response_bytes;
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);
  for (auto& t : clients) t.join();
  total.seconds = NowSeconds() - start;
  return total;
}

std::vector<std::string> FetchAll(uint16_t port,
                                  const std::vector<Target>& mix,
                                  RunResult* result) {
  std::vector<std::string> bodies(mix.size());
  std::vector<std::string> errors(mix.size());
  auto fetch = [&](size_t c) {
    server::HttpClient client(port);
    for (size_t i = c; i < mix.size(); i += kClients) {
      auto response = client.Get(mix[i].path);
      if (!response.ok() || response->status != 200) {
        errors[i] = "GET " + mix[i].path + " -> " +
                    (response.ok() ? std::to_string(response->status) + " " +
                                         response->body
                                   : response.status().ToString());
        continue;
      }
      bodies[i] = std::move(response->body);
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(fetch, c);
  for (auto& t : clients) t.join();
  result->attempted += mix.size();
  for (const std::string& e : errors) {
    if (!e.empty()) result->Fail(e);
  }
  return bodies;
}

namespace {

std::vector<query::PatternMatch> Normalized(
    std::vector<query::PatternMatch> matches) {
  std::sort(matches.begin(), matches.end(),
            [](const query::PatternMatch& a, const query::PatternMatch& b) {
              return std::tie(a.trace, a.timestamps) <
                     std::tie(b.trace, b.timestamps);
            });
  return matches;
}

}  // namespace

void OracleCheck(const index::SequenceIndex& index,
                 const eventlog::EventLog& raw_log,
                 const std::vector<Target>& mix,
                 const std::vector<std::string>& bodies, size_t sample,
                 uint64_t seed, bool corrupt_first, RunResult* result) {
  std::vector<size_t> plain, extended;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].route == Route::kDetect) plain.push_back(i);
    if (mix[i].route == Route::kXDetect) extended.push_back(i);
  }
  Rng rng(seed ^ 0x04AC1Eull);
  rng.Shuffle(&plain);
  rng.Shuffle(&extended);
  plain.resize(std::min(plain.size(), (sample + 1) / 2));
  extended.resize(std::min(extended.size(), sample / 2));
  std::vector<size_t> picked = plain;
  picked.insert(picked.end(), extended.begin(), extended.end());

  query::QueryProcessor qp(&index);
  baseline::SaseEngine engine(&raw_log);
  baseline::SasePairCache cache;
  bool corrupt = corrupt_first;
  for (size_t i : picked) {
    const Target& t = mix[i];
    ++result->attempted;
    auto parsed = query::ParseExtendedPatternQuery(t.text, index.dictionary());
    auto raw = query::ParseExtendedPatternQuery(t.text, raw_log.dictionary());
    if (!parsed.ok() || !raw.ok()) {
      result->Fail("oracle: cannot parse \"" + t.text + "\"");
      continue;
    }
    auto got = qp.DetectExtended(*parsed);
    if (!got.ok()) {
      result->Fail("oracle: in-process detect failed: " +
                   got.status().ToString());
      continue;
    }
    std::string want = server::DetectResponseJson(*got, kDetectLimit);
    if (corrupt) {
      want[want.size() / 2] ^= 0x01;
      corrupt = false;
    }
    if (i >= bodies.size() || bodies[i] != want) {
      result->Fail("served /detect body differs from the in-process answer "
                   "for \"" + t.text + "\"");
      continue;
    }
    // DetectExtended composes the NFA's pair match sets, the normative
    // semantics of the pair join for plain patterns too. (Detect's
    // whole-pattern STNM run disagrees with it on some traces, e.g. when a
    // pattern repeats an activity, as differential_test also notes by
    // building its plain oracle from pair matches.)
    auto oracle = engine.DetectExtended(
        *raw, index::Policy::kSkipTillNextMatch, &cache);
    if (!oracle.ok()) {
      result->Fail("oracle: SASE failed: " + oracle.status().ToString());
      continue;
    }
    std::vector<query::PatternMatch> expected;
    expected.reserve(oracle->size());
    for (const auto& m : *oracle) {
      query::PatternMatch pm;
      pm.trace = m.trace;
      for (auto ts : m.timestamps) pm.timestamps.push_back(ts);
      expected.push_back(std::move(pm));
    }
    if (Normalized(*got) != Normalized(std::move(expected))) {
      result->Fail("detect answer differs from the SASE oracle for \"" +
                   t.text + "\"");
    }
  }
  result->Note(StringPrintf("oracle: %zu plain + %zu extended /detect "
                            "answers checked against SASE",
                            plain.size(), extended.size()));
}

void ReportLoad(const LoadStats& load, RunResult* result) {
  auto& m = result->metrics;
  m["query_qps"] = load.done.Rate();
  for (size_t r = 0; r < kNumRoutes; ++r) {
    const std::string name = RouteName(static_cast<Route>(r));
    m[name + "_p50_ms"] = load.latency_ms[r].Median();
    m[name + "_p99_ms"] = load.latency_ms[r].Tail(99);
  }
  // A ledger line, not an end-to-end metric: the tail of a ~50 us request
  // beside 30 ms ones follows the host's scheduling noise, which moved it
  // by more than any bound over ten seeds of `query`.
  m["server.stats_p99_ms"] = m["stats_p99_ms"];
  m.erase("stats_p99_ms");
  result->attempted += load.completed + load.failed;
  result->failed += load.failed + load.wrong;
  if (load.failed > 0) {
    result->check_failures.push_back(
        std::to_string(load.failed) + " requests failed (non-200 or transport)");
  }
  if (load.wrong > 0) {
    result->check_failures.push_back(std::to_string(load.wrong) +
                                     " responses differ from the expected body");
  }
  std::string counts;
  for (size_t r = 0; r < kNumRoutes; ++r) {
    counts += StringPrintf(" %s=%zu", RouteName(static_cast<Route>(r)),
                           load.latency_ms[r].size());
  }
  result->Note(StringPrintf("load: %llu queries in %.2f s, samples per route:%s",
                            static_cast<unsigned long long>(load.completed),
                            load.seconds, counts.c_str()));
}

ReadCounters SnapshotCounters(const std::vector<const Node*>& nodes) {
  ReadCounters c;
  for (const Node* n : nodes) {
    const auto cache = n->index->cache_stats();
    c.cache.hits += cache.hits;
    c.cache.misses += cache.misses;
    c.cache.evictions += cache.evictions;
    c.cache.invalidations += cache.invalidations;
    const auto read = n->index->read_stats();
    c.read.blocks_decoded += read.blocks_decoded;
    c.read.blocks_skipped += read.blocks_skipped;
    c.read.bytes_decoded += read.bytes_decoded;
    std::vector<ThreadPoolStats> pools = {n->http->pool_stats()};
    if (n->service->query_pool() != nullptr) {
      pools.push_back(n->service->query_pool()->stats());
    }
    for (const auto& p : pools) {
      c.pool_tasks += p.tasks_executed;
      c.peak_queue = std::max<uint64_t>(c.peak_queue, p.peak_queue_depth);
    }
    const auto http = n->http->stats();
    c.connections += http.connections_accepted;
    c.timeouts += http.timeouts;
    c.shed += n->service->serving_stats().shed_total;
  }
  return c;
}

namespace {

double HandlerP50(const std::vector<const Node*>& nodes,
                  const std::string& route) {
  double worst = 0;
  for (const Node* n : nodes) {
    for (const auto& r : n->service->serving_stats().routes) {
      if (r.route == route) worst = std::max(worst, r.p50_ms);
    }
  }
  return worst;
}

}  // namespace

void ReportReadLayers(const ReadCounters& before, const ReadCounters& after,
                      uint64_t queries, const std::vector<const Node*>& nodes,
                      const LoadStats& load, RunResult* result) {
  auto& m = result->metrics;
  const double q = static_cast<double>(std::max<uint64_t>(1, queries));
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  m["index.cache_hits"] = hits;
  m["index.cache_misses"] = misses;
  m["index.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
  m["index.cache_evictions"] =
      static_cast<double>(after.cache.evictions - before.cache.evictions);
  m["index.cache_invalidations"] = static_cast<double>(
      after.cache.invalidations - before.cache.invalidations);
  m["index.blocks_decoded_per_query"] =
      static_cast<double>(after.read.blocks_decoded -
                          before.read.blocks_decoded) / q;
  m["index.blocks_skipped_per_query"] =
      static_cast<double>(after.read.blocks_skipped -
                          before.read.blocks_skipped) / q;
  m["index.bytes_decoded_per_query"] =
      static_cast<double>(after.read.bytes_decoded -
                          before.read.bytes_decoded) / q;
  m["server.detect_handler_p50_ms"] = HandlerP50(nodes, "/detect");
  m["server.stats_handler_p50_ms"] = HandlerP50(nodes, "/stats");
  m["server.continue_handler_p50_ms"] = HandlerP50(nodes, "/continue");
  Samples detect_all = load.latency_ms[static_cast<size_t>(Route::kDetect)];
  detect_all.Append(load.latency_ms[static_cast<size_t>(Route::kXDetect)]);
  m["server.hop_ms"] =
      detect_all.Percentile(50) - m["server.detect_handler_p50_ms"];
  m["server.response_bytes"] =
      static_cast<double>(load.response_bytes) /
      static_cast<double>(std::max<uint64_t>(1, load.completed));
  m["server.connections_accepted"] =
      static_cast<double>(after.connections - before.connections);
  m["server.shed"] = static_cast<double>(after.shed - before.shed);
  m["server.timeouts"] = static_cast<double>(after.timeouts - before.timeouts);
  m["common.pool.tasks"] =
      static_cast<double>(after.pool_tasks - before.pool_tasks);
  m["common.pool.peak_queue_depth"] = static_cast<double>(after.peak_queue);
}

void ReplayInProcess(const index::SequenceIndex& index,
                     const std::vector<Target>& mix, Tracer* tracer,
                     RunResult* result) {
  ThreadPool pool(kQueryThreads);
  query::QueryProcessor qp(&index, &pool);
  Samples parse_us, serialize_us, exec_ms[kNumRoutes];
  uint64_t matches = 0, detects = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    const Target& t = mix[i];
    ScopedSpan replay(tracer, "bench.replay", 0, i + 1);
    const size_t r = static_cast<size_t>(t.route);
    bool ok = false;
    double t0 = NowSeconds();
    if (t.route == Route::kDetect || t.route == Route::kXDetect) {
      Result<query::ExtendedPattern> parsed = Status::Internal("unparsed");
      {
        ScopedSpan span(tracer, "query.parse", replay.id(), i + 1);
        parsed = query::ParseExtendedPatternQuery(t.text, index.dictionary());
      }
      parse_us.Add((NowSeconds() - t0) * 1e6);
      if (!parsed.ok()) continue;
      Result<std::vector<query::PatternMatch>> got =
          Status::Internal("not run");
      t0 = NowSeconds();
      {
        ScopedSpan span(tracer, "query.detect", replay.id(), i + 1);
        got = qp.DetectExtended(*parsed);
      }
      exec_ms[r].Add((NowSeconds() - t0) * 1e3);
      if (!got.ok()) continue;
      matches += got->size();
      ++detects;
      t0 = NowSeconds();
      {
        ScopedSpan span(tracer, "server.serialize", replay.id(), i + 1);
        ok = !server::DetectResponseJson(*got, kDetectLimit).empty();
      }
      serialize_us.Add((NowSeconds() - t0) * 1e6);
    } else {
      Result<query::ParsedQuery> parsed = Status::Internal("unparsed");
      {
        ScopedSpan span(tracer, "query.parse", replay.id(), i + 1);
        parsed = query::ParsePatternQuery(t.text, index.dictionary());
      }
      parse_us.Add((NowSeconds() - t0) * 1e6);
      if (!parsed.ok()) continue;
      t0 = NowSeconds();
      if (t.route == Route::kStats) {
        ScopedSpan span(tracer, "query.stats", replay.id(), i + 1);
        ok = qp.Statistics(parsed->pattern).ok();
      } else {
        ScopedSpan span(tracer, "query.continue", replay.id(), i + 1);
        ok = qp.ContinueHybrid(parsed->pattern, kContinueTopK).ok();
      }
      exec_ms[r].Add((NowSeconds() - t0) * 1e3);
    }
    ++result->attempted;
    if (!ok) result->Fail("in-process replay failed for \"" + t.text + "\"");
  }
  auto& m = result->metrics;
  m["query.parse_us"] = parse_us.Mean();
  for (size_t r = 0; r < kNumRoutes; ++r) {
    m[std::string("query.") + RouteName(static_cast<Route>(r)) + "_ms"] =
        exec_ms[r].Percentile(50);
  }
  m["query.matches_per_detect"] =
      static_cast<double>(matches) /
      static_cast<double>(std::max<uint64_t>(1, detects));
  m["server.serialize_us"] = serialize_us.Mean();
}

void ReportWriteLayers(const WriteStats& write,
                       const std::vector<std::string>& files,
                       const std::vector<const Node*>& nodes, Tracer* tracer,
                       RunResult* result) {
  auto& m = result->metrics;
  const double parse_s = tracer->TotalSeconds("log.parse");
  m["log.parse_s"] = parse_s;
  m["log.events_per_s"] =
      static_cast<double>(write.events) / std::max(1e-9, parse_s);
  m["index.update_s"] = tracer->TotalSeconds("index.update");
  // Extraction alone, replayed over the same batches.
  double extract_s = 0;
  std::vector<index::PairRow> rows;
  for (const std::string& file : files) {
    auto log = eventlog::ReadCsvLogFile(file);
    if (!log.ok()) continue;
    ScopedSpan span(tracer, "index.extract");
    const double t0 = NowSeconds();
    for (const auto& trace : log->traces()) {
      rows.clear();
      index::ExtractPairs(trace, index::Policy::kSkipTillNextMatch,
                          index::ExtractionMethod::kIndexing, &rows);
    }
    extract_s += NowSeconds() - t0;
  }
  m["index.extract_s"] = extract_s;
  m["index.pairs_indexed"] = static_cast<double>(write.pairs_indexed);
  m["index.pairs_per_event"] =
      static_cast<double>(write.pairs_indexed) /
      static_cast<double>(std::max<uint64_t>(1, write.events));
  m["index.flush_s"] = tracer->TotalSeconds("index.flush");
  m["index.settle_s"] = tracer->TotalSeconds("index.settle");

  double cycles = 0, keys = 0, rewritten = 0;
  uint64_t value_bytes = 0, fragment_bytes = 0;
  storage::TableSegmentStats segments;
  uint64_t disk = 0, wal = 0;
  for (const Node* n : nodes) {
    const auto ms = n->index->maintenance_stats();
    cycles += static_cast<double>(ms.cycles);
    keys += static_cast<double>(ms.keys_folded);
    rewritten += static_cast<double>(ms.bytes_rewritten);
    if (auto frag = n->index->PostingFragmentationStats(); frag.ok()) {
      value_bytes += frag->value_bytes;
      fragment_bytes += frag->fragment_bytes;
    }
    segments.Merge(n->db->GetSegmentStats());
    disk += DirBytes(n->dir);
    wal += WalBytes(n->dir);
  }
  m["index.fold_cycles"] = cycles;
  m["index.keys_folded"] = keys;
  m["index.fold_bytes_rewritten"] = rewritten;
  m["index.fragment_ratio"] =
      value_bytes == 0 ? 0.0
                       : static_cast<double>(fragment_bytes) /
                             static_cast<double>(value_bytes);
  m["storage.disk_bytes"] = static_cast<double>(disk);
  m["storage.wal_bytes"] = static_cast<double>(wal);
  m["storage.segments"] = static_cast<double>(segments.num_segments);
  m["storage.blocks"] = static_cast<double>(segments.num_blocks);
  m["storage.compression_ratio"] =
      segments.disk_bytes == 0
          ? 0.0
          : static_cast<double>(segments.logical_bytes) /
                static_cast<double>(segments.disk_bytes);
}

void ReportWrite(const WriteStats& write, double settled_at,
                 RunResult* result) {
  auto& m = result->metrics;
  m["ingest_events_per_s"] =
      static_cast<double>(write.events) /
      std::max(1e-9, settled_at - write.first_start);
  m["update_p50_ms"] = write.update_ms.Median();
  // A ledger line, not an end-to-end metric: how many batches the few fold
  // cycles of a run stall sets it, and that moves it by more than any bound.
  m["index.update_p99_ms"] = write.update_ms.Percentile(99);
  result->attempted += write.batches;
  result->failed += write.failed;
  if (write.failed > 0) {
    result->check_failures.push_back(std::to_string(write.failed) +
                                     " batches failed to read or update");
  }
  result->Note(StringPrintf(
      "write: %llu events in %llu batches, %.2f s to the last Update, "
      "%.2f s to settled, update p99 %.3f ms",
      static_cast<unsigned long long>(write.events),
      static_cast<unsigned long long>(write.batches),
      write.last_end - write.first_start, settled_at - write.first_start,
      m["index.update_p99_ms"]));
}

}  // namespace perfbench
