// Tests of the block-structured posting-list format: encode/decode
// round trips, header parsing, trace-interval pruning machinery,
// corruption behavior of every value decoder, the fold path, and the
// selectivity-filtered read path.

#include <algorithm>
#include <limits>

#include "baselines/sase/sase_engine.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "index/index_tables.h"
#include "index/posting_blocks.h"
#include "index/sequence_index.h"
#include "query/query_processor.h"
#include "storage/database.h"

namespace seqdet::index {
namespace {

using eventlog::EventLog;

std::unique_ptr<storage::Database> InMemoryDb() {
  storage::DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = storage::Database::Open("", options);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

IndexOptions SingleThreaded() {
  IndexOptions options;
  options.num_threads = 1;
  return options;
}

std::vector<PairOccurrence> RoundTrip(
    const std::vector<PairOccurrence>& postings, size_t target_bytes) {
  std::string encoded;
  EncodePostingBlocks(postings, target_bytes, &encoded);
  std::vector<PairOccurrence> decoded;
  EXPECT_TRUE(DecodeBlockedPostings(encoded, &decoded));
  return decoded;
}

// ---------------------------------------------------------------------------
// Block encode/decode round trips
// ---------------------------------------------------------------------------

TEST(PostingBlocksTest, EmptyListEncodesToNothing) {
  std::string encoded;
  EncodePostingBlocks({}, kDefaultPostingBlockBytes, &encoded);
  EXPECT_TRUE(encoded.empty());
  std::vector<PairOccurrence> decoded;
  EXPECT_TRUE(DecodeBlockedPostings(encoded, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(PostingBlocksTest, SinglePostingRoundTrip) {
  std::vector<PairOccurrence> postings{{42, -100, 250}};
  EXPECT_EQ(RoundTrip(postings, kDefaultPostingBlockBytes), postings);
}

TEST(PostingBlocksTest, MultiBlockRoundTrip) {
  // A tiny target forces many blocks; the round trip must be exact and
  // block-order-preserving.
  std::vector<PairOccurrence> postings;
  Rng rng(7);
  int64_t ts = -5000;
  for (uint64_t trace = 0; trace < 100; ++trace) {
    for (int k = 0; k < 5; ++k) {
      ts += static_cast<int64_t>(rng.NextBounded(50));
      postings.push_back(
          PairOccurrence{trace, ts, ts + 1 + static_cast<int64_t>(
                                             rng.NextBounded(100))});
    }
  }
  std::string encoded;
  EncodePostingBlocks(postings, 64, &encoded);
  std::vector<PostingBlockRef> refs;
  ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
  EXPECT_GT(refs.size(), 10u);
  std::vector<PairOccurrence> decoded;
  ASSERT_TRUE(DecodeBlockedPostings(encoded, &decoded));
  EXPECT_EQ(decoded, postings);
}

TEST(PostingBlocksTest, MaxDeltaTracesRoundTrip) {
  // Extreme trace-id spread within one block: deltas up to 2^64 - 1.
  std::vector<PairOccurrence> postings{
      {0, 1, 2},
      {1, 5, 9},
      {std::numeric_limits<uint64_t>::max() - 1, -10, 10},
      {std::numeric_limits<uint64_t>::max(), 100, 200},
  };
  EXPECT_EQ(RoundTrip(postings, kDefaultPostingBlockBytes), postings);
}

TEST(PostingBlocksTest, HeadersDescribeBlocks) {
  std::vector<PairOccurrence> postings{
      {10, -7, 3}, {10, 5, 8}, {20, 1, 90}, {30, 2, 4}};
  std::string encoded;
  EncodePostingBlocks(postings, kDefaultPostingBlockBytes, &encoded);
  std::vector<PostingBlockRef> refs;
  ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].header.min_trace, 10u);
  EXPECT_EQ(refs[0].header.max_trace, 30u);
  EXPECT_EQ(refs[0].header.min_ts, -7);
  EXPECT_EQ(refs[0].header.max_ts, 90);
  EXPECT_EQ(refs[0].header.count, 4u);
}

// ---------------------------------------------------------------------------
// Corruption: every decoder must leave its output empty on failure
// ---------------------------------------------------------------------------

TEST(PostingBlocksTest, CorruptedBlockedValueClearsOutput) {
  std::vector<PairOccurrence> postings{{1, 2, 3}, {4, 5, 6}};
  std::string encoded;
  EncodePostingBlocks(postings, kDefaultPostingBlockBytes, &encoded);
  encoded.resize(encoded.size() - 1);  // truncate inside the payload
  std::vector<PairOccurrence> decoded;
  EXPECT_FALSE(DecodeBlockedPostings(encoded, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(SeqTableTest, CorruptedEventsClearOutput) {
  std::string value;
  SeqTable::EncodeEvents({{1, 10}, {2, 20}}, &value);
  value.resize(value.size() - 1);
  std::vector<eventlog::Event> decoded;
  EXPECT_FALSE(SeqTable::DecodeEvents(value, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(PairIndexTableTest, CorruptedStoredValueSurfacesAsCorruption) {
  auto db = InMemoryDb();
  PairIndexTable index(*db->GetOrCreateTable("index"));
  EventTypePair pair{1, 2};
  ASSERT_TRUE(index.table()
                  ->Put(PairIndexTable::EncodeKey(pair), "\x07garbage")
                  .ok());
  auto postings = index.Get(pair);
  EXPECT_FALSE(postings.ok());
}

// ---------------------------------------------------------------------------
// TraceIntervalSet
// ---------------------------------------------------------------------------

TEST(TraceIntervalSetTest, MergesOverlappingAndAdjacent) {
  auto set = TraceIntervalSet::FromIntervals(
      {{5, 9}, {1, 3}, {4, 6}, {20, 30}, {31, 35}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (TraceInterval{1, 9}));
  EXPECT_EQ(set.intervals()[1], (TraceInterval{20, 35}));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_TRUE(set.Contains(9));
  EXPECT_FALSE(set.Contains(10));
  EXPECT_TRUE(set.Overlaps(10, 25));
  EXPECT_FALSE(set.Overlaps(10, 19));
}

TEST(TraceIntervalSetTest, IntersectIsSetIntersection) {
  auto a = TraceIntervalSet::FromIntervals({{0, 10}, {20, 30}});
  auto b = TraceIntervalSet::FromIntervals({{5, 25}});
  auto both = TraceIntervalSet::Intersect(a, b);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both.intervals()[0], (TraceInterval{5, 10}));
  EXPECT_EQ(both.intervals()[1], (TraceInterval{20, 25}));

  auto empty = TraceIntervalSet::Intersect(
      TraceIntervalSet::FromIntervals({{0, 4}}),
      TraceIntervalSet::FromIntervals({{5, 9}}));
  EXPECT_TRUE(empty.empty());
}

TEST(TraceIntervalSetTest, AllIsUnbounded) {
  auto all = TraceIntervalSet::All();
  EXPECT_TRUE(all.IsAll());
  EXPECT_TRUE(all.Contains(std::numeric_limits<uint64_t>::max()));
  auto narrowed = TraceIntervalSet::Intersect(
      all, TraceIntervalSet::FromIntervals({{3, 7}}));
  EXPECT_FALSE(narrowed.IsAll());
  EXPECT_TRUE(narrowed.Contains(5));
}

// ---------------------------------------------------------------------------
// Index-level: fold, filtered reads
// ---------------------------------------------------------------------------

EventLog SkewedLog(size_t traces) {
  // Every trace completes (A, B); only every 16th trace contains the rare
  // R before them — the trace-selective shape the block skip serves.
  EventLog log;
  for (size_t t = 0; t < traces; ++t) {
    int64_t ts = static_cast<int64_t>(t) * 100;
    if (t % 16 == 0) log.Append(t, "R", ts);
    log.Append(t, "A", ts + 1);
    log.Append(t, "B", ts + 2);
    log.Append(t, "A", ts + 3);
    log.Append(t, "B", ts + 4);
  }
  log.SortAllTraces();
  return log;
}

TEST(PostingFormatTest, FreshIndexDefaultsToBlocked) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  // The on-disk format stamp: varint 2 under meta `posting_format`.
  std::string stamp;
  ASSERT_TRUE((*db->GetOrCreateTable("meta"))->Get("posting_format", &stamp)
                  .ok());
  EXPECT_EQ(stamp, std::string(1, '\x02'));
}

TEST(PostingFormatTest, FoldedIndexStaysConsistent) {
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.posting_block_bytes = 128;  // force multi-block values
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  EventLog log = SkewedLog(200);
  ASSERT_TRUE((*index)->Update(log).ok());

  query::QueryProcessor qp(index->get());
  query::Pattern ab({(*index)->dictionary().Lookup("A"),
                     (*index)->dictionary().Lookup("B")});
  auto before = qp.Detect(ab);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE((*index)->FoldPostingsIncremental().ok());
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations.front();

  auto after = qp.Detect(ab);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST(PostingFormatTest, FilteredReadEquivalence) {
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.posting_block_bytes = 64;
  // No read cache: a cached whole list is served as a (valid) superset,
  // which would hide the block-skip path this test is about.
  options.cache_bytes = 0;
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  EventLog log = SkewedLog(300);
  ASSERT_TRUE((*index)->Update(log).ok());
  ASSERT_TRUE((*index)->FoldPostingsIncremental().ok());

  eventlog::ActivityId a = (*index)->dictionary().Lookup("A");
  eventlog::ActivityId b = (*index)->dictionary().Lookup("B");
  EventTypePair pair{a, b};
  auto full = (*index)->GetPairPostings(pair);
  ASSERT_TRUE(full.ok());

  // Unbounded candidates reproduce the full list.
  auto all = (*index)->GetPairPostingsFiltered(pair, TraceIntervalSet::All());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(**all, *full);

  // A narrow candidate set returns a sorted superset of its traces'
  // postings and skips blocks.
  auto candidates = TraceIntervalSet::FromIntervals({{32, 32}, {160, 160}});
  auto filtered = (*index)->GetPairPostingsFiltered(pair, candidates);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT((*filtered)->size(), full->size());
  EXPECT_TRUE(std::is_sorted((*filtered)->begin(), (*filtered)->end()));
  std::vector<PairOccurrence> expected, got;
  for (const PairOccurrence& p : *full) {
    if (candidates.Contains(p.trace)) expected.push_back(p);
  }
  for (const PairOccurrence& p : **filtered) {
    if (candidates.Contains(p.trace)) got.push_back(p);
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT((*index)->read_stats().blocks_skipped, 0u);
}

TEST(PostingFormatTest, SelectiveDetectMatchesUnprunedResults) {
  // The pruned join over folded multi-block values must return exactly the
  // pair-composed match set the SASE oracle computes from the raw log.
  EventLog log = SkewedLog(256);
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.posting_block_bytes = 64;
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->Update(log).ok());
  ASSERT_TRUE((*index)->FoldPostingsIncremental().ok());

  query::QueryProcessor qp(index->get());
  baseline::SaseEngine engine(&log);
  eventlog::ActivityId r = (*index)->dictionary().Lookup("R");
  eventlog::ActivityId a = (*index)->dictionary().Lookup("A");
  eventlog::ActivityId b = (*index)->dictionary().Lookup("B");
  // The oracle reads the log's own ids; both dictionaries intern in order.
  ASSERT_EQ(log.dictionary().Lookup("R"), r);
  ASSERT_EQ(log.dictionary().Lookup("B"), b);
  for (const query::Pattern& pattern :
       {query::Pattern({r, a, b}), query::Pattern({a, b, a}),
        query::Pattern({a, b, a, b})}) {
    auto got = qp.Detect(pattern);
    ASSERT_TRUE(got.ok());
    auto expected = engine.DetectExtended(
        query::ExtendedPattern::FromPlain(pattern), options.policy);
    ASSERT_TRUE(expected.ok());
    ASSERT_FALSE(expected->empty());
    std::vector<query::PatternMatch> oracle;
    for (const baseline::SaseMatch& m : *expected) {
      oracle.push_back(query::PatternMatch{m.trace, m.timestamps});
    }
    auto sort_matches = [](std::vector<query::PatternMatch>* m) {
      std::sort(m->begin(), m->end(),
                [](const query::PatternMatch& x,
                   const query::PatternMatch& y) {
                  return std::tie(x.trace, x.timestamps) <
                         std::tie(y.trace, y.timestamps);
                });
    };
    sort_matches(&*got);
    sort_matches(&oracle);
    EXPECT_EQ(*got, oracle);
  }
  // The rare-anchored pattern must actually have skipped blocks of the
  // hot (A,B) list.
  EXPECT_GT((*index)->read_stats().blocks_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Randomized codec properties (satellite of the differential-test PR):
// encode -> append fragments -> fold -> decode round trips, and clean
// failure on truncated / corrupted values. Seeds are fixed so failures
// reproduce; bump kRounds locally for a longer fuzz session.
// ---------------------------------------------------------------------------

namespace {

std::vector<PairOccurrence> RandomPostings(Rng* rng, size_t count) {
  std::vector<PairOccurrence> postings(count);
  for (auto& p : postings) {
    p.trace = rng->NextBounded(200);
    p.ts_first = rng->NextInRange(0, 100000);
    p.ts_second = p.ts_first + rng->NextInRange(0, 5000);
  }
  std::sort(postings.begin(), postings.end());
  return postings;
}

}  // namespace

TEST(PostingBlocksPropertyTest, RandomRoundTripAnyBlockSize) {
  constexpr int kRounds = 200;
  Rng rng(20210323);
  for (int round = 0; round < kRounds; ++round) {
    size_t count = static_cast<size_t>(rng.NextInRange(0, 400));
    auto postings = RandomPostings(&rng, count);
    // Target sizes below one posting exercise the clamp to 1/block.
    size_t target = static_cast<size_t>(rng.NextInRange(1, 512));
    std::string encoded;
    EncodePostingBlocks(postings, target, &encoded);
    std::vector<PairOccurrence> decoded;
    ASSERT_TRUE(DecodeBlockedPostings(encoded, &decoded)) << "round " << round;
    ASSERT_EQ(decoded, postings) << "round " << round << " target " << target;
  }
}

TEST(PostingBlocksPropertyTest, FragmentPileThenFoldRoundTrip) {
  constexpr int kRounds = 100;
  Rng rng(987654321);
  for (int round = 0; round < kRounds; ++round) {
    // Simulate the write path: several independently sorted fragments
    // appended to one value (what Update() produces across batches)...
    std::string value;
    std::vector<PairOccurrence> all;
    size_t fragments = static_cast<size_t>(rng.NextInRange(1, 8));
    for (size_t f = 0; f < fragments; ++f) {
      auto fragment =
          RandomPostings(&rng, static_cast<size_t>(rng.NextInRange(1, 60)));
      EncodePostingBlocks(fragment, 64, &value);
      all.insert(all.end(), fragment.begin(), fragment.end());
    }
    // ...the pile must decode to the concatenation (per-fragment order)...
    std::vector<PairOccurrence> decoded;
    ASSERT_TRUE(DecodeBlockedPostings(value, &decoded));
    ASSERT_EQ(decoded.size(), all.size());
    // ...and folding (sort + re-encode, what FoldAll commits) must round
    // trip to the globally sorted multiset.
    std::sort(all.begin(), all.end());
    std::string folded;
    EncodePostingBlocks(all, 128, &folded);
    decoded.clear();
    ASSERT_TRUE(DecodeBlockedPostings(folded, &decoded));
    ASSERT_EQ(decoded, all) << "round " << round;
  }
}

TEST(PostingBlocksPropertyTest, TruncationFailsCleanlyOrYieldsPrefix) {
  Rng rng(5551212);
  auto postings = RandomPostings(&rng, 120);
  std::string encoded;
  EncodePostingBlocks(postings, 96, &encoded);
  std::vector<PostingBlockRef> refs;
  ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
  ASSERT_GT(refs.size(), 1u);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::string_view prefix(encoded.data(), cut);
    // Pre-filled with a sentinel: a failed decode must clear it; a
    // successful decode appends after it (the decoder's append contract).
    std::vector<PairOccurrence> decoded{{1, 2, 3}};
    bool ok = DecodeBlockedPostings(prefix, &decoded);
    bool at_block_boundary = cut == 0;
    for (const PostingBlockRef& ref : refs) {
      if (cut == ref.payload_offset + ref.header.byte_len) {
        at_block_boundary = true;
      }
    }
    if (at_block_boundary) {
      // A prefix ending exactly between blocks is itself a valid value (a
      // shorter fragment pile) and decodes to a posting prefix.
      EXPECT_TRUE(ok) << "cut " << cut;
      ASSERT_GE(decoded.size(), 1u);
      EXPECT_EQ(decoded.front(), (PairOccurrence{1, 2, 3}));
      EXPECT_TRUE(std::equal(decoded.begin() + 1, decoded.end(),
                             postings.begin()))
          << "cut " << cut;
    } else {
      EXPECT_FALSE(ok) << "cut " << cut;
      EXPECT_TRUE(decoded.empty()) << "failed decode must clear output";
      std::vector<PostingBlockRef> truncated_refs{{}};
      EXPECT_FALSE(ParsePostingBlockRefs(prefix, &truncated_refs));
      EXPECT_TRUE(truncated_refs.empty());
    }
  }
}

TEST(PostingBlocksPropertyTest, RandomCorruptionNeverCrashes) {
  constexpr int kRounds = 300;
  Rng rng(424242);
  auto postings = RandomPostings(&rng, 150);
  std::string pristine;
  EncodePostingBlocks(postings, 128, &pristine);
  for (int round = 0; round < kRounds; ++round) {
    std::string mutated = pristine;
    size_t flips = static_cast<size_t>(rng.NextInRange(1, 8));
    for (size_t i = 0; i < flips; ++i) {
      size_t pos = static_cast<size_t>(rng.NextBounded(mutated.size()));
      mutated[pos] = static_cast<char>(mutated[pos] ^
                                       (1u << rng.NextBounded(8)));
    }
    // Decoding must either reject (clearing the output) or produce a
    // structurally valid result; it must never crash or read out of
    // bounds (ASan/UBSan cover the latter in check_all.sh).
    std::vector<PairOccurrence> decoded{{7, 8, 9}};
    if (!DecodeBlockedPostings(mutated, &decoded)) {
      EXPECT_TRUE(decoded.empty()) << "round " << round;
    }
    std::vector<PostingBlockRef> refs{{}};
    if (!ParsePostingBlockRefs(mutated, &refs)) {
      EXPECT_TRUE(refs.empty()) << "round " << round;
    }
  }
}

TEST(PostingBlocksPropertyTest, RandomGarbageNeverCrashes) {
  constexpr int kRounds = 500;
  Rng rng(31337);
  for (int round = 0; round < kRounds; ++round) {
    std::string garbage(static_cast<size_t>(rng.NextInRange(1, 300)), 0);
    for (auto& c : garbage) c = static_cast<char>(rng.NextBounded(256));
    std::vector<PairOccurrence> decoded{{1, 1, 1}};
    if (!DecodeBlockedPostings(garbage, &decoded)) {
      EXPECT_TRUE(decoded.empty());
    }
  }
}

}  // namespace
}  // namespace seqdet::index
