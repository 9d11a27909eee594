// SDSEG2 format tests: lower-bound search across block fences, mmap vs
// buffered reader equivalence, the posting-FOR block codec (pinned against the index
// encoder that produces the values it transcodes), batch varint decode,
// bit packing, and corruption fuzzing (every damage must surface as
// Status::Corruption, never as a crash or wrong data).

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitpack.h"
#include "common/coding.h"
#include "common/strings.h"
#include "index/posting_blocks.h"
#include "storage/segment.h"
#include "storage/segment_codec.h"

namespace seqdet {
namespace {

namespace fs = std::filesystem;
using storage::BlockCodec;
using storage::RecordKind;
using storage::Segment;
using storage::SegmentBuilder;
using storage::SegmentWriteOptions;
using storage::WriteFileAtomic;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("seqdet_segment_v2_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// Deterministic keys/values spanning several blocks. Values are plain
// strings here; posting-shaped values get their own tests below.
std::vector<std::pair<std::string, std::string>> MakeEntries(int n) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.emplace_back(StringPrintf("key%06d", i),
                     StringPrintf("value-%d-%s", i,
                                  std::string(i % 50, 'x').c_str()));
  }
  return out;
}

std::string BuildSegment(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const SegmentWriteOptions& options) {
  SegmentBuilder builder(options);
  for (const auto& [k, v] : entries) {
    EXPECT_TRUE(builder.Add(k, RecordKind::kPut, v).ok());
  }
  return builder.Finish();
}

void ExpectReadsAllEntries(
    const Segment& segment,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  ASSERT_EQ(segment.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    auto e = segment.Entry(i);
    ASSERT_TRUE(e.ok()) << e.status();
    EXPECT_EQ(e->key, entries[i].first);
    EXPECT_EQ(e->value, entries[i].second);
    EXPECT_EQ(e->kind, RecordKind::kPut);
  }
  // Point lookups on a sample plus guaranteed misses.
  for (size_t i = 0; i < entries.size(); i += 37) {
    auto found = segment.Find(entries[i].first);
    ASSERT_TRUE(found.ok()) << found.status();
    ASSERT_NE(*found, nullptr) << entries[i].first;
    EXPECT_EQ((*found)->value, entries[i].second);
  }
  auto miss = segment.Find("zzz-not-there");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, nullptr);
}

TEST(SegmentV2Test, RoundTripManyBlocks) {
  auto entries = MakeEntries(2000);
  auto segment = Segment::FromBuffer(BuildSegment(entries, {}));
  ASSERT_TRUE(segment.ok()) << segment.status();
  EXPECT_GT((*segment)->stats().num_blocks, 1u);
  ExpectReadsAllEntries(**segment, entries);
}

TEST(SegmentV2Test, V1AndV2ReadTheSameEntries) {
  auto entries = MakeEntries(500);
  auto segment = Segment::FromBuffer(BuildSegment(entries, {}));
  ASSERT_TRUE(segment.ok()) << segment.status();
  ExpectReadsAllEntries(**segment, entries);
  // LowerBound must agree with std::lower_bound over the sorted input for
  // keys on, between and past block fences.
  for (const std::string probe :
       {"key000000", "key000100x", "key001999", "zzz", "a"}) {
    auto got = (*segment)->LowerBound(probe);
    ASSERT_TRUE(got.ok()) << got.status();
    auto it = std::lower_bound(
        entries.begin(), entries.end(), probe,
        [](const auto& e, const std::string& k) { return e.first < k; });
    EXPECT_EQ(*got, static_cast<size_t>(it - entries.begin())) << probe;
  }
}

TEST(SegmentV2Test, MmapLoadMatchesBufferedParse) {
  TempDir dir;
  auto entries = MakeEntries(800);
  std::string sealed = BuildSegment(entries, {});
  std::string path = dir.str() + "/t.000001.seg";
  ASSERT_TRUE(WriteFileAtomic(path, sealed).ok());

  auto mapped = Segment::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto buffered = Segment::FromBuffer(sealed);
  ASSERT_TRUE(buffered.ok()) << buffered.status();

  ASSERT_EQ((*mapped)->size(), (*buffered)->size());
  EXPECT_EQ((*mapped)->stats().num_blocks, (*buffered)->stats().num_blocks);
  for (size_t i = 0; i < (*mapped)->size(); ++i) {
    auto a = (*mapped)->Entry(i);
    auto b = (*buffered)->Entry(i);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->key, b->key);
    EXPECT_EQ(a->value, b->value);
    EXPECT_EQ(a->kind, b->kind);
  }
}

TEST(SegmentV2Test, EmptySegmentIsValid) {
  SegmentBuilder builder;
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok()) << segment.status();
  EXPECT_EQ((*segment)->size(), 0u);
  auto miss = (*segment)->Find("anything");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, nullptr);
}

TEST(SegmentV2Test, AppendAndDeleteKindsSurvive) {
  SegmentBuilder builder;
  ASSERT_TRUE(builder.Add("a", RecordKind::kPut, "base").ok());
  ASSERT_TRUE(builder.Add("b", RecordKind::kAppend, "frag").ok());
  ASSERT_TRUE(builder.Add("c", RecordKind::kDelete, "").ok());
  auto segment = Segment::FromBuffer(builder.Finish());
  ASSERT_TRUE(segment.ok()) << segment.status();
  auto b = (*segment)->Find("b");
  ASSERT_TRUE(b.ok());
  ASSERT_NE(*b, nullptr);
  EXPECT_EQ((*b)->kind, RecordKind::kAppend);
  auto c = (*segment)->Find("c");
  ASSERT_TRUE(c.ok());
  ASSERT_NE(*c, nullptr);
  EXPECT_EQ((*c)->kind, RecordKind::kDelete);
}

// ---------------------------------------------------------------------------
// Corruption fuzzing
// ---------------------------------------------------------------------------

// Reads every entry; true when some access reports corruption.
bool ScanCatchesCorruption(const Segment& segment) {
  for (size_t i = 0; i < segment.size(); ++i) {
    if (!segment.Entry(i).ok()) return true;
  }
  return false;
}

TEST(SegmentV2Test, EveryByteFlipIsDetected) {
  auto entries = MakeEntries(120);  // a few blocks, small enough to fuzz
  std::string sealed = BuildSegment(entries, {});
  for (size_t i = 0; i < sealed.size(); ++i) {
    std::string mutated = sealed;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    auto segment = Segment::FromBuffer(mutated);
    if (!segment.ok()) {
      EXPECT_TRUE(segment.status().IsCorruption()) << "byte " << i;
      continue;
    }
    EXPECT_TRUE(ScanCatchesCorruption(**segment)) << "byte " << i;
  }
}

TEST(SegmentV2Test, EveryTruncationIsDetected) {
  auto entries = MakeEntries(60);
  std::string sealed = BuildSegment(entries, {});
  for (size_t len = 0; len < sealed.size(); ++len) {
    auto segment = Segment::FromBuffer(sealed.substr(0, len));
    if (!segment.ok()) continue;
    EXPECT_TRUE((*segment)->size() == 0 || ScanCatchesCorruption(**segment))
        << "length " << len;
  }
}

TEST(SegmentV2Test, TruncatedFileOnDiskIsRejected) {
  TempDir dir;
  auto entries = MakeEntries(200);
  std::string sealed = BuildSegment(entries, {});
  std::string path = dir.str() + "/t.000001.seg";
  ASSERT_TRUE(WriteFileAtomic(path, sealed.substr(0, sealed.size() / 2)).ok());
  auto segment = Segment::Load(path);
  EXPECT_FALSE(segment.ok());
}

// ---------------------------------------------------------------------------
// Posting-FOR codec
// ---------------------------------------------------------------------------

// Builds a realistic blocked posting value through the *index* encoder —
// the storage transcoder parses exactly this wire format, and this test is
// what keeps the two sides pinned together.
std::string MakePostingValue(int n, int64_t base_ts) {
  std::vector<index::PairOccurrence> postings;
  postings.reserve(n);
  uint64_t trace = 7;
  int64_t ts = base_ts;
  for (int i = 0; i < n; ++i) {
    trace += (i % 5 == 0) ? 3 : 0;
    ts += 1000 + (i % 97);
    postings.push_back(index::PairOccurrence{trace, ts, ts + 40 + i % 13});
  }
  std::string value;
  index::EncodePostingBlocks(postings, index::kDefaultPostingBlockBytes,
                             &value);
  return value;
}

TEST(SegmentCodecTest, PostingTranscodeRoundTripsByteExact) {
  // Epoch-millisecond scale timestamps: the regime the FOR columns are
  // built for.
  std::string value = MakePostingValue(3000, 1700000000000);
  std::string encoded;
  storage::TranscodePostingValue(value, &encoded);
  std::string decoded;
  ASSERT_TRUE(storage::UntranscodePostingValue(encoded, &decoded));
  EXPECT_EQ(decoded, value);
  // The whole point: the FOR form must be materially smaller.
  EXPECT_LT(encoded.size(), value.size());
}

TEST(SegmentCodecTest, NonPostingValuesFallBackToRaw) {
  for (const std::string& value :
       {std::string(""), std::string("hello world"), std::string(300, '\xff'),
        std::string("\x01\x02\x03")}) {
    std::string encoded;
    storage::TranscodePostingValue(value, &encoded);
    std::string decoded;
    ASSERT_TRUE(storage::UntranscodePostingValue(encoded, &decoded));
    EXPECT_EQ(decoded, value);
  }
}

TEST(SegmentCodecTest, SegmentStoresPostingValuesSmallerThanV1) {
  // Posting-list values under the posting-FOR codec must seal materially
  // smaller than the uncompressed kind|len|key|len|value records the
  // segment reports as its logical size.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 64; ++i) {
    entries.emplace_back(StringPrintf("p0|%04d|%04d", i, i + 1),
                         MakePostingValue(500, 1700000000000 + i));
  }
  std::string sealed = BuildSegment(entries, {});
  auto segment = Segment::FromBuffer(sealed);
  ASSERT_TRUE(segment.ok()) << segment.status();
  const uint64_t logical = (*segment)->stats().logical_bytes;
  EXPECT_EQ((*segment)->stats().disk_bytes, sealed.size());
  EXPECT_LT(sealed.size() * 2, logical)
      << "sealed=" << sealed.size() << " logical=" << logical;
  ExpectReadsAllEntries(**segment, entries);
  // Decoded values must parse back through the index decoder.
  auto e = (*segment)->Find(entries[3].first);
  ASSERT_TRUE(e.ok());
  ASSERT_NE(*e, nullptr);
  std::vector<index::PairOccurrence> postings;
  EXPECT_TRUE(index::DecodeBlockedPostings((*e)->value, &postings));
  EXPECT_EQ(postings.size(), 500u);
}

// ---------------------------------------------------------------------------
// Batch varint decode
// ---------------------------------------------------------------------------

TEST(BatchVarintTest, MatchesScalarDecode) {
  std::vector<uint64_t> values;
  for (uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 20, 1ull << 35,
        (1ull << 63) + 5, ~0ull}) {
    values.push_back(v);
  }
  for (int i = 0; i < 100; ++i) values.push_back(i * 2654435761u);
  std::string encoded;
  for (uint64_t v : values) PutVarint64(&encoded, v);

  std::vector<uint64_t> batch(values.size());
  std::string_view cursor(encoded);
  ASSERT_TRUE(GetVarint64Batch(&cursor, values.size(), batch.data()));
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(batch, values);
}

TEST(BatchVarintTest, TruncatedInputFailsWithoutAdvancing) {
  std::string encoded;
  PutVarint64(&encoded, 1);
  PutVarint64(&encoded, 1ull << 40);
  std::string truncated = encoded.substr(0, encoded.size() - 1);
  uint64_t out[2];
  std::string_view cursor(truncated);
  EXPECT_FALSE(GetVarint64Batch(&cursor, 2, out));
  EXPECT_EQ(cursor.size(), truncated.size());  // cursor untouched on failure
}

TEST(BatchVarintTest, OverlongVarintRejected) {
  std::string encoded(10, '\x80');  // continuation forever
  encoded.push_back('\x02');
  uint64_t out[1];
  std::string_view cursor(encoded);
  EXPECT_FALSE(GetVarint64Batch(&cursor, 1, out));
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

TEST(BitpackTest, RoundTripAllWidths) {
  for (uint32_t bits = 0; bits <= 64; ++bits) {
    std::vector<uint64_t> values;
    uint64_t mask =
        bits >= 64 ? ~0ull : ((uint64_t{1} << bits) - 1);
    for (int i = 0; i < 40; ++i) {
      values.push_back((i * 0x9e3779b97f4a7c15ull) & mask);
    }
    std::string packed;
    BitPacker packer(&packed);
    for (uint64_t v : values) packer.Put(v, bits);
    packer.Finish();
    EXPECT_LE(packed.size(), (values.size() * bits + 7) / 8 + 1);

    BitUnpacker unpacker(packed);
    for (size_t i = 0; i < values.size(); ++i) {
      uint64_t v = 0;
      ASSERT_TRUE(unpacker.Get(bits, &v)) << "bits=" << bits << " i=" << i;
      EXPECT_EQ(v, values[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(BitpackTest, UnderrunFails) {
  std::string packed;
  BitPacker packer(&packed);
  packer.Put(0x3ff, 10);
  packer.Finish();
  BitUnpacker unpacker(packed);
  uint64_t v = 0;
  ASSERT_TRUE(unpacker.Get(10, &v));
  EXPECT_EQ(v, 0x3ffu);
  EXPECT_FALSE(unpacker.Get(10, &v));
}

}  // namespace
}  // namespace seqdet
