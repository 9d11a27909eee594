#include "storage/segment_codec.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitpack.h"
#include "common/coding.h"

#if defined(SEQDET_HAVE_ZSTD)
#include <zstd.h>
#endif

namespace seqdet::storage {

namespace {

// Value tags of codec kPostingFor.
constexpr char kTagRaw = 0;
constexpr char kTagPostingFor = 1;

// Postings per FOR group. Small enough that one outlier value cannot blow
// up the bit width of a whole block, large enough to amortize the
// per-group per-column header (varint min + width byte).
constexpr size_t kForGroupSize = 128;

// One decoded posting block, in the storage-side mirror of the posting
// value format. The wire layout is owned by index/posting_blocks.h; this
// file re-implements the triple parse because storage must not depend on
// index (tests/segment_v2_test.cc pins the two in sync).
struct PostingBlock {
  uint64_t min_trace = 0;
  uint64_t max_trace = 0;
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  // Parallel columns, one row per posting, exactly as they appear on the
  // wire: trace_delta (vs previous posting / min_trace), absolute
  // ts_first, duration = ts_second - ts_first.
  std::vector<uint64_t> trace_delta;
  std::vector<int64_t> ts_first;
  std::vector<uint64_t> duration;
};

// Strictly parses `value` as a posting-block sequence. False when the
// bytes are anything else (then the value is stored raw).
bool ParsePostingValue(std::string_view value,
                       std::vector<PostingBlock>* blocks) {
  blocks->clear();
  while (!value.empty()) {
    PostingBlock b;
    uint64_t count = 0, byte_len = 0;
    if (!GetVarint64(&value, &b.min_trace) ||
        !GetVarint64(&value, &b.max_trace) ||
        !GetVarint64SignedZigZag(&value, &b.min_ts) ||
        !GetVarint64SignedZigZag(&value, &b.max_ts) ||
        !GetVarint64(&value, &count) || !GetVarint64(&value, &byte_len) ||
        count == 0 || b.min_trace > b.max_trace || byte_len > value.size()) {
      return false;
    }
    std::string_view payload = value.substr(0, byte_len);
    value.remove_prefix(static_cast<size_t>(byte_len));
    b.trace_delta.reserve(count);
    b.ts_first.reserve(count);
    b.duration.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t td = 0, du = 0;
      int64_t ts = 0;
      if (!GetVarint64(&payload, &td) ||
          !GetVarint64SignedZigZag(&payload, &ts) ||
          !GetVarint64(&payload, &du)) {
        return false;
      }
      b.trace_delta.push_back(td);
      b.ts_first.push_back(ts);
      b.duration.push_back(du);
    }
    if (!payload.empty()) return false;
    blocks->push_back(std::move(b));
  }
  return !blocks->empty();
}

// Re-encodes decoded posting blocks into the original wire bytes. Used by
// the decoder, and by the encoder to verify byte-exact round-trips (a
// value containing non-canonical varints would parse fine but re-encode
// differently; such values fall back to raw storage).
void ReencodePostingValue(const std::vector<PostingBlock>& blocks,
                          std::string* out) {
  std::string payload;
  for (const PostingBlock& b : blocks) {
    payload.clear();
    for (size_t i = 0; i < b.trace_delta.size(); ++i) {
      PutVarint64(&payload, b.trace_delta[i]);
      PutVarint64SignedZigZag(&payload, b.ts_first[i]);
      PutVarint64(&payload, b.duration[i]);
    }
    PutVarint64(out, b.min_trace);
    PutVarint64(out, b.max_trace);
    PutVarint64SignedZigZag(out, b.min_ts);
    PutVarint64SignedZigZag(out, b.max_ts);
    PutVarint64(out, b.trace_delta.size());
    PutVarint64(out, payload.size());
    out->append(payload);
  }
}

// Appends one FOR column: varint frame minimum, width byte, then the
// offsets bitpacked at that width (padded to a byte boundary).
void PutForColumn(const uint64_t* values, size_t n, std::string* out) {
  uint64_t min_v = values[0], max_v = values[0];
  for (size_t i = 1; i < n; ++i) {
    min_v = std::min(min_v, values[i]);
    max_v = std::max(max_v, values[i]);
  }
  uint32_t bits = BitsNeeded(max_v - min_v);
  PutVarint64(out, min_v);
  out->push_back(static_cast<char>(bits));
  BitPacker packer(out);
  for (size_t i = 0; i < n; ++i) packer.Put(values[i] - min_v, bits);
  packer.Finish();
}

bool GetForColumn(std::string_view* input, size_t n, uint64_t* out) {
  uint64_t min_v = 0;
  if (!GetVarint64(input, &min_v) || input->empty()) return false;
  uint32_t bits = static_cast<unsigned char>(input->front());
  input->remove_prefix(1);
  if (bits > 64) return false;
  size_t packed_bytes = (n * bits + 7) / 8;
  if (input->size() < packed_bytes) return false;
  BitUnpacker unpacker(input->substr(0, packed_bytes));
  for (size_t i = 0; i < n; ++i) {
    uint64_t offset = 0;
    if (!unpacker.Get(bits, &offset)) return false;
    out[i] = min_v + offset;
  }
  input->remove_prefix(packed_bytes);
  return true;
}

// FOR-encodes one posting block: the 5 header varints (byte_len is implied
// by the groups), then ceil(count / kForGroupSize) groups of a zigzag
// slope varint plus three FOR columns.
//
// The ts column is residual-coded against a linear trace predictor:
// postings sorted by (trace, ts) advance roughly linearly with the trace
// id (trace ids correlate with arrival time), so each group stores the
// observed ms-per-trace slope and each row only the zigzag residual
// `ts - prev_ts - slope * trace_delta`. For same-trace rows the residual
// is the plain in-trace gap; for trace-crossing rows the slope absorbs
// the inter-trace jump that plain double-delta would pay full width for.
// All arithmetic is done in wrap-around uint64 so corrupt inputs cannot
// overflow into UB — encode and decode wrap identically, keeping
// round-trips byte-exact.
void EncodeForBlock(const PostingBlock& b, std::string* out) {
  PutVarint64(out, b.min_trace);
  PutVarint64(out, b.max_trace);
  PutVarint64SignedZigZag(out, b.min_ts);
  PutVarint64SignedZigZag(out, b.max_ts);
  PutVarint64(out, b.trace_delta.size());
  const size_t count = b.trace_delta.size();
  std::vector<uint64_t> ts_resid(count);
  int64_t prev_ts = b.min_ts;
  for (size_t begin = 0; begin < count; begin += kForGroupSize) {
    size_t n = std::min(kForGroupSize, count - begin);
    uint64_t span = 0;
    for (size_t i = begin; i < begin + n; ++i) span += b.trace_delta[i];
    int64_t slope =
        span > 0 ? (b.ts_first[begin + n - 1] - prev_ts) /
                       static_cast<int64_t>(span)
                 : 0;
    for (size_t i = begin; i < begin + n; ++i) {
      uint64_t predicted = static_cast<uint64_t>(prev_ts) +
                           static_cast<uint64_t>(slope) * b.trace_delta[i];
      ts_resid[i] = ZigZagEncode64(static_cast<int64_t>(
          static_cast<uint64_t>(b.ts_first[i]) - predicted));
      prev_ts = b.ts_first[i];
    }
    PutVarint64SignedZigZag(out, slope);
    PutForColumn(b.trace_delta.data() + begin, n, out);
    PutForColumn(ts_resid.data() + begin, n, out);
    PutForColumn(b.duration.data() + begin, n, out);
  }
}

bool DecodeForBlock(std::string_view* input, PostingBlock* b) {
  uint64_t count = 0;
  if (!GetVarint64(input, &b->min_trace) ||
      !GetVarint64(input, &b->max_trace) ||
      !GetVarint64SignedZigZag(input, &b->min_ts) ||
      !GetVarint64SignedZigZag(input, &b->max_ts) ||
      !GetVarint64(input, &count) || count == 0 ||
      count > (input->size() / 6 + 1) * kForGroupSize) {
    // Every FOR group costs >= 6 bytes (three columns of varint min +
    // width byte) for up to kForGroupSize postings, which bounds any
    // plausible count — a guard against allocating on garbage.
    return false;
  }
  b->trace_delta.resize(count);
  std::vector<uint64_t> ts_resid(count);
  b->duration.resize(count);
  b->ts_first.resize(count);
  int64_t prev_ts = b->min_ts;
  for (size_t begin = 0; begin < count; begin += kForGroupSize) {
    size_t n = std::min(kForGroupSize, static_cast<size_t>(count) - begin);
    int64_t slope = 0;
    if (!GetVarint64SignedZigZag(input, &slope) ||
        !GetForColumn(input, n, b->trace_delta.data() + begin) ||
        !GetForColumn(input, n, ts_resid.data() + begin) ||
        !GetForColumn(input, n, b->duration.data() + begin)) {
      return false;
    }
    for (size_t i = begin; i < begin + n; ++i) {
      // Mirror of the encoder's wrap-around prediction arithmetic.
      prev_ts = static_cast<int64_t>(
          static_cast<uint64_t>(prev_ts) +
          static_cast<uint64_t>(slope) * b->trace_delta[i] +
          static_cast<uint64_t>(ZigZagDecode64(ts_resid[i])));
      b->ts_first[i] = prev_ts;
    }
  }
  return true;
}

}  // namespace

void TranscodePostingValue(std::string_view value, std::string* out) {
  std::vector<PostingBlock> blocks;
  if (ParsePostingValue(value, &blocks)) {
    std::string encoded;
    encoded.push_back(kTagPostingFor);
    for (const PostingBlock& b : blocks) EncodeForBlock(b, &encoded);
    // Only keep the transcode when it decodes back to the exact original
    // bytes (canonicality check) and actually saves space.
    std::string round_trip;
    if (encoded.size() < value.size() + 1 &&
        UntranscodePostingValue(encoded, &round_trip) &&
        round_trip == value) {
      out->append(encoded);
      return;
    }
  }
  out->push_back(kTagRaw);
  out->append(value);
}

bool UntranscodePostingValue(std::string_view stored, std::string* out) {
  if (stored.empty()) return false;
  char tag = stored.front();
  stored.remove_prefix(1);
  if (tag == kTagRaw) {
    out->append(stored);
    return true;
  }
  if (tag != kTagPostingFor) return false;
  std::vector<PostingBlock> blocks;
  while (!stored.empty()) {
    PostingBlock b;
    if (!DecodeForBlock(&stored, &b)) return false;
    blocks.push_back(std::move(b));
  }
  if (blocks.empty()) return false;
  ReencodePostingValue(blocks, out);
  return true;
}

bool ZstdAvailable() {
#if defined(SEQDET_HAVE_ZSTD)
  return true;
#else
  return false;
#endif
}

bool ZstdCompressBlock(std::string_view input, std::string* out) {
#if defined(SEQDET_HAVE_ZSTD)
  size_t bound = ZSTD_compressBound(input.size());
  size_t base = out->size();
  out->resize(base + bound);
  size_t n = ZSTD_compress(out->data() + base, bound, input.data(),
                           input.size(), /*level=*/3);
  if (ZSTD_isError(n)) {
    out->resize(base);
    return false;
  }
  out->resize(base + n);
  return true;
#else
  (void)input;
  (void)out;
  return false;
#endif
}

bool ZstdDecompressBlock(std::string_view input, size_t raw_size,
                         std::string* out) {
#if defined(SEQDET_HAVE_ZSTD)
  size_t base = out->size();
  out->resize(base + raw_size);
  size_t n =
      ZSTD_decompress(out->data() + base, raw_size, input.data(), input.size());
  if (ZSTD_isError(n) || n != raw_size) {
    out->resize(base);
    return false;
  }
  return true;
#else
  (void)input;
  (void)raw_size;
  (void)out;
  return false;
#endif
}

}  // namespace seqdet::storage
