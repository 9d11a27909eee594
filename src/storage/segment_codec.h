#ifndef SEQDET_STORAGE_SEGMENT_CODEC_H_
#define SEQDET_STORAGE_SEGMENT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace seqdet::storage {

/// Block codecs of the SDSEG2 segment format (see FORMATS.md).
///
/// The codec id is recorded per block in the segment index footer:
///  - kRaw:        block plaintext stored as-is, values verbatim.
///  - kPostingFor: values inside the block carry a 1-byte tag; values that
///                 parse as posting-block sequences are transcoded to a
///                 frame-of-reference bitpacked-delta layout, everything
///                 else stays raw behind tag 0. The block framing itself
///                 (prefix-compressed keys, restarts) is unchanged.
///  - kZstd:       whole-block zstd of the kRaw plaintext. Only written
///                 when the library was built against zstd
///                 (SEQDET_HAVE_ZSTD); builders silently fall back to
///                 kPostingFor otherwise, readers report Corruption.
enum class BlockCodec : uint8_t {
  kRaw = 0,
  kPostingFor = 1,
  kZstd = 2,
};

/// Per-value transcode of codec kPostingFor. Appends a tagged encoding of
/// `value` to `*out`: tag 1 + FOR-compressed posting blocks when `value`
/// strictly parses as a posting-block sequence AND the transcode
/// round-trips byte-exactly (verified at build time), else tag 0 + the
/// original bytes. Never fails.
void TranscodePostingValue(std::string_view value, std::string* out);

/// Reverses TranscodePostingValue, appending the original value bytes to
/// `*out`. False on malformed input (`*out` may hold partial data).
bool UntranscodePostingValue(std::string_view stored, std::string* out);

/// Whether whole-block zstd support was compiled in.
bool ZstdAvailable();

/// Compresses `input` with zstd, appending to `*out`. False when zstd is
/// unavailable or compression fails.
bool ZstdCompressBlock(std::string_view input, std::string* out);

/// Decompresses a zstd block of known decompressed size `raw_size`,
/// appending to `*out`. False when zstd is unavailable, the frame is
/// malformed, or the output size differs from `raw_size`.
bool ZstdDecompressBlock(std::string_view input, size_t raw_size,
                         std::string* out);

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_SEGMENT_CODEC_H_
