// Internal: per-codec factory hooks used by make_codec().
#pragma once

#include <memory>

#include "compress/codec.h"

namespace aad::compress::detail {

std::unique_ptr<Codec> make_null();
std::unique_ptr<Codec> make_rle();
std::unique_ptr<Codec> make_lzss();
std::unique_ptr<Codec> make_huffman();
std::unique_ptr<Codec> make_golomb();
std::unique_ptr<Codec> make_frame_delta(std::size_t frame_bytes);
std::unique_ptr<Codec> make_delta_golomb(std::size_t frame_bytes);

/// Reads the container's u32 raw_size and checks it is `out_size`: the
/// caller sized the output, so a header that disagrees is corruption.
/// Returns the reader positioned after the field.
ByteReader read_header(ByteSpan compressed, std::size_t out_size);

/// Shared by kRle and kFrameDelta: raw RLE ops over a byte stream (no
/// container header).  rle_decode fills exactly `out`.
Bytes rle_encode(ByteSpan raw);
void rle_decode(ByteSpan ops, std::span<Byte> out);

/// Shared by kGolomb and kDeltaGolomb: the Rice zero-run body — u8 k, then
/// rice(zero_run) [literal(8)] tokens (no container header).
/// zero_run_decode fills exactly `out`.
Bytes zero_run_encode(ByteSpan raw);
void zero_run_decode(ByteSpan body, std::span<Byte> out);

/// Shared by kFrameDelta and kDeltaGolomb: XOR each byte with the one
/// `frame_bytes` earlier (the first frame passes through), and undo that
/// in place, each byte against the already rebuilt one `frame_bytes`
/// earlier in `out`.
Bytes frame_delta(ByteSpan raw, std::size_t frame_bytes);
void undo_frame_delta(std::span<Byte> out, std::size_t frame_bytes);

}  // namespace aad::compress::detail
