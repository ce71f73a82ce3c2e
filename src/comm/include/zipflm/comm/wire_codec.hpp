#pragma once

// Wire codecs for collective payloads.
//
// The paper stops compression-scaling at FP16; the Zipfian repetition
// it observes in the index traffic (and the low entropy of gradient
// exponent bytes) makes collective payloads compressible well past
// that.  Two payload families get codecs:
//
//  * Index blocks (the sorted unique-id allgatherv): delta + zigzag +
//    LEB128 varint.  Lossless, order-preserving, rank-deterministic.
//
//  * Gradient chunks (one ring-allreduce hop): either lossless
//    byte-plane packing — element bytes are transposed into per-byte
//    planes so the near-constant exponent/zero planes become long runs,
//    then each plane independently picks the smaller of {raw, RLE} —
//    or lossy INT8 quantization with one FP32 scale per chunk
//    (scale = max|x| / 127, round-to-nearest-even).
//
// Determinism rules (see DESIGN.md):
//  * every encoder is a pure function of the input bytes — identical
//    chunks encode to identical bytes on every rank, every backend,
//    and every SIMD dispatch (the pack/quantize kernels are bitwise
//    identical to their scalar fallbacks);
//  * Packed and the index codec are bit-exact round trips, including
//    NaN payloads and subnormals;
//  * INT8 is lossy but deterministic: decode(encode(x)) depends only
//    on x.  A chunk containing any non-finite value encodes as
//    scale = NaN with zero quants and decodes to all-NaN, preserving
//    the lockstep overflow-skip behaviour of fault-injected runs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "zipflm/comm/ledger.hpp"
#include "zipflm/tensor/half.hpp"
#include "zipflm/tensor/tensor.hpp"

namespace zipflm {

/// Gradient wire codec applied per ring-allreduce hop.  Negotiated per
/// collective in the transport engine's wire header — mismatched ranks
/// fault loudly instead of decoding garbage.
enum class WireCodec : std::uint8_t {
  None = 0,    ///< raw element bytes (FP32 or FP16 as staged)
  Packed = 1,  ///< lossless byte-plane + per-plane best-of {raw, RLE}
  Int8 = 2,    ///< lossy INT8 with per-chunk FP32 scale
};

const char* wire_codec_name(WireCodec codec) noexcept;

// ---------------------------------------------------------------------------
// Index codec
// ---------------------------------------------------------------------------

/// Encodes an id block as zigzag(delta) LEB128 varints (delta against
/// the previous id, starting from 0).  Sorted Zipf-repeated ids yield
/// mostly 1-byte deltas; arbitrary (unsorted, duplicate, extreme)
/// blocks still round-trip exactly.  `out` is replaced.
void encode_index_block(std::span<const Index> ids,
                        std::vector<std::byte>& out);

/// Decodes one encoded block, appending the ids to `out`.  Throws
/// Error on truncated or malformed input.
void decode_index_block(std::span<const std::byte> in,
                        std::vector<Index>& out);

// ---------------------------------------------------------------------------
// Gradient chunk codec
// ---------------------------------------------------------------------------

/// Encodes one gradient chunk with `codec` (must not be None).  `out`
/// is replaced; the encoding is a pure function of the input bytes.
void encode_grad_chunk(WireCodec codec, std::span<const float> data,
                       std::vector<std::byte>& out);
void encode_grad_chunk(WireCodec codec, std::span<const Half> data,
                       std::vector<std::byte>& out);

/// Decodes one encoded chunk into `out` (whose size fixes the element
/// count).  Packed restores the input bit-exactly; Int8 yields
/// q * scale (Half: rounded to nearest even).  Throws Error when the
/// encoded bytes do not match `out.size()` elements.
void decode_grad_chunk(WireCodec codec, std::span<const std::byte> in,
                       std::span<float> out);
void decode_grad_chunk(WireCodec codec, std::span<const std::byte> in,
                       std::span<Half> out);

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Books one coded payload into the per-codec ledger slot and mirrors
/// it into the global obs counters, updating the
/// "comm/compression_ratio" gauge (logical / wire of this payload).
void record_codec_traffic(TrafficLedger& ledger, CodecSlot slot,
                          std::uint64_t logical_bytes,
                          std::uint64_t wire_bytes);

}  // namespace zipflm
