// Serial reference of every collective, for tests: what each rank must
// hold after the collective, computed on one thread from all ranks'
// inputs, with no transport and no ring.  The engine's results are
// compared against it bitwise.
//
// The allreduces follow the ring fold: with n elements split into g
// chunks (the first n % g chunks one element longer), chunk c ends on
// every rank as
//
//     x[c-1] + (x[c-2] + (... + (x[c+1] + x[c])))      (ranks mod g)
//
// where `+` is the family's per-hop fold:
//   * FP32 sum: one float addition;
//   * FP16 sum: FP32 addition of the two binary16 operands, rounded back
//     to binary16 (NCCL half-precision semantics);
//   * max: std::max(mine, partial);
//   * a coded sum: the partial is replaced by decode(encode(partial))
//     before the hop (a no-op for the lossless Packed codec), and the
//     final chunk by decode(encode(final)).  At g = 1 there is no hop
//     and no coding.
// allgather(v) is concatenation by rank, alltoallv concatenation by
// source, broadcast a copy of the root's buffer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/tensor/half.hpp"

namespace zipflm::collective_reference {

template <typename T>
using PerRank = std::vector<std::vector<T>>;

/// [begin, end) of chunk c when n elements are split into g chunks.
inline std::pair<std::size_t, std::size_t> chunk(std::size_t n, int g,
                                                 int c) {
  const std::size_t q = n / static_cast<std::size_t>(g);
  const std::size_t rem = n % static_cast<std::size_t>(g);
  const auto cu = static_cast<std::size_t>(c);
  const std::size_t begin = cu * q + std::min(rem, cu);
  return {begin, begin + q + (cu < rem ? 1 : 0)};
}

/// The ring fold of `x` (one vector per rank, equal lengths) under the
/// per-element hop `fold(mine, partial)` and `codec`.
template <typename T, typename Fold>
std::vector<T> ring_fold(const PerRank<T>& x, Fold fold,
                         WireCodec codec = WireCodec::None) {
  const int g = static_cast<int>(x.size());
  const std::size_t n = x.front().size();
  if (g == 1) return x.front();
  // decode(encode(v)) of one chunk; the identity when uncoded.
  auto round_trip = [codec](std::vector<T>& v) {
    if (codec == WireCodec::None || v.empty()) return;
    std::vector<std::byte> enc;
    encode_grad_chunk(codec, std::span<const T>(v), enc);
    decode_grad_chunk(codec, std::span<const std::byte>(enc),
                      std::span<T>(v));
  };
  std::vector<T> out(n);
  for (int c = 0; c < g; ++c) {
    const auto [begin, end] = chunk(n, g, c);
    const auto& first = x[static_cast<std::size_t>(c)];
    std::vector<T> partial(first.begin() + static_cast<std::ptrdiff_t>(begin),
                           first.begin() + static_cast<std::ptrdiff_t>(end));
    for (int k = 1; k < g; ++k) {
      const auto& mine = x[static_cast<std::size_t>((c + k) % g)];
      round_trip(partial);
      for (std::size_t j = 0; j < partial.size(); ++j) {
        partial[j] = fold(mine[begin + j], partial[j]);
      }
    }
    round_trip(partial);
    std::copy(partial.begin(), partial.end(),
              out.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  return out;
}

inline std::vector<float> allreduce_sum(const PerRank<float>& x,
                                        WireCodec codec = WireCodec::None) {
  return ring_fold(x, [](float mine, float p) { return mine + p; }, codec);
}

inline std::vector<Half> allreduce_sum(const PerRank<Half>& x,
                                       WireCodec codec = WireCodec::None) {
  return ring_fold(
      x,
      [](Half mine, Half p) {
        return Half(static_cast<float>(mine) + static_cast<float>(p));
      },
      codec);
}

inline std::vector<float> allreduce_max(const PerRank<float>& x) {
  return ring_fold(x, [](float mine, float p) { return std::max(mine, p); });
}

/// allgather / allgatherv: every rank's block, concatenated by rank.
template <typename T>
std::vector<T> allgather(const PerRank<T>& x) {
  std::vector<T> out;
  for (const auto& block : x) out.insert(out.end(), block.begin(), block.end());
  return out;
}

/// alltoallv: what rank `r` receives when rank s sends
/// send[s] split by send_counts[s] (element counts per destination) —
/// the blocks addressed to r, concatenated by source.
template <typename T>
std::vector<T> alltoallv(const PerRank<T>& send,
                         const std::vector<std::vector<std::size_t>>& counts,
                         int r) {
  std::vector<T> out;
  for (std::size_t s = 0; s < send.size(); ++s) {
    std::size_t at = 0;
    for (int d = 0; d < r; ++d) at += counts[s][static_cast<std::size_t>(d)];
    const auto first = send[s].begin() + static_cast<std::ptrdiff_t>(at);
    out.insert(out.end(), first,
               first + static_cast<std::ptrdiff_t>(
                           counts[s][static_cast<std::size_t>(r)]));
  }
  return out;
}

}  // namespace zipflm::collective_reference
