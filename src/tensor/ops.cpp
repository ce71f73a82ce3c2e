#include "zipflm/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {
// Task block sizes: the unit of work handed to the thread pool.  Each
// output element belongs to exactly one block, so the accumulation
// order per element is fixed regardless of the worker count.
constexpr Index kBlockM = 32;
constexpr Index kBlockN = 64;

// B is consumed in (kBlockK x kBlockN) tiles copied into contiguous
// per-thread scratch before the inner loops run.  The original layout
// strides ldb floats between consecutive k rows (7 KiB for a 1792-wide
// weight matrix) — past the hardware prefetchers' page limit, so every
// k step of the unpacked kernel ate a cache/TLB miss.  Packing is a
// pure copy: values and accumulation order are untouched.  64 x 64
// keeps the whole tile (16 KiB) resident in L1 across every row pass,
// where the previous 256 x 128 tile (128 KiB) was re-streamed from L2
// once per row tile.
constexpr Index kBlockK = 64;

// How far (in floats: 8 KiB) the panel kernel prefetches down its B
// stream.  The hardware prefetchers alone left the batch-8 recurrent
// forward at about half the host's read bandwidth; 4-8 KiB ahead
// brought it to three quarters.
constexpr Index kStreamAhead = 2048;

// Elementwise sweeps hand the pool chunks of whole elements; any chunk
// boundary gives the same bits, so only dispatch overhead matters.
constexpr std::size_t kElementGrain = 1 << 14;

struct GemmDims {
  Index m, n, k;
};

GemmDims validate_gemm(const Tensor& a, bool trans_a, const Tensor& b,
                       bool trans_b, const Tensor& c) {
  ZIPFLM_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
               "gemm requires matrices");
  const Index m = trans_a ? a.cols() : a.rows();
  const Index ka = trans_a ? a.rows() : a.cols();
  const Index kb = trans_b ? b.cols() : b.rows();
  const Index n = trans_b ? b.rows() : b.cols();
  ZIPFLM_CHECK(ka == kb, "gemm inner dimensions must agree");
  ZIPFLM_CHECK(c.rows() == m && c.cols() == n,
               "gemm output shape must be m x n");
  return {m, n, ka};
}

// ---------------------------------------------------------------------------
// Non-transposed-B panels: C[i, j..] accumulates alpha * op(A)(i, k) *
// B[k, j..] in ascending k order, vectorized across the j (column)
// dimension.  Each lane is a distinct output element performing the
// exact mul-then-add sequence the original scalar kernel performed, so
// results are bitwise identical to the scalar tile at any register
// width — the PR-1 batch-invariance contract rides on this.
// ---------------------------------------------------------------------------

/// RT fixed output rows x CP register-widths of columns.  A1 marks the
/// ubiquitous alpha == 1 case: multiplying by 1.0f is a bitwise no-op,
/// so skipping it keeps results identical while shedding a scalar
/// multiply per (row, k) step of the inner loop.  TA lifts the operand
/// layout choice to compile time so the inner loop carries no branch.
///
/// load_c == false starts the accumulators at +0.0f instead of loading
/// C: exactly the value a cleared C would load, so a beta == 0 gemm
/// writes C without zeroing it and reading the zeros back.  SA marks B
/// as one contiguous stream (a packed panel) to prefetch ahead of.
template <class V, Index RT, Index CP, bool A1, bool TA, bool SA = false>
inline void gemm_tile_nt(const float* a, Index lda, const float* b, Index ldb,
                         float* c, Index ldc, float alpha, Index i, Index j,
                         Index k, bool load_c) {
  using R = typename V::Reg;
  constexpr Index W = static_cast<Index>(V::kWidth);
  R acc[RT][CP];
  // The pragmas unroll the tile loops fully, so that -O2 builds too
  // keep the accumulators in registers.
#pragma GCC unroll 8
  for (Index r = 0; r < RT; ++r) {
#pragma GCC unroll 2
    for (Index p = 0; p < CP; ++p) {
      acc[r][p] = load_c ? V::load(c + (i + r) * ldc + j + p * W) : V::zero();
    }
  }
  for (Index kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb + j;
    if constexpr (SA) {
      // Integer arithmetic: the hinted address may lie past B's end,
      // where a pointer may not be formed.
      __builtin_prefetch(reinterpret_cast<const void*>(
          reinterpret_cast<std::uintptr_t>(brow) +
          static_cast<std::uintptr_t>(kStreamAhead) * sizeof(float)));
    }
#pragma GCC unroll 8
    for (Index r = 0; r < RT; ++r) {
      float av = TA ? a[kk * lda + i + r] : a[(i + r) * lda + kk];
      if constexpr (!A1) av *= alpha;
      const R bc = V::set1(av);
#pragma GCC unroll 2
      for (Index p = 0; p < CP; ++p) {
        acc[r][p] = V::add(acc[r][p], V::mul(bc, V::load(brow + p * W)));
      }
    }
  }
#pragma GCC unroll 8
  for (Index r = 0; r < RT; ++r) {
#pragma GCC unroll 2
    for (Index p = 0; p < CP; ++p) {
      V::store(c + (i + r) * ldc + j + p * W, acc[r][p]);
    }
  }
}

template <class V, Index RT, bool A1, bool TA, bool SA = false>
inline void gemm_rows_nt(const float* a, Index lda, const float* b, Index ldb,
                         float* c, Index ldc, float alpha, Index i, Index j0,
                         Index j1, Index k, bool load_c) {
  constexpr Index W = static_cast<Index>(V::kWidth);
  Index j = j0;
  for (; j + 2 * W <= j1; j += 2 * W) {
    gemm_tile_nt<V, RT, 2, A1, TA, SA>(a, lda, b, ldb, c, ldc, alpha, i, j,
                                       k, load_c);
  }
  for (; j + W <= j1; j += W) {
    gemm_tile_nt<V, RT, 1, A1, TA, SA>(a, lda, b, ldb, c, ldc, alpha, i, j,
                                       k, load_c);
  }
  for (; j < j1; ++j) {
    gemm_tile_nt<simd::ScalarOps, RT, 1, A1, TA, SA>(a, lda, b, ldb, c, ldc,
                                                     alpha, i, j, k, load_c);
  }
}

/// Rows [i0, i1) of C's columns [0, tw) (from c_off) against a
/// contiguous B tile: kc rows of width tw.  The main row tile covers 8
/// rows so every B element loaded feeds 8 outputs; 8 is also the exact
/// row count of the recurrent forward gemms.
template <class V, bool A1, bool TA, bool SA = false>
void gemm_chunk_nt(const float* a_off, Index lda, const float* tile, Index tw,
                   float* c_off, Index ldc, float alpha, Index i0, Index i1,
                   Index kc, bool load_c) {
  Index i = i0;
  for (; i + 8 <= i1; i += 8) {
    gemm_rows_nt<V, 8, A1, TA, SA>(a_off, lda, tile, tw, c_off, ldc, alpha, i,
                                   0, tw, kc, load_c);
  }
  for (; i + 4 <= i1; i += 4) {
    gemm_rows_nt<V, 4, A1, TA, SA>(a_off, lda, tile, tw, c_off, ldc, alpha, i,
                                   0, tw, kc, load_c);
  }
  for (; i < i1; ++i) {
    gemm_rows_nt<V, 1, A1, TA, SA>(a_off, lda, tile, tw, c_off, ldc, alpha, i,
                                   0, tw, kc, load_c);
  }
}

/// One (rows x columns) output block, with B consumed through packed
/// k-chunks.  Accumulators spill to C at chunk boundaries — an exact
/// store/reload — so the per-element sum is still one ascending-k
/// sequence, bitwise identical to the unchunked kernel.  `fresh` (beta
/// == 0) starts the first chunk's accumulators at zero instead of
/// loading C.
template <class V, bool A1, bool TA>
void gemm_block_nt(const float* a, Index lda, const float* b, Index ldb,
                   float* c, Index ldc, float alpha, Index i0, Index i1,
                   Index j0, Index j1, Index k, bool fresh) {
  const Index tw = j1 - j0;
  thread_local std::vector<float> pack;
  pack.resize(static_cast<std::size_t>(kBlockK) * static_cast<std::size_t>(tw));
  float* tile = pack.data();
  for (Index k0 = 0; k0 < k; k0 += kBlockK) {
    const Index kc = std::min(kBlockK, k - k0);
    for (Index kk = 0; kk < kc; ++kk) {
      std::memcpy(tile + kk * tw, b + (k0 + kk) * ldb + j0,
                  static_cast<std::size_t>(tw) * sizeof(float));
    }
    const float* a_off = TA ? a + k0 * lda : a + k0;
    gemm_chunk_nt<V, A1, TA>(a_off, lda, tile, tw, c + j0, ldc, alpha, i0, i1,
                             kc, !fresh || k0 > 0);
  }
}

/// The same block read from a panel-packed B (see pack_panels).  Each
/// panel is one contiguous [k x w] stream, so a row tile runs the whole
/// k range against it with the accumulators held in registers — the
/// chunked kernel's spills are exact store/reloads, so the bits match —
/// and prefetches kStreamAhead floats down the stream.
template <class V>
void gemm_block_panel(const float* a, Index lda, const float* panels,
                      float* c, Index ldc, Index i0, Index i1, Index j0,
                      Index j1, Index k) {
  for (Index jp = j0; jp < j1; jp += kPanelWidth) {
    const Index w = std::min(kPanelWidth, j1 - jp);
    gemm_chunk_nt<V, true, false, true>(a, lda, panels + jp * k, w, c + jp,
                                        ldc, 1.0f, i0, i1, k,
                                        /*load_c=*/false);
  }
}

// ---------------------------------------------------------------------------
// Transposed-B panels: element (i, j) is a dot product of two
// contiguous rows, accumulated with the fixed 8-lane interleave of
// simd::dot_span — the k order per element is a property of the
// element, not of tiling or ISA, so any backend produces the same bits.
// The block is walked in register tiles of up to 8 A rows x 4 B rows.
// Per 8-element k-block a tile loads each of its B and A vectors once
// and feeds them to 32 independent accumulator chains, so the loop is
// bound by loads instead of waiting on add latency, and a B quad comes
// from memory once for all 8 A rows (m is 8 in the RHN backward's
// d-state gemms).  The next quad is prefetched while this one streams.
// A transpose-packing variant measured slower: the pack cost cannot
// amortize over so few rows.
// ---------------------------------------------------------------------------

/// IR A rows x JT B rows: c[r * ldc + t] += alpha * dot(a row r, b row
/// t).  Each (r, t) pair has its own Acc8 and performs the exact lane
/// sequence dot_span performs for that pair — same 8-lane interleave,
/// same tail fold, same combine tree — so the bits do not depend on
/// the tile shape.
template <class V, Index IR, Index JT>
inline void gemm_dots_blk(const float* a, Index lda, const float* b,
                          Index ldb, float* c, Index ldc, float alpha,
                          std::size_t k) {
  const auto sa = static_cast<std::size_t>(lda);
  const auto sb = static_cast<std::size_t>(ldb);
  simd::Acc8<V> acc[IR][JT];
  for (Index r = 0; r < IR; ++r) {
    for (Index t = 0; t < JT; ++t) acc[r][t].fill(0.0f);
  }
  const std::size_t k8 = k & ~(simd::kAccLanes - 1);
  // The pragmas unroll the tile loops fully, so that -O2 builds too
  // keep the accumulators in registers.
  for (std::size_t kk = 0; kk < k8; kk += simd::kAccLanes) {
    // The next tile's B rows, by integer arithmetic: past the last
    // quad they lie beyond B's end, where a pointer may not be formed.
#pragma GCC unroll 8
    for (Index t = 0; t < JT; ++t) {
      __builtin_prefetch(reinterpret_cast<const void*>(
          reinterpret_cast<std::uintptr_t>(b) +
          ((static_cast<std::size_t>(JT + t) * sb + kk) * sizeof(float))));
    }
#pragma GCC unroll 8
    for (std::size_t p = 0; p < simd::Acc8<V>::kPacks; ++p) {
      const std::size_t off = kk + p * V::kWidth;
      typename V::Reg bv[JT];
#pragma GCC unroll 8
      for (Index t = 0; t < JT; ++t) {
        bv[t] = V::load(b + static_cast<std::size_t>(t) * sb + off);
      }
#pragma GCC unroll 8
      for (Index r = 0; r < IR; ++r) {
        const typename V::Reg av =
            V::load(a + static_cast<std::size_t>(r) * sa + off);
#pragma GCC unroll 8
        for (Index t = 0; t < JT; ++t) {
          acc[r][t].acc[p] = V::add(acc[r][t].acc[p], V::mul(av, bv[t]));
        }
      }
    }
  }
  for (Index r = 0; r < IR; ++r) {
    const float* arow = a + static_cast<std::size_t>(r) * sa;
    for (Index t = 0; t < JT; ++t) {
      const float* brow = b + static_cast<std::size_t>(t) * sb;
      float lanes[simd::kAccLanes];
      acc[r][t].store(lanes);
      for (std::size_t j = 0; j < k - k8; ++j) {
        lanes[j] += arow[k8 + j] * brow[k8 + j];
      }
      c[r * ldc + t] += alpha * simd::combine_sum8(lanes);
    }
  }
}

template <class V>
void gemm_panel_tb(const float* a, Index lda, const float* b, Index ldb,
                   float* c, Index ldc, float alpha, Index i0, Index i1,
                   Index j0, Index j1, Index k) {
  constexpr Index kQuad = 4;
  const auto kn = static_cast<std::size_t>(k);
  Index j = j0;
  for (; j + kQuad <= j1; j += kQuad) {
    const float* bq = b + j * ldb;
    Index i = i0;
    for (; i + 8 <= i1; i += 8) {
      gemm_dots_blk<V, 8, kQuad>(a + i * lda, lda, bq, ldb, c + i * ldc + j,
                                 ldc, alpha, kn);
    }
    if (i + 4 <= i1) {
      gemm_dots_blk<V, 4, kQuad>(a + i * lda, lda, bq, ldb, c + i * ldc + j,
                                 ldc, alpha, kn);
      i += 4;
    }
    for (; i < i1; ++i) {
      gemm_dots_blk<V, 1, kQuad>(a + i * lda, lda, bq, ldb, c + i * ldc + j,
                                 ldc, alpha, kn);
    }
  }
  for (; j < j1; ++j) {
    const float* brow = b + j * ldb;
    for (Index i = i0; i < i1; ++i) {
      c[i * ldc + j] += alpha * simd::dot_span<V>(a + i * lda, brow, kn);
    }
  }
}

/// Rare shape (both operands transposed): no caller uses it today, so a
/// plain scalar loop with ascending-k accumulation is enough.
void gemm_panel_generic(const Tensor& a, bool trans_a, const Tensor& b,
                        bool trans_b, Tensor& c, float alpha, Index i0,
                        Index i1, Index j0, Index j1, Index k) {
  for (Index i = i0; i < i1; ++i) {
    for (Index j = j0; j < j1; ++j) {
      float acc = c(i, j);
      for (Index kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a(kk, i) : a(i, kk);
        const float bv = trans_b ? b(j, kk) : b(kk, j);
        acc += alpha * av * bv;
      }
      c(i, j) = acc;
    }
  }
}

}  // namespace

void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha, float beta) {
  const auto [m, n, k] = validate_gemm(a, trans_a, b, trans_b, c);
  ZIPFLM_ASSERT(&a != &c && &b != &c, "gemm output must not alias inputs");

  const bool empty = m == 0 || n == 0 || k == 0 || alpha == 0.0f;
  // The non-transposed-B kernels start beta == 0 accumulators at +0.0f
  // in registers, so C is written once instead of cleared and re-read.
  const bool fresh = beta == 0.0f && !trans_b && !empty;
  if (beta == 0.0f) {
    if (!fresh) c.zero();
  } else if (beta != 1.0f) {
    scale(c, beta);
  }
  if (empty) return;

  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* cp = c.data().data();
  const Index lda = a.cols();
  const Index ldb = b.cols();
  const Index ldc = c.cols();
  const bool native = simd::active_backend() == simd::Backend::kNative;

  // Parallelize over row x column blocks: each output element is written
  // by exactly one task, so accumulation order per element is fixed
  // regardless of the worker count.
  const Index row_blocks = (m + kBlockM - 1) / kBlockM;
  const Index col_blocks = (n + kBlockN - 1) / kBlockN;
  ThreadPool::global().parallel_for(
      static_cast<std::size_t>(row_blocks * col_blocks),
      [&, m, n, k](std::size_t t) {
        const Index i0 = static_cast<Index>(t) / col_blocks * kBlockM;
        const Index i1 = std::min(m, i0 + kBlockM);
        const Index j0 = static_cast<Index>(t) % col_blocks * kBlockN;
        const Index j1 = std::min(n, j0 + kBlockN);
        if (!trans_b) {
          const auto block_nt = [&](auto v, auto a1, auto ta) {
            gemm_block_nt<typename decltype(v)::type, decltype(a1)::value,
                          decltype(ta)::value>(ap, lda, bp, ldb, cp, ldc,
                                               alpha, i0, i1, j0, j1, k,
                                               fresh);
          };
          const auto with_flags = [&](auto v) {
            if (alpha == 1.0f) {
              if (trans_a) {
                block_nt(v, std::true_type{}, std::true_type{});
              } else {
                block_nt(v, std::true_type{}, std::false_type{});
              }
            } else if (trans_a) {
              block_nt(v, std::false_type{}, std::true_type{});
            } else {
              block_nt(v, std::false_type{}, std::false_type{});
            }
          };
          if (native) {
            with_flags(std::type_identity<simd::NativeOps>{});
          } else {
            with_flags(std::type_identity<simd::ScalarOps>{});
          }
        } else if (!trans_a) {
          if (native) {
            gemm_panel_tb<simd::NativeOps>(ap, lda, bp, ldb, cp, ldc, alpha,
                                           i0, i1, j0, j1, k);
          } else {
            gemm_panel_tb<simd::ScalarOps>(ap, lda, bp, ldb, cp, ldc, alpha,
                                           i0, i1, j0, j1, k);
          }
        } else {
          gemm_panel_generic(a, trans_a, b, trans_b, c, alpha, i0, i1, j0, j1,
                             k);
        }
      },
      /*grain=*/1);
}

void pack_panels(const Tensor& b, Tensor& panels) {
  ZIPFLM_CHECK(b.rank() == 2 && panels.rank() == 2 &&
                   panels.rows() == b.rows() && panels.cols() == b.cols(),
               "pack_panels needs a destination of B's shape");
  ZIPFLM_ASSERT(&b != &panels, "pack_panels output must not alias B");
  const Index k = b.rows();
  const Index n = b.cols();
  const float* src = b.data().data();
  float* dst = panels.data().data();
  // One task per (kBlockK rows x kPackCols columns) tile: it reads
  // kPackCols / kPanelWidth lines per source row and appends one line
  // to each of that many panels, few enough streams on both sides for
  // the hardware prefetchers to follow.  The source rows, 7 KiB apart
  // in a 1792-wide matrix, are prefetched kPackAhead rows ahead.
  constexpr Index kPackCols = 16 * kPanelWidth;
  constexpr Index kPackAhead = 8;
  const Index col_tiles = (n + kPackCols - 1) / kPackCols;
  const Index row_tiles = (k + kBlockK - 1) / kBlockK;
  ThreadPool::global().parallel_for(
      static_cast<std::size_t>(row_tiles * col_tiles),
      [&, k, n](std::size_t t) {
        const Index c0 = static_cast<Index>(t) % col_tiles * kPackCols;
        const Index c1 = std::min(n, c0 + kPackCols);
        const Index r0 = static_cast<Index>(t) / col_tiles * kBlockK;
        const Index r1 = std::min(k, r0 + kBlockK);
        for (Index r = r0; r < r1; ++r) {
          if (r + kPackAhead < k) {
            const float* ahead = src + (r + kPackAhead) * n;
            for (Index j0 = c0; j0 < c1; j0 += kPanelWidth) {
              __builtin_prefetch(ahead + j0);
            }
          }
          for (Index j0 = c0; j0 < c1; j0 += kPanelWidth) {
            const Index w = std::min(kPanelWidth, n - j0);
            float* out = dst + j0 * k + r * w;
            const float* in = src + r * n + j0;
            // A constant-size copy inlines to a couple of vector moves.
            if (w == kPanelWidth) {
              std::memcpy(out, in, kPanelWidth * sizeof(float));
            } else {
              std::memcpy(out, in,
                          static_cast<std::size_t>(w) * sizeof(float));
            }
          }
        }
      },
      /*grain=*/1);
}

void gemm_panels(const Tensor& a, const Tensor& panels, Tensor& c) {
  const auto [m, n, k] = validate_gemm(a, false, panels, false, c);
  ZIPFLM_ASSERT(&a != &c && &panels != &c,
                "gemm_panels output must not alias inputs");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    c.zero();
    return;
  }
  const float* ap = a.data().data();
  const float* bp = panels.data().data();
  float* cp = c.data().data();
  const Index lda = a.cols();
  const Index ldc = c.cols();
  const bool native = simd::active_backend() == simd::Backend::kNative;
  // gemm's task grid: a column block spans kBlockN / kPanelWidth panels.
  const Index row_blocks = (m + kBlockM - 1) / kBlockM;
  const Index col_blocks = (n + kBlockN - 1) / kBlockN;
  ThreadPool::global().parallel_for(
      static_cast<std::size_t>(row_blocks * col_blocks),
      [&, m, n, k](std::size_t t) {
        const Index i0 = static_cast<Index>(t) / col_blocks * kBlockM;
        const Index i1 = std::min(m, i0 + kBlockM);
        const Index j0 = static_cast<Index>(t) % col_blocks * kBlockN;
        const Index j1 = std::min(n, j0 + kBlockN);
        if (native) {
          gemm_block_panel<simd::NativeOps>(ap, lda, bp, cp, ldc, i0, i1, j0,
                                            j1, k);
        } else {
          gemm_block_panel<simd::ScalarOps>(ap, lda, bp, cp, ldc, i0, i1, j0,
                                            j1, k);
        }
      },
      /*grain=*/1);
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  ZIPFLM_CHECK(x.size() == y.size(), "axpy requires equal sizes");
  const float* xs = x.data().data();
  float* ys = y.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) {
        simd::axpy(alpha, xs + b, ys + b, e - b);
      },
      kElementGrain);
}

void scale(Tensor& x, float alpha) {
  float* xs = x.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) { simd::scale(xs + b, alpha, e - b); },
      kElementGrain);
}

namespace {
template <typename F>
void elementwise_spans(const Tensor& x, Tensor& y, F f) {
  ZIPFLM_CHECK(x.size() == y.size(), "elementwise requires equal sizes");
  const float* xs = x.data().data();
  float* ys = y.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) { f(xs + b, ys + b, e - b); },
      kElementGrain);
}
}  // namespace

void sigmoid(const Tensor& x, Tensor& y) {
  elementwise_spans(x, y, [](const float* xs, float* ys, std::size_t n) {
    simd::sigmoid(xs, ys, n);
  });
}

void tanh_op(const Tensor& x, Tensor& y) {
  elementwise_spans(x, y, [](const float* xs, float* ys, std::size_t n) {
    simd::tanh_op(xs, ys, n);
  });
}

void relu(const Tensor& x, Tensor& y) {
  elementwise_spans(x, y, [](const float* xs, float* ys, std::size_t n) {
    simd::relu(xs, ys, n);
  });
}

void sigmoid_grad_from_output(const Tensor& y, Tensor& dy) {
  elementwise_spans(y, dy, [](const float* ys, float* ds, std::size_t n) {
    simd::sigmoid_grad(ys, ds, n);
  });
}

void tanh_grad_from_output(const Tensor& y, Tensor& dy) {
  elementwise_spans(y, dy, [](const float* ys, float* ds, std::size_t n) {
    simd::tanh_grad(ys, ds, n);
  });
}

void hadamard(const Tensor& x, const Tensor& y, Tensor& z) {
  ZIPFLM_CHECK(x.size() == y.size() && x.size() == z.size(),
               "hadamard requires equal sizes");
  const float* xs = x.data().data();
  const float* ys = y.data().data();
  float* zs = z.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) {
        simd::hadamard(xs + b, ys + b, zs + b, e - b);
      },
      kElementGrain);
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  ZIPFLM_CHECK(logits.rank() == 2 && logits.shape() == probs.shape(),
               "softmax_rows requires matching matrices");
  const Index cols = logits.cols();
  const float* in = logits.data().data();
  float* out = probs.data().data();
  // One row is one unit of work: the max/denominator reductions use the
  // fixed 8-lane layout, so a row's bits do not depend on which thread
  // (or ISA) computes it.
  ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(logits.rows()),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          const float* x = in + i * static_cast<std::size_t>(cols);
          float* y = out + i * static_cast<std::size_t>(cols);
          const std::size_t n = static_cast<std::size_t>(cols);
          const float mx =
              simd::reduce_max(x, n, -std::numeric_limits<float>::infinity());
          const float denom = simd::exp_sub_sum(x, y, mx, n);
          simd::scale(y, 1.0f / denom, n);
        }
      },
      /*grain=*/1);
}

void log_softmax_rows(const Tensor& logits, Tensor& log_probs) {
  ZIPFLM_CHECK(logits.rank() == 2 && logits.shape() == log_probs.shape(),
               "log_softmax_rows requires matching matrices");
  const Index cols = logits.cols();
  const float* in = logits.data().data();
  float* out = log_probs.data().data();
  ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(logits.rows()),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          const float* x = in + i * static_cast<std::size_t>(cols);
          float* y = out + i * static_cast<std::size_t>(cols);
          const std::size_t n = static_cast<std::size_t>(cols);
          const float mx =
              simd::reduce_max(x, n, -std::numeric_limits<float>::infinity());
          // exp(x - mx) lands in the output row as scratch; the second
          // pass overwrites it with x - lse.
          const float denom = simd::exp_sub_sum(x, y, mx, n);
          const float lse = mx + std::log(denom);
          simd::sub_const(x, y, lse, n);
        }
      },
      /*grain=*/1);
}

float sum(const Tensor& x) {
  // Deliberately double precision and serial: used by statistics and
  // tests, not hot paths.
  double acc = 0.0;
  for (float v : x.data()) acc += v;
  return static_cast<float>(acc);
}

float max_abs(const Tensor& x) {
  return simd::max_abs(x.data().data(), x.data().size());
}

float l2_norm(const Tensor& x) {
  double acc = 0.0;
  for (float v : x.data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

void gather_rows(const Tensor& table, std::span<const Index> ids, Tensor& out) {
  ZIPFLM_CHECK(table.rank() == 2 && out.rank() == 2, "gather_rows on matrices");
  ZIPFLM_CHECK(out.rows() == static_cast<Index>(ids.size()) &&
                   out.cols() == table.cols(),
               "gather_rows output shape mismatch");
  const std::size_t width = static_cast<std::size_t>(table.cols());
  const float* src = table.data().data();
  float* dst = out.data().data();
  const Index vocab = table.rows();
  ThreadPool::global().parallel_chunks(
      ids.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          ZIPFLM_ASSERT(ids[i] >= 0 && ids[i] < vocab,
                        "gather id out of vocabulary range");
          std::copy_n(src + static_cast<std::size_t>(ids[i]) * width, width,
                      dst + i * width);
        }
      },
      /*grain=*/16);
}

void scatter_add_rows(const Tensor& grad, std::span<const Index> ids,
                      Tensor& table) {
  ZIPFLM_CHECK(grad.rank() == 2 && table.rank() == 2,
               "scatter_add_rows on matrices");
  ZIPFLM_CHECK(grad.rows() == static_cast<Index>(ids.size()) &&
                   grad.cols() == table.cols(),
               "scatter_add_rows gradient shape mismatch");
  // Serial on purpose: ids may repeat, so rows of `table` are not
  // disjoint across tokens and the ascending token order is the
  // documented accumulation contract.
  const std::size_t width = static_cast<std::size_t>(grad.cols());
  const float* src = grad.data().data();
  float* dst = table.data().data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ZIPFLM_ASSERT(ids[i] >= 0 && ids[i] < table.rows(),
                  "scatter id out of vocabulary range");
    simd::add_inplace(dst + static_cast<std::size_t>(ids[i]) * width,
                      src + i * width, width);
  }
}

void add_bias_rows(Tensor& y, const Tensor& bias) {
  ZIPFLM_CHECK(y.rank() == 2 && bias.size() == y.cols(),
               "bias length must equal column count");
  const float* b = bias.data().data();
  const std::size_t width = static_cast<std::size_t>(y.cols());
  float* ys = y.data().data();
  ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(y.rows()),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          simd::add_inplace(ys + i * width, b, width);
        }
      },
      /*grain=*/8);
}

void bias_grad(const Tensor& dy, Tensor& db) {
  ZIPFLM_CHECK(dy.rank() == 2 && db.size() == dy.cols(),
               "bias grad length must equal column count");
  // Chunk the *columns*: every element of db accumulates its column in
  // ascending row order no matter how many workers run.
  float* b = db.data().data();
  const float* src = dy.data().data();
  const std::size_t width = static_cast<std::size_t>(dy.cols());
  const std::size_t rows = static_cast<std::size_t>(dy.rows());
  ThreadPool::global().parallel_chunks(
      width,
      [&](std::size_t cb, std::size_t ce) {
        for (std::size_t i = 0; i < rows; ++i) {
          simd::add_inplace(b + cb, src + i * width + cb, ce - cb);
        }
      },
      /*grain=*/512);
}

void clip(Tensor& x, float limit) {
  ZIPFLM_CHECK(limit > 0.0f, "clip limit must be positive");
  float* xs = x.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) { simd::clip(xs + b, limit, e - b); },
      kElementGrain);
}

}  // namespace zipflm
