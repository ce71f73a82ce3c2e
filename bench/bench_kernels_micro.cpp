// Microbenchmarks of the tensor kernels underlying the training stack:
// blocked GEMM (square, and the skinny recurrent-forward shape),
// softmax, the embedding gather/scatter, and the FP16 compression-
// scaling casts.  Real wall-clock via google-benchmark.
//
// Kernels with a SIMD fast path also register a /scalar twin that pins
// simd::Backend::kScalar for the timed region, so the vector speedup is
// a first-class column in the report (the two variants are bitwise
// identical by construction — see test_determinism).
#include <benchmark/benchmark.h>

#include "zipflm/core/exchange.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/ops.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {
namespace {

/// Pins the requested SIMD backend for one benchmark's timed loop.
class BackendScope {
 public:
  explicit BackendScope(simd::Backend b) : prev_(simd::active_backend()) {
    simd::set_backend(b);
  }
  ~BackendScope() { simd::set_backend(prev_); }

 private:
  simd::Backend prev_;
};

void BM_Gemm(benchmark::State& state, simd::Backend backend) {
  BackendScope scope(backend);
  const Index n = static_cast<Index>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(a, false, b, false, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Gemm, simd, simd::Backend::kNative)
    ->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Gemm, scalar, simd::Backend::kScalar)
    ->Arg(256)->Unit(benchmark::kMillisecond);

void BM_GemmTransposed(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(a, false, b, true, c);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_GemmTransposed)->Arg(256)->Unit(benchmark::kMillisecond);

/// The RHN training forward's gemm: a batch-8 state times a 1792 x 1792
/// recurrent matrix, cycling through 20 distinct matrices (257 MB, more
/// than an L3) the way one timestep of the seed CharLm does, so B streams
/// from DRAM.  Four ways: the row-major gemm, gemm_panels over
/// panel-packed copies, the pack_panels copy itself (which also writes
/// as many bytes as it reads), and the backward's transposed-B d-state
/// gemm (C += A * B^T, as in pass 1 of RhnLayer::backward).  The
/// counter is bytes of B read.
enum class Skinny { kRowMajor, kPanels, kPack, kTransposed };

void BM_GemmSkinny(benchmark::State& state, Skinny mode) {
  constexpr Index kRows = 8;
  constexpr Index kHidden = 1792;
  constexpr std::size_t kMatrices = 20;
  Rng rng(7);
  const Tensor a = Tensor::randn({kRows, kHidden}, rng);
  const Tensor b0 = Tensor::randn({kHidden, kHidden}, rng);
  std::vector<Tensor> bs;
  std::vector<Tensor> panels;
  for (std::size_t i = 0; i < kMatrices; ++i) {
    if (mode != Skinny::kPanels) bs.push_back(b0);
    if (mode != Skinny::kRowMajor) {
      panels.emplace_back(Tensor({kHidden, kHidden}));
      pack_panels(b0, panels.back());
    }
  }
  Tensor c({kRows, kHidden});
  for (auto _ : state) {
    for (std::size_t i = 0; i < kMatrices; ++i) {
      switch (mode) {
        case Skinny::kRowMajor:
          gemm(a, false, bs[i], false, c);
          break;
        case Skinny::kPanels:
          gemm_panels(a, panels[i], c);
          break;
        case Skinny::kPack:
          pack_panels(bs[i], panels[i]);
          break;
        case Skinny::kTransposed:
          gemm(a, false, bs[i], true, c, 1.0f, 1.0f);
          break;
      }
    }
    benchmark::DoNotOptimize(c.data().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * kMatrices * b0.bytes()));
}
BENCHMARK_CAPTURE(BM_GemmSkinny, gemm, Skinny::kRowMajor)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmSkinny, gemm_panels, Skinny::kPanels)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmSkinny, pack_panels, Skinny::kPack)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmSkinny, gemm_tb, Skinny::kTransposed)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SoftmaxRows(benchmark::State& state, simd::Backend backend) {
  BackendScope scope(backend);
  const Index rows = 256;
  const Index cols = static_cast<Index>(state.range(0));
  Rng rng(3);
  const Tensor logits = Tensor::randn({rows, cols}, rng, 3.0f);
  Tensor probs({rows, cols});
  for (auto _ : state) {
    softmax_rows(logits, probs);
    benchmark::DoNotOptimize(probs.data().data());
  }
}
BENCHMARK_CAPTURE(BM_SoftmaxRows, simd, simd::Backend::kNative)
    ->Arg(98)->Arg(1024)->Arg(15437)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SoftmaxRows, scalar, simd::Backend::kScalar)
    ->Arg(98)->Arg(1024)->Arg(15437)->Unit(benchmark::kMicrosecond);

void BM_GatherScatter(benchmark::State& state) {
  const Index vocab = 100'000;
  const Index d = 512;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Tensor table = Tensor::randn({vocab, d}, rng, 0.1f);
  std::vector<Index> ids(k);
  for (auto& id : ids) {
    id = static_cast<Index>(rng.uniform_index(static_cast<std::uint64_t>(vocab)));
  }
  Tensor rows({static_cast<Index>(k), d});
  for (auto _ : state) {
    gather_rows(table, ids, rows);
    scatter_add_rows(rows, ids, table);
    benchmark::DoNotOptimize(table.data().data());
  }
}
BENCHMARK(BM_GatherScatter)->Arg(640)->Arg(19200)
    ->Unit(benchmark::kMicrosecond);

void BM_Fp16RoundTrip(benchmark::State& state, simd::Backend backend) {
  BackendScope scope(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<float> values(n);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<Half> wire;
  std::vector<float> back;
  for (auto _ : state) {
    compress_fp16(values, 1024.0f, wire);
    decompress_fp16(wire, 1024.0f, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * n * sizeof(float)));
}
BENCHMARK_CAPTURE(BM_Fp16RoundTrip, simd, simd::Backend::kNative)
    ->Arg(1 << 16)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Fp16RoundTrip, scalar, simd::Backend::kScalar)
    ->Arg(1 << 16)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_LocalReduce(benchmark::State& state, simd::Backend backend) {
  BackendScope scope(backend);
  // The exchange's local reduction: K token-gradient rows collapse onto
  // their unique word ids.  Zipf-flavored duplication (low ids hot) is
  // what the paper's Section III exploits, so sample ids that way.
  const Index tokens = static_cast<Index>(state.range(0));
  const Index vocab = 1000;
  const Index dim = 512;
  Rng rng(6);
  const Tensor delta = Tensor::randn({tokens, dim}, rng, 0.1f);
  std::vector<Index> ids(static_cast<std::size_t>(tokens));
  for (auto& id : ids) {
    const double u = rng.uniform(0.0, 1.0);
    id = static_cast<Index>(
        std::min<double>(vocab - 1, std::pow(static_cast<double>(vocab), u)) );
  }
  std::vector<Index> unique_ids;
  Tensor reduced;
  for (auto _ : state) {
    local_reduce_by_word(ids, delta, unique_ids, reduced);
    benchmark::DoNotOptimize(reduced.data().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::size_t>(tokens) *
      static_cast<std::size_t>(dim) * sizeof(float)));
}
BENCHMARK_CAPTURE(BM_LocalReduce, simd, simd::Backend::kNative)
    ->Arg(640)->Arg(19200)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LocalReduce, scalar, simd::Backend::kScalar)
    ->Arg(640)->Arg(19200)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace zipflm

BENCHMARK_MAIN();
