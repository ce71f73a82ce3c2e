#include "zipflm/nn/lstm.hpp"

#include <cmath>

#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/ops.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {
/// Xavier/Glorot uniform bound for a [fan_in x fan_out] matrix.
float glorot(Index fan_in, Index fan_out) {
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}
}  // namespace

LstmLayer::LstmLayer(const LstmConfig& config, Rng& rng) : config_(config) {
  ZIPFLM_CHECK(config.input_dim > 0 && config.hidden_dim > 0,
               "LSTM dimensions must be positive");
  const Index h = config.hidden_dim;
  const Index p = output_dim();
  const float sx = glorot(config.input_dim, 4 * h);
  const float sh = glorot(p, 4 * h);
  wx_ = Param("lstm.wx",
              Tensor::uniform({config.input_dim, 4 * h}, rng, -sx, sx));
  wh_ = Param("lstm.wh", Tensor::uniform({p, 4 * h}, rng, -sh, sh));
  bias_ = Param("lstm.b", Tensor({4 * h}));
  // Forget-gate bias of 1.0: standard recipe for trainable LSTMs.
  for (Index j = h; j < 2 * h; ++j) bias_.value(j) = 1.0f;
  if (config.proj_dim > 0) {
    const float sp = glorot(h, config.proj_dim);
    wp_ = Param("lstm.wp",
                Tensor::uniform({h, config.proj_dim}, rng, -sp, sp));
  }
}

void LstmLayer::forward(const std::vector<Tensor>& xs,
                        std::vector<Tensor>& out) {
  ZIPFLM_CHECK(!xs.empty(), "LSTM forward needs at least one step");
  const Index batch = xs.front().rows();
  const Index h = config_.hidden_dim;
  const Index p = output_dim();

  cache_.clear();
  cache_.resize(xs.size());
  out.assign(xs.size(), Tensor());

  Tensor prev_r({batch, p});
  Tensor prev_c({batch, h});
  Tensor pre({batch, 4 * h});

  for (std::size_t t = 0; t < xs.size(); ++t) {
    const Tensor& x = xs[t];
    ZIPFLM_CHECK(x.rows() == batch && x.cols() == config_.input_dim,
                 "LSTM step input shape mismatch");
    StepCache& sc = cache_[t];
    sc.x = x;

    // Fused pre-activation: pre = x Wx + r_{t-1} Wh + b.
    gemm(x, false, wx_.value, false, pre, 1.0f, 0.0f);
    gemm(prev_r, false, wh_.value, false, pre, 1.0f, 1.0f);
    add_bias_rows(pre, bias_.value);

    // Gate nonlinearities: the (i, f) and o gate blocks are contiguous
    // per row, so each row is three vector spans — sigmoid on (i, f),
    // tanh on g, sigmoid on o.
    sc.gates = Tensor({batch, 4 * h});
    const std::size_t hn = static_cast<std::size_t>(h);
    {
      const float* zin = pre.data().data();
      float* zout = sc.gates.data().data();
      ThreadPool::global().parallel_chunks(
          static_cast<std::size_t>(batch),
          [&](std::size_t bb, std::size_t be) {
            for (std::size_t b = bb; b < be; ++b) {
              const float* zi = zin + b * 4 * hn;
              float* zo = zout + b * 4 * hn;
              simd::sigmoid(zi, zo, 2 * hn);
              simd::tanh_op(zi + 2 * hn, zo + 2 * hn, hn);
              simd::sigmoid(zi + 3 * hn, zo + 3 * hn, hn);
            }
          },
          /*grain=*/1);
    }

    // c_t = f ⊙ c_{t-1} + i ⊙ g;  h_t = o ⊙ tanh(c_t).
    sc.c = Tensor({batch, h});
    sc.tanh_c = Tensor({batch, h});
    sc.h = Tensor({batch, h});
    {
      const float* g4 = sc.gates.data().data();
      const float* cp = prev_c.data().data();
      float* c = sc.c.data().data();
      float* tc = sc.tanh_c.data().data();
      float* hh = sc.h.data().data();
      ThreadPool::global().parallel_chunks(
          static_cast<std::size_t>(batch),
          [&](std::size_t bb, std::size_t be) {
            for (std::size_t b = bb; b < be; ++b) {
              const float* g = g4 + b * 4 * hn;
              simd::lstm_cell(g, g + hn, g + 2 * hn, g + 3 * hn, cp + b * hn,
                              c + b * hn, tc + b * hn, hh + b * hn, hn);
            }
          },
          /*grain=*/1);
    }

    if (config_.proj_dim > 0) {
      sc.r = Tensor({batch, p});
      gemm(sc.h, false, wp_.value, false, sc.r, 1.0f, 0.0f);
    } else {
      sc.r = sc.h;
    }
    out[t] = sc.r;
    prev_r = sc.r;
    prev_c = sc.c;
  }
}

void LstmLayer::backward(const std::vector<Tensor>& dout,
                         std::vector<Tensor>& dxs) {
  ZIPFLM_CHECK(!cache_.empty(), "backward needs a cached forward");
  ZIPFLM_CHECK(dout.size() == cache_.size(),
               "backward step count must match the cached forward");
  const Index batch = cache_.front().x.rows();
  const Index h = config_.hidden_dim;
  const Index p = output_dim();

  dxs.assign(cache_.size(), Tensor());

  Tensor dr_next({batch, p});  // recurrent gradient flowing from t+1
  Tensor dc_next({batch, h});
  Tensor dh({batch, h});
  Tensor dz({batch, 4 * h});
  const Tensor zero_c({batch, h});  // state before t = 0
  const Tensor zero_r({batch, p});

  for (std::size_t ti = cache_.size(); ti-- > 0;) {
    const StepCache& sc = cache_[ti];

    // Total gradient reaching r_t: output path + recurrence from t+1.
    Tensor dr = dout[ti];
    ZIPFLM_CHECK(dr.rows() == batch && dr.cols() == p,
                 "backward output-gradient shape mismatch");
    axpy(1.0f, dr_next, dr);

    if (config_.proj_dim > 0) {
      gemm(sc.h, true, dr, false, wp_.grad, 1.0f, 1.0f);
      gemm(dr, false, wp_.value, true, dh, 1.0f, 0.0f);
    } else {
      dh = dr;
    }

    // Through h_t = o ⊙ tanh(c_t) and c_t = f ⊙ c_{t-1} + i ⊙ g.
    const Tensor& prev_c_val = ti > 0 ? cache_[ti - 1].c : zero_c;
    {
      const std::size_t hn = static_cast<std::size_t>(h);
      const float* g4 = sc.gates.data().data();
      const float* tc = sc.tanh_c.data().data();
      const float* cp = prev_c_val.data().data();
      const float* dhp = dh.data().data();
      float* dcn = dc_next.data().data();
      float* dzp = dz.data().data();
      ThreadPool::global().parallel_chunks(
          static_cast<std::size_t>(batch),
          [&](std::size_t bb, std::size_t be) {
            for (std::size_t b = bb; b < be; ++b) {
              const float* g = g4 + b * 4 * hn;
              float* dzr = dzp + b * 4 * hn;
              simd::lstm_cell_grad(g, g + hn, g + 2 * hn, g + 3 * hn,
                                   tc + b * hn, cp + b * hn, dhp + b * hn,
                                   dcn + b * hn, dzr, dzr + hn, dzr + 2 * hn,
                                   dzr + 3 * hn, hn);
            }
          },
          /*grain=*/1);
    }

    // Parameter gradients and input gradients.
    gemm(sc.x, true, dz, false, wx_.grad, 1.0f, 1.0f);
    const Tensor& prev_r_val = ti > 0 ? cache_[ti - 1].r : zero_r;
    gemm(prev_r_val, true, dz, false, wh_.grad, 1.0f, 1.0f);
    bias_grad(dz, bias_.grad);

    dxs[ti] = Tensor({batch, config_.input_dim});
    gemm(dz, false, wx_.value, true, dxs[ti], 1.0f, 0.0f);
    gemm(dz, false, wh_.value, true, dr_next, 1.0f, 0.0f);
  }
}

void LstmLayer::step(const Tensor& x, Tensor& c, Tensor& r) const {
  const Index batch = x.rows();
  const Index h = config_.hidden_dim;
  const Index p = output_dim();
  ZIPFLM_CHECK(x.cols() == config_.input_dim, "LSTM step input shape mismatch");
  ZIPFLM_CHECK(c.rows() == batch && c.cols() == h,
               "LSTM step cell-state shape mismatch");
  ZIPFLM_CHECK(r.rows() == batch && r.cols() == p,
               "LSTM step output-state shape mismatch");

  // Same kernel sequence as one forward() timestep so carried state stays
  // bitwise equal to the windowed path.
  Tensor pre({batch, 4 * h});
  gemm(x, false, wx_.value, false, pre, 1.0f, 0.0f);
  gemm(r, false, wh_.value, false, pre, 1.0f, 1.0f);
  add_bias_rows(pre, bias_.value);

  Tensor gates({batch, 4 * h});
  const std::size_t hn = static_cast<std::size_t>(h);
  {
    const float* zin = pre.data().data();
    float* zout = gates.data().data();
    for (Index b = 0; b < batch; ++b) {
      const float* zi = zin + static_cast<std::size_t>(b) * 4 * hn;
      float* zo = zout + static_cast<std::size_t>(b) * 4 * hn;
      simd::sigmoid(zi, zo, 2 * hn);
      simd::tanh_op(zi + 2 * hn, zo + 2 * hn, hn);
      simd::sigmoid(zi + 3 * hn, zo + 3 * hn, hn);
    }
  }

  Tensor hidden({batch, h});
  Tensor tanh_c({batch, h});  // scratch: the cell kernel caches tanh(c)
  {
    const float* g4 = gates.data().data();
    float* cr = c.data().data();  // read old cell, write new cell in place
    float* tc = tanh_c.data().data();
    float* hh = hidden.data().data();
    for (Index bi = 0; bi < batch; ++bi) {
      const std::size_t b = static_cast<std::size_t>(bi);
      const float* g = g4 + b * 4 * hn;
      simd::lstm_cell(g, g + hn, g + 2 * hn, g + 3 * hn, cr + b * hn,
                      cr + b * hn, tc + b * hn, hh + b * hn, hn);
    }
  }

  if (config_.proj_dim > 0) {
    gemm(hidden, false, wp_.value, false, r, 1.0f, 0.0f);
  } else {
    r = hidden;
  }
}

std::vector<Param*> LstmLayer::params() {
  std::vector<Param*> ps{&wx_, &wh_, &bias_};
  if (config_.proj_dim > 0) ps.push_back(&wp_);
  return ps;
}

void LstmLayer::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

double LstmLayer::flops_per_token() const noexcept {
  const double h = static_cast<double>(config_.hidden_dim);
  const double d = static_cast<double>(config_.input_dim);
  const double p = static_cast<double>(output_dim());
  // Forward MACs per token: x·Wx + r·Wh + projection.
  double fwd = d * 4.0 * h + p * 4.0 * h;
  if (config_.proj_dim > 0) fwd += h * p;
  // 2 FLOPs per MAC; backward ≈ 2x forward.
  return 2.0 * fwd * 3.0;
}

}  // namespace zipflm
