#include "zipflm/nn/rhn.hpp"

#include <cmath>
#include <cstring>

#include "zipflm/obs/trace.hpp"
#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/ops.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {
float glorot(Index fan_in, Index fan_out) {
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}

/// Bytes of recurrent weights one sweep over `steps` timesteps reads:
/// both [H x H] matrices of every micro-layer, once per timestep.  The
/// forward and backward pass-1 spans carry it, so a trace shows the
/// bandwidth each sweep reached.
double recurrent_bytes(const RhnConfig& c, std::size_t steps) {
  const double h = static_cast<double>(c.hidden_dim);
  return static_cast<double>(steps) * static_cast<double>(c.depth) * 2.0 *
         h * h * sizeof(float);
}
}  // namespace

RhnLayer::RhnLayer(const RhnConfig& config, Rng& rng) : config_(config) {
  ZIPFLM_CHECK(config.input_dim > 0 && config.hidden_dim > 0,
               "RHN dimensions must be positive");
  ZIPFLM_CHECK(config.depth >= 1, "RHN depth must be at least 1");
  const Index d = config.input_dim;
  const Index h = config.hidden_dim;
  const float sx = glorot(d, h);
  const float sr = glorot(h, h);
  wh_ = Param("rhn.wh", Tensor::uniform({d, h}, rng, -sx, sx));
  wt_ = Param("rhn.wt", Tensor::uniform({d, h}, rng, -sx, sx));
  depth_.reserve(static_cast<std::size_t>(config.depth));
  for (Index l = 0; l < config.depth; ++l) {
    DepthParams dp;
    dp.rh = Param("rhn.rh." + std::to_string(l),
                  Tensor::uniform({h, h}, rng, -sr, sr));
    dp.rt = Param("rhn.rt." + std::to_string(l),
                  Tensor::uniform({h, h}, rng, -sr, sr));
    dp.bh = Param("rhn.bh." + std::to_string(l), Tensor({h}));
    dp.bt = Param("rhn.bt." + std::to_string(l), Tensor({h}));
    // Negative transform bias: start close to carry (standard RHN
    // initialization, keeps deep recurrences stable early in training).
    dp.bt.value.fill(-2.0f);
    depth_.push_back(std::move(dp));
  }
}

void RhnLayer::forward(const std::vector<Tensor>& xs,
                       std::vector<Tensor>& out, bool train) {
  ZIPFLM_CHECK(!xs.empty(), "RHN forward needs at least one step");
  obs::SpanScope span("nn.rhn.forward", "steps",
                      static_cast<double>(xs.size()), "weight_bytes",
                      recurrent_bytes(config_, xs.size()));
  const Index batch = xs.front().rows();
  const Index h = config_.hidden_dim;
  // A training forward streams every recurrent matrix from column
  // panels packed into the matrix's own gradient buffer, which holds
  // nothing until backward() overwrites it.  Each matrix is packed just
  // before its first use, so that first gemm reads the panels from
  // cache.  One timestep cannot amortize the pack.
  const bool panels = train && xs.size() > 1;

  cache_.clear();
  cache_.resize(xs.size());
  out.assign(xs.size(), Tensor());

  Tensor state({batch, h});  // s_0 for the first timestep: zeros
  Tensor pre_h({batch, h});
  Tensor pre_t({batch, h});

  for (std::size_t ti = 0; ti < xs.size(); ++ti) {
    const Tensor& x = xs[ti];
    ZIPFLM_CHECK(x.rows() == batch && x.cols() == config_.input_dim,
                 "RHN step input shape mismatch");
    StepCache& sc = cache_[ti];
    sc.x = x;
    sc.micro.resize(static_cast<std::size_t>(config_.depth));

    for (Index l = 0; l < config_.depth; ++l) {
      auto& dp = depth_[static_cast<std::size_t>(l)];
      auto& mc = sc.micro[static_cast<std::size_t>(l)];

      if (panels) {
        if (ti == 0) {
          pack_panels(dp.rh.value, dp.rh.grad);
          pack_panels(dp.rt.value, dp.rt.grad);
        }
        gemm_panels(state, dp.rh.grad, pre_h);
        gemm_panels(state, dp.rt.grad, pre_t);
      } else {
        gemm(state, false, dp.rh.value, false, pre_h, 1.0f, 0.0f);
        gemm(state, false, dp.rt.value, false, pre_t, 1.0f, 0.0f);
      }
      if (l == 0) {
        gemm(x, false, wh_.value, false, pre_h, 1.0f, 1.0f);
        gemm(x, false, wt_.value, false, pre_t, 1.0f, 1.0f);
      }
      add_bias_rows(pre_h, dp.bh.value);
      add_bias_rows(pre_t, dp.bt.value);

      mc.h = Tensor({batch, h});
      mc.t = Tensor({batch, h});
      mc.s = Tensor({batch, h});
      // The whole (batch, h) block is contiguous and the cell is purely
      // elementwise, so it runs as one fused vector span.
      const std::size_t cells =
          static_cast<std::size_t>(batch) * static_cast<std::size_t>(h);
      const float* ph = pre_h.data().data();
      const float* pt = pre_t.data().data();
      const float* sp = state.data().data();
      float* hv = mc.h.data().data();
      float* tv = mc.t.data().data();
      float* sv = mc.s.data().data();
      ThreadPool::global().parallel_chunks(
          cells, [&](std::size_t cb, std::size_t ce) {
            simd::rhn_cell(ph + cb, pt + cb, sp + cb, hv + cb, tv + cb,
                           sv + cb, ce - cb);
          });
      state = mc.s;
    }
    out[ti] = state;
  }
}

void RhnLayer::backward(const std::vector<Tensor>& dout,
                        std::vector<Tensor>& dxs) {
  ZIPFLM_CHECK(!cache_.empty(), "backward needs a cached forward");
  ZIPFLM_CHECK(dout.size() == cache_.size(),
               "backward step count must match the cached forward");
  const Index batch = cache_.front().x.rows();
  const Index h = config_.hidden_dim;
  const Index d_in = config_.input_dim;
  const std::size_t steps = cache_.size();
  const Index tb = static_cast<Index>(steps) * batch;

  dxs.assign(steps, Tensor());

  const auto nd = static_cast<std::size_t>(config_.depth);
  if (stage_.size() != nd || stage_.front().dzh.rows() != tb ||
      stage_.front().dzh.cols() != h || x_stack_.cols() != d_in) {
    stage_.assign(nd, BackwardStage{});
    for (auto& st : stage_) {
      st.dzh = Tensor({tb, h});
      st.dzt = Tensor({tb, h});
      st.s_prev = Tensor({tb, h});
    }
    x_stack_ = Tensor({tb, d_in});
    dx_stack_ = Tensor({tb, d_in});
  }

  Tensor ds_next({batch, h});  // recurrent gradient from timestep t+1
  Tensor dzh({batch, h});
  Tensor dzt({batch, h});
  const Tensor zero_s({batch, h});
  const std::size_t row_floats =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(h);
  const std::size_t x_floats =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(d_in);

  // Pass 1 — the recurrence: cell gradients per (timestep, depth), with
  // only the two dstate gemms (which feed the recursion) inline.  The
  // cell gradients and entry states are staged into per-depth stacks;
  // pass 2 turns each stack into one k = T·B weight-gradient gemm
  // instead of T separate rank-B updates, which divides the read-
  // modify-write traffic over the [H x H] gradient blocks by T.
  {
    obs::SpanScope bptt_span("nn.rhn.bptt_state", "steps",
                             static_cast<double>(steps), "weight_bytes",
                             recurrent_bytes(config_, steps));
    for (std::size_t ti = steps; ti-- > 0;) {
      const StepCache& sc = cache_[ti];
      Tensor ds = dout[ti];
      ZIPFLM_CHECK(ds.rows() == batch && ds.cols() == h,
                   "backward output-gradient shape mismatch");
      axpy(1.0f, ds_next, ds);

      for (Index l = config_.depth; l-- > 0;) {
        auto& dp = depth_[static_cast<std::size_t>(l)];
        const auto& mc = sc.micro[static_cast<std::size_t>(l)];
        // State entering this micro-layer.
        const Tensor& s_prev =
            l > 0 ? sc.micro[static_cast<std::size_t>(l - 1)].s
                  : (ti > 0 ? cache_[ti - 1].micro.back().s : zero_s);

        Tensor ds_prev({batch, h});
        const std::size_t cells =
            static_cast<std::size_t>(batch) * static_cast<std::size_t>(h);
        const float* hv = mc.h.data().data();
        const float* tv = mc.t.data().data();
        const float* sp = s_prev.data().data();
        const float* dsr = ds.data().data();
        float* dzhp = dzh.data().data();
        float* dztp = dzt.data().data();
        float* dspp = ds_prev.data().data();
        ThreadPool::global().parallel_chunks(
            cells, [&](std::size_t cb, std::size_t ce) {
              simd::rhn_cell_grad(hv + cb, tv + cb, sp + cb, dsr + cb,
                                  dzhp + cb, dztp + cb, dspp + cb, ce - cb);
            });

        BackwardStage& st = stage_[static_cast<std::size_t>(l)];
        const std::size_t off = ti * row_floats;
        std::memcpy(st.dzh.data().data() + off, dzhp,
                    row_floats * sizeof(float));
        std::memcpy(st.dzt.data().data() + off, dztp,
                    row_floats * sizeof(float));
        std::memcpy(st.s_prev.data().data() + off, sp,
                    row_floats * sizeof(float));

        gemm(dzh, false, dp.rh.value, true, ds_prev, 1.0f, 1.0f);
        gemm(dzt, false, dp.rt.value, true, ds_prev, 1.0f, 1.0f);

        if (l == 0) {
          std::memcpy(x_stack_.data().data() + ti * x_floats,
                      sc.x.data().data(), x_floats * sizeof(float));
        }
        ds = std::move(ds_prev);
      }
      ds_next = std::move(ds);
    }
  }

  // Pass 2 — weight gradients, finalized depth L-1 down to 0 and then
  // wt/wh: reverse-backprop order, so each depth's parameters can start
  // their bucketed allreduce while earlier depths are still computing.
  // The matrix gradients are written with beta = 0: this overwrites
  // the forward's panels, and zero_grad() need not clear them.  The
  // span covers the input gradients too; its FLOP count is all of it.
  const double hd = static_cast<double>(h);
  const double macs_per_row =
      2.0 * static_cast<double>(config_.depth) * hd * hd +
      4.0 * static_cast<double>(d_in) * hd;
  obs::SpanScope grads_span("nn.rhn.weight_grads", "steps",
                            static_cast<double>(steps), "flop",
                            2.0 * static_cast<double>(tb) * macs_per_row);
  const auto ready = [this](const Param& p) {
    if (param_ready_hook_) param_ready_hook_(p);
  };
  for (Index l = config_.depth; l-- > 0;) {
    auto& dp = depth_[static_cast<std::size_t>(l)];
    BackwardStage& st = stage_[static_cast<std::size_t>(l)];
    bias_grad(st.dzt, dp.bt.grad);
    ready(dp.bt);
    bias_grad(st.dzh, dp.bh.grad);
    ready(dp.bh);
    gemm(st.s_prev, true, st.dzt, false, dp.rt.grad, 1.0f, 0.0f);
    ready(dp.rt);
    gemm(st.s_prev, true, st.dzh, false, dp.rh.grad, 1.0f, 0.0f);
    ready(dp.rh);
  }
  BackwardStage& s0 = stage_.front();
  gemm(x_stack_, true, s0.dzt, false, wt_.grad, 1.0f, 0.0f);
  ready(wt_);
  gemm(x_stack_, true, s0.dzh, false, wh_.grad, 1.0f, 0.0f);
  ready(wh_);

  // Input gradients, batched over timesteps then split back out.
  dx_stack_.zero();
  gemm(s0.dzh, false, wh_.value, true, dx_stack_, 1.0f, 1.0f);
  gemm(s0.dzt, false, wt_.value, true, dx_stack_, 1.0f, 1.0f);
  for (std::size_t ti = 0; ti < steps; ++ti) {
    dxs[ti] = Tensor({batch, d_in});
    std::memcpy(dxs[ti].data().data(),
                dx_stack_.data().data() + ti * x_floats,
                x_floats * sizeof(float));
  }
}

void RhnLayer::step(const Tensor& x, Tensor& s) const {
  const Index batch = x.rows();
  const Index h = config_.hidden_dim;
  ZIPFLM_CHECK(x.cols() == config_.input_dim, "RHN step input shape mismatch");
  ZIPFLM_CHECK(s.rows() == batch && s.cols() == h,
               "RHN step state shape mismatch");

  // Same kernel sequence as one forward() timestep so carried state stays
  // bitwise equal to the windowed path.
  Tensor pre_h({batch, h});
  Tensor pre_t({batch, h});
  for (Index l = 0; l < config_.depth; ++l) {
    const auto& dp = depth_[static_cast<std::size_t>(l)];
    gemm(s, false, dp.rh.value, false, pre_h, 1.0f, 0.0f);
    gemm(s, false, dp.rt.value, false, pre_t, 1.0f, 0.0f);
    if (l == 0) {
      gemm(x, false, wh_.value, false, pre_h, 1.0f, 1.0f);
      gemm(x, false, wt_.value, false, pre_t, 1.0f, 1.0f);
    }
    add_bias_rows(pre_h, dp.bh.value);
    add_bias_rows(pre_t, dp.bt.value);

    // Same fused cell as forward(), applied to the carry in place.
    simd::rhn_cell_inplace(
        pre_h.data().data(), pre_t.data().data(), s.data().data(),
        static_cast<std::size_t>(batch) * static_cast<std::size_t>(h));
  }
}

std::vector<Param*> RhnLayer::params() {
  std::vector<Param*> ps{&wh_, &wt_};
  for (auto& dp : depth_) {
    ps.push_back(&dp.rh);
    ps.push_back(&dp.rt);
    ps.push_back(&dp.bh);
    ps.push_back(&dp.bt);
  }
  return ps;
}

void RhnLayer::zero_grad() {
  // backward() overwrites the matrix gradients; only the biases
  // accumulate.
  for (auto& dp : depth_) {
    dp.bh.zero_grad();
    dp.bt.zero_grad();
  }
}

double RhnLayer::flops_per_token() const noexcept {
  const double d = static_cast<double>(config_.input_dim);
  const double h = static_cast<double>(config_.hidden_dim);
  const double depth = static_cast<double>(config_.depth);
  const double fwd_macs = 2.0 * d * h + depth * 2.0 * h * h;
  return 2.0 * fwd_macs * 3.0;
}

}  // namespace zipflm
