// Recurrent Highway Network layer (Zilly et al.), the paper's char-LM
// architecture (Section IV-B): one RHN layer of recurrence depth L with
// H cells, coupled carry gate (c = 1 - t).
//
// Per timestep, with s_0 = y_{t-1}:
//   for l = 1..L:
//     h_l = tanh(x W_h [l==1] + s_{l-1} R_h^l + b_h^l)
//     t_l = sigm(x W_t [l==1] + s_{l-1} R_t^l + b_t^l)
//     s_l = h_l ⊙ t_l + s_{l-1} ⊙ (1 - t_l)
//   y_t = s_L
#pragma once

#include <functional>
#include <vector>

#include "zipflm/nn/param.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm {

struct RhnConfig {
  Index input_dim = 0;
  Index hidden_dim = 0;
  Index depth = 1;  ///< highway micro-layers per timestep (paper: 10)
};

class RhnLayer {
 public:
  RhnLayer(const RhnConfig& config, Rng& rng);

  /// xs: T inputs [B x input_dim]; out: T outputs [B x hidden_dim].
  /// Caches what backward() needs.  A `train` forward over T >= 2 steps
  /// borrows the recurrent matrices' gradient buffers as storage for
  /// their panel-packed copies (see pack_panels), so between it and
  /// backward() those gradients hold no gradient.  The outputs are
  /// bitwise the same either way.
  void forward(const std::vector<Tensor>& xs, std::vector<Tensor>& out,
               bool train = false);

  /// dout -> parameter grads + dxs.  Must follow a matching forward().
  /// Overwrites the weight-matrix gradients and adds into the bias
  /// gradients.
  void backward(const std::vector<Tensor>& dout, std::vector<Tensor>& dxs);

  /// Incremental inference: advance B independent streams one timestep.
  /// x: [B x input_dim]; s: [B x hidden_dim] highway state, updated in
  /// place.  Starting from zero s and stepping T times is bitwise
  /// identical to forward() over the same inputs.  No caches, no grads.
  void step(const Tensor& x, Tensor& s) const;

  std::vector<Param*> params();
  /// Clears the gradients backward() adds into (the biases); backward()
  /// overwrites the rest.
  void zero_grad();

  /// Invoked (training thread) as each parameter's gradient finalizes
  /// during backward(): depth L-1 down to 0, rt/rh/bt/bh per depth,
  /// then wt/wh last — reverse-backprop order, the overlap trigger for
  /// bucketed gradient exchange.  Empty = no calls.
  void set_param_ready_hook(std::function<void(const Param&)> hook) {
    param_ready_hook_ = std::move(hook);
  }

  Index output_dim() const noexcept { return config_.hidden_dim; }
  const RhnConfig& config() const noexcept { return config_; }

  double flops_per_token() const noexcept;

 private:
  RhnConfig config_;
  Param wh_;  ///< [input_dim x H], first micro-layer only
  Param wt_;  ///< [input_dim x H]
  struct DepthParams {
    Param rh;  ///< [H x H]
    Param rt;  ///< [H x H]
    Param bh;  ///< [H]
    Param bt;  ///< [H]
  };
  std::vector<DepthParams> depth_;

  struct MicroCache {
    Tensor h;  ///< [B x H]
    Tensor t;  ///< [B x H]
    Tensor s;  ///< [B x H] state after this micro-layer
  };
  struct StepCache {
    Tensor x;
    std::vector<MicroCache> micro;
  };
  std::vector<StepCache> cache_;

  std::function<void(const Param&)> param_ready_hook_;

  /// Backward staging: per-depth [T·B x H] stacks of the cell gradients
  /// and entry states, so every weight gradient is ONE k = T·B gemm
  /// instead of T rank-B updates (8x less C traffic on the seed model).
  struct BackwardStage {
    Tensor dzh;     ///< [T·B x H]
    Tensor dzt;     ///< [T·B x H]
    Tensor s_prev;  ///< [T·B x H]
  };
  std::vector<BackwardStage> stage_;  ///< one per depth
  Tensor x_stack_;                    ///< [T·B x input_dim]
  Tensor dx_stack_;                   ///< [T·B x input_dim]
};

}  // namespace zipflm
