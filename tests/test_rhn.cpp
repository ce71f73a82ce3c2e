// Finite-difference verification of the Recurrent Highway Network BPTT.
#include <gtest/gtest.h>

#include "zipflm/nn/gradcheck.hpp"
#include "zipflm/nn/optimizer.hpp"
#include "zipflm/nn/rhn.hpp"

namespace zipflm {
namespace {

double sum_sq(const std::vector<Tensor>& ys) {
  double acc = 0.0;
  for (const auto& y : ys) {
    for (float v : y.data()) acc += 0.5 * static_cast<double>(v) * v;
  }
  return acc;
}

std::vector<Tensor> loss_grads(const std::vector<Tensor>& ys) {
  std::vector<Tensor> d(ys.begin(), ys.end());
  return d;
}

struct RhnCase {
  Index input_dim;
  Index hidden;
  Index depth;
  Index batch;
  Index steps;
};

class RhnGradCheck : public ::testing::TestWithParam<RhnCase> {};

INSTANTIATE_TEST_SUITE_P(Shapes, RhnGradCheck,
                         ::testing::Values(RhnCase{3, 4, 1, 2, 2},
                                           RhnCase{2, 3, 2, 2, 2},
                                           RhnCase{2, 4, 3, 1, 3},
                                           RhnCase{4, 2, 4, 2, 2},
                                           RhnCase{3, 3, 2, 3, 4}));

TEST_P(RhnGradCheck, ParameterAndInputGradientsMatchFiniteDifferences) {
  const auto c = GetParam();
  Rng rng(17);
  RhnLayer rhn(RhnConfig{c.input_dim, c.hidden, c.depth}, rng);

  std::vector<Tensor> xs;
  for (Index t = 0; t < c.steps; ++t) {
    xs.push_back(Tensor::randn({c.batch, c.input_dim}, rng, 0.5f));
  }

  auto loss_fn = [&] {
    std::vector<Tensor> ys;
    rhn.forward(xs, ys);
    return sum_sq(ys);
  };

  std::vector<Tensor> ys;
  rhn.forward(xs, ys);
  rhn.zero_grad();
  std::vector<Tensor> dxs;
  rhn.backward(loss_grads(ys), dxs);

  for (Param* p : rhn.params()) {
    const auto result = grad_check(p->value, p->grad, loss_fn, 3e-3);
    EXPECT_TRUE(result.passed(4e-2))
        << p->name << " rel err " << result.max_rel_error << " at "
        << result.worst_index;
  }
  for (Index t = 0; t < c.steps; ++t) {
    const auto result = grad_check(xs[static_cast<std::size_t>(t)],
                                   dxs[static_cast<std::size_t>(t)], loss_fn,
                                   3e-3);
    EXPECT_TRUE(result.passed(4e-2))
        << "input step " << t << " rel err " << result.max_rel_error;
  }
}

// The training forward streams the recurrent matrices from panels
// packed into their gradient buffers; the row-major forward must give
// the same bits everywhere: outputs, every gradient (even though
// zero_grad() leaves the matrix gradients dirty), input gradients, and
// the weights after Adam, over several steps.  H = 70 spans four full
// 16-column panels plus a 6-column tail.
TEST(RhnPanels, TrainingForwardMatchesRowMajorBitwise) {
  const RhnConfig cfg{5, 70, 3};
  Rng init_a(23);
  Rng init_b(23);
  RhnLayer packed(cfg, init_a);
  RhnLayer reference(cfg, init_b);
  Adam::Config acfg;
  acfg.lr = 0.01f;
  Adam adam_packed(acfg);
  Adam adam_reference(acfg);
  Rng data(29);
  for (int step = 0; step < 3; ++step) {
    std::vector<Tensor> xs;
    for (int t = 0; t < 4; ++t) xs.push_back(Tensor::randn({3, 5}, data));

    packed.zero_grad();
    std::vector<Tensor> ys_packed;
    packed.forward(xs, ys_packed, /*train=*/true);
    for (Param* p : reference.params()) p->zero_grad();
    std::vector<Tensor> ys_reference;
    reference.forward(xs, ys_reference);
    ASSERT_EQ(ys_packed.size(), ys_reference.size());
    for (std::size_t t = 0; t < ys_packed.size(); ++t) {
      EXPECT_TRUE(ys_packed[t] == ys_reference[t]) << "step " << step;
    }
    EXPECT_EQ(sum_sq(ys_packed), sum_sq(ys_reference)) << "step " << step;

    std::vector<Tensor> dxs_packed;
    packed.backward(loss_grads(ys_packed), dxs_packed);
    std::vector<Tensor> dxs_reference;
    reference.backward(loss_grads(ys_reference), dxs_reference);
    for (std::size_t t = 0; t < dxs_packed.size(); ++t) {
      EXPECT_TRUE(dxs_packed[t] == dxs_reference[t]) << "step " << step;
    }
    const auto pp = packed.params();
    const auto pr = reference.params();
    for (std::size_t i = 0; i < pp.size(); ++i) {
      EXPECT_TRUE(pp[i]->grad == pr[i]->grad)
          << pp[i]->name << " gradient, step " << step;
    }

    adam_packed.begin_step();
    adam_packed.step(pp);
    adam_reference.begin_step();
    adam_reference.step(pr);
    for (std::size_t i = 0; i < pp.size(); ++i) {
      EXPECT_TRUE(pp[i]->value == pr[i]->value)
          << pp[i]->name << " weights, step " << step;
    }
  }
}

TEST(Rhn, DepthIncreasesParameterCount) {
  Rng rng(5);
  RhnLayer d1(RhnConfig{4, 8, 1}, rng);
  RhnLayer d10(RhnConfig{4, 8, 10}, rng);
  EXPECT_GT(d10.params().size(), d1.params().size());
  // 2 input mats + 4 per depth.
  EXPECT_EQ(d1.params().size(), 2u + 4u);
  EXPECT_EQ(d10.params().size(), 2u + 40u);
}

TEST(Rhn, CarryBiasStartsNegative) {
  Rng rng(5);
  RhnLayer rhn(RhnConfig{2, 3, 2}, rng);
  // Transform-gate biases (params index 5, 9 ... name rhn.bt.*) = -2.
  for (Param* p : rhn.params()) {
    if (p->name.find("rhn.bt") == 0) {
      for (float v : p->value.data()) EXPECT_EQ(v, -2.0f);
    }
  }
}

TEST(Rhn, OutputShapeIsHidden) {
  Rng rng(5);
  RhnLayer rhn(RhnConfig{3, 7, 2}, rng);
  std::vector<Tensor> xs{Tensor::randn({4, 3}, rng)};
  std::vector<Tensor> ys;
  rhn.forward(xs, ys);
  EXPECT_EQ(ys[0].rows(), 4);
  EXPECT_EQ(ys[0].cols(), 7);
}

TEST(Rhn, RejectsBackwardWithoutForward) {
  Rng rng(5);
  RhnLayer rhn(RhnConfig{3, 7, 2}, rng);
  std::vector<Tensor> douts;  // matches the empty cache in size
  std::vector<Tensor> dxs;
  EXPECT_THROW(rhn.backward(douts, dxs), ConfigError);
}

TEST(Rhn, FlopsGrowLinearlyWithDepth) {
  Rng rng(5);
  RhnLayer d2(RhnConfig{8, 16, 2}, rng);
  RhnLayer d4(RhnConfig{8, 16, 4}, rng);
  const double delta = d4.flops_per_token() - d2.flops_per_token();
  // Adding 2 depths adds exactly 2 * (2 H^2 MACs * 6) FLOPs.
  EXPECT_NEAR(delta, 2.0 * 2.0 * 16.0 * 16.0 * 6.0, 1e-6);
}

}  // namespace
}  // namespace zipflm
