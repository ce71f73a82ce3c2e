// Finite-difference verification of the hand-written LSTM BPTT.
#include <gtest/gtest.h>

#include "zipflm/nn/gradcheck.hpp"
#include "zipflm/nn/lstm.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {
namespace {

/// Scalar test loss: sum of squares of all outputs, whose gradient
/// w.r.t. output y is 2y.
double sum_sq(const std::vector<Tensor>& ys) {
  double acc = 0.0;
  for (const auto& y : ys) {
    for (float v : y.data()) acc += 0.5 * static_cast<double>(v) * v;
  }
  return acc;
}

std::vector<Tensor> loss_grads(const std::vector<Tensor>& ys) {
  std::vector<Tensor> d;
  d.reserve(ys.size());
  for (const auto& y : ys) {
    Tensor g = y;  // d(0.5 y^2)/dy = y
    d.push_back(std::move(g));
  }
  return d;
}

struct LstmCase {
  Index input_dim;
  Index hidden;
  Index proj;
  Index batch;
  Index steps;
};

class LstmGradCheck : public ::testing::TestWithParam<LstmCase> {};

INSTANTIATE_TEST_SUITE_P(Shapes, LstmGradCheck,
                         ::testing::Values(LstmCase{3, 4, 0, 2, 1},
                                           LstmCase{3, 4, 0, 2, 3},
                                           LstmCase{2, 5, 3, 2, 2},
                                           LstmCase{4, 3, 2, 3, 4},
                                           LstmCase{1, 2, 2, 1, 5}));

TEST_P(LstmGradCheck, ParameterAndInputGradientsMatchFiniteDifferences) {
  const auto c = GetParam();
  Rng rng(42);
  LstmLayer lstm(LstmConfig{c.input_dim, c.hidden, c.proj}, rng);

  std::vector<Tensor> xs;
  for (Index t = 0; t < c.steps; ++t) {
    xs.push_back(Tensor::randn({c.batch, c.input_dim}, rng, 0.5f));
  }

  auto loss_fn = [&] {
    std::vector<Tensor> ys;
    lstm.forward(xs, ys);
    return sum_sq(ys);
  };

  // Analytic gradients.
  std::vector<Tensor> ys;
  lstm.forward(xs, ys);
  lstm.zero_grad();
  std::vector<Tensor> dxs;
  lstm.backward(loss_grads(ys), dxs);

  for (Param* p : lstm.params()) {
    const auto result = grad_check(p->value, p->grad, loss_fn, 3e-3);
    EXPECT_TRUE(result.passed(4e-2))
        << p->name << " rel err " << result.max_rel_error << " at index "
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

TEST(Lstm, OutputShapesRespectProjection) {
  Rng rng(1);
  LstmLayer with_proj(LstmConfig{4, 8, 3}, rng);
  LstmLayer no_proj(LstmConfig{4, 8, 0}, rng);
  EXPECT_EQ(with_proj.output_dim(), 3);
  EXPECT_EQ(no_proj.output_dim(), 8);

  std::vector<Tensor> xs{Tensor::randn({2, 4}, rng)};
  std::vector<Tensor> ys;
  with_proj.forward(xs, ys);
  EXPECT_EQ(ys[0].rows(), 2);
  EXPECT_EQ(ys[0].cols(), 3);
  no_proj.forward(xs, ys);
  EXPECT_EQ(ys[0].cols(), 8);
}

TEST(Lstm, ForwardIsDeterministic) {
  Rng rng(7);
  LstmLayer a(LstmConfig{3, 5, 2}, rng);
  Rng rng2(7);
  LstmLayer b(LstmConfig{3, 5, 2}, rng2);

  Rng xr(9);
  std::vector<Tensor> xs{Tensor::randn({2, 3}, xr),
                         Tensor::randn({2, 3}, xr)};
  std::vector<Tensor> ya, yb;
  a.forward(xs, ya);
  b.forward(xs, yb);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    EXPECT_TRUE(ya[t] == yb[t]);
  }
}

TEST(Lstm, ForgetBiasInitializedToOne) {
  Rng rng(3);
  LstmLayer lstm(LstmConfig{2, 4, 0}, rng);
  // Bias layout is (i, f, g, o): entries [H, 2H) must be 1.
  const Param* bias = lstm.params()[2];
  ASSERT_EQ(bias->value.size(), 16);
  for (Index j = 4; j < 8; ++j) EXPECT_EQ(bias->value(j), 1.0f);
  for (Index j = 0; j < 4; ++j) EXPECT_EQ(bias->value(j), 0.0f);
}

TEST(Lstm, FlopsPerTokenScalesWithDimensions) {
  Rng rng(5);
  LstmLayer small(LstmConfig{64, 128, 0}, rng);
  LstmLayer big(LstmConfig{64, 256, 0}, rng);
  EXPECT_GT(big.flops_per_token(), small.flops_per_token());
}

TEST(Lstm, RejectsMismatchedBackward) {
  Rng rng(11);
  LstmLayer lstm(LstmConfig{2, 3, 0}, rng);
  std::vector<Tensor> xs{Tensor::randn({2, 2}, rng)};
  std::vector<Tensor> ys;
  lstm.forward(xs, ys);
  std::vector<Tensor> bad_douts;  // wrong step count
  std::vector<Tensor> dxs;
  EXPECT_THROW(lstm.backward(bad_douts, dxs), ConfigError);
}

TEST(Lstm, RejectsBackwardWithoutForward) {
  Rng rng(11);
  LstmLayer lstm(LstmConfig{2, 3, 0}, rng);
  std::vector<Tensor> douts;  // matches the empty cache in size
  std::vector<Tensor> dxs;
  EXPECT_THROW(lstm.backward(douts, dxs), ConfigError);
}

}  // namespace
}  // namespace zipflm
