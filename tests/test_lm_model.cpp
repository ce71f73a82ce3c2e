// Unit tests for the composed LM models (WordLm / CharLm): the
// train-step contract the distributed trainer depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "zipflm/data/markov.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/nn/optimizer.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {
namespace {

Batch make_batch(const std::vector<Index>& ids, Index batch_size,
                 Index seq_len) {
  BatchIterator it(ids, BatchSpec{batch_size, seq_len}, 0, 1);
  Batch b;
  EXPECT_TRUE(it.next(b));
  return b;
}

WordLm make_word_lm(Index vocab = 40) {
  WordLmConfig cfg;
  cfg.vocab = vocab;
  cfg.embed_dim = 6;
  cfg.hidden_dim = 10;
  cfg.proj_dim = 6;
  cfg.seed = 5;
  return WordLm(cfg);
}

CharLm make_char_lm(Index vocab = 30) {
  CharLmConfig cfg;
  cfg.vocab = vocab;
  cfg.embed_dim = 6;
  cfg.hidden_dim = 8;
  cfg.depth = 2;
  cfg.seed = 5;
  return CharLm(cfg);
}

std::vector<Index> all_ids(Index vocab) {
  std::vector<Index> ids(static_cast<std::size_t>(vocab));
  for (Index i = 0; i < vocab; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

TEST(WordLmModel, StepResultShapesMatchContract) {
  auto model = make_word_lm();
  const BigramCorpus corpus(40, 6, 1);
  const auto data = corpus.generate(500, 0);
  const Batch batch = make_batch(data, 3, 7);

  LmStepResult res;
  model.train_step_local(batch, all_ids(40), res);

  EXPECT_GT(res.loss, 0.0f);
  EXPECT_EQ(res.input_ids, batch.inputs);
  EXPECT_EQ(res.input_delta.rows(), 21);  // K = 3 * 7
  EXPECT_EQ(res.input_delta.cols(), model.embed_dim());
  EXPECT_EQ(res.output_grad.ids.size(), 40u);
  EXPECT_EQ(res.output_grad.rows.rows(), 40);
}

TEST(WordLmModel, SampledLossEqualsFullWhenCandidatesAreVocab) {
  auto model = make_word_lm();
  const BigramCorpus corpus(40, 6, 2);
  const auto data = corpus.generate(500, 0);
  const Batch batch = make_batch(data, 2, 8);

  LmStepResult res;
  model.train_step_local(batch, all_ids(40), res);
  const float full = model.eval_loss(batch);
  EXPECT_NEAR(res.loss, full, 1e-4f);
}

TEST(WordLmModel, SingleRankSgdStepReducesTrainingLoss) {
  auto model = make_word_lm();
  const BigramCorpus corpus(40, 6, 3);
  const auto data = corpus.generate(2000, 0);
  const Batch batch = make_batch(data, 4, 10);
  const auto candidates = all_ids(40);

  Sgd sgd(0.5f);
  LmStepResult res;
  model.train_step_local(batch, candidates, res);
  const float first = res.loss;
  for (int step = 0; step < 30; ++step) {
    model.zero_grad();
    model.train_step_local(batch, candidates, res);
    // Single-rank update path: dense params + both sparse tables.
    auto dense = model.dense_params();
    sgd.step(dense);
    std::vector<Index> uids;
    Tensor ureduced;
    local_reduce_by_word(res.input_ids, res.input_delta, uids, ureduced);
    sgd.step_rows(model.input_embedding_param(), ureduced, uids);
    sgd.step_rows(*model.sampled_output_param(), res.output_grad.rows,
                  res.output_grad.ids);
  }
  model.zero_grad();
  model.train_step_local(batch, candidates, res);
  EXPECT_LT(res.loss, first * 0.8f)
      << "30 SGD steps on one batch must overfit it";
}

TEST(CharLmModel, StepResultHasNoSparseOutputGrad) {
  auto model = make_char_lm();
  const BigramCorpus corpus(30, 5, 4);
  const auto data = corpus.generate(500, 0);
  const Batch batch = make_batch(data, 3, 6);

  LmStepResult res;
  model.train_step_local(batch, {}, res);
  EXPECT_TRUE(res.output_grad.ids.empty());
  EXPECT_EQ(model.sampled_output_param(), nullptr);
  EXPECT_EQ(res.input_delta.rows(), 18);
}

TEST(CharLmModel, DenseParamsIncludeOutputEmbedding) {
  auto model = make_char_lm();
  // RHN (2 + 4*depth) + softmax embedding + bias.
  const auto dense = model.dense_params();
  EXPECT_EQ(dense.size(), 2u + 4u * 2u + 2u);
  // all_params additionally holds the input embedding.
  EXPECT_EQ(model.all_params().size(), dense.size() + 1);
}

TEST(CharLmModel, AdamStepsReduceTrainingLoss) {
  auto model = make_char_lm();
  const BigramCorpus corpus(30, 5, 6);
  const auto data = corpus.generate(2000, 0);
  const Batch batch = make_batch(data, 4, 8);

  Adam::Config cfg;
  cfg.lr = 0.01f;
  Adam adam(cfg);
  LmStepResult res;
  model.train_step_local(batch, {}, res);
  const float first = res.loss;
  for (int step = 0; step < 80; ++step) {
    model.zero_grad();
    model.train_step_local(batch, {}, res);
    adam.begin_step();
    auto dense = model.dense_params();
    adam.step(dense);
    std::vector<Index> uids;
    Tensor ureduced;
    local_reduce_by_word(res.input_ids, res.input_delta, uids, ureduced);
    adam.step_rows(model.input_embedding_param(), ureduced, uids);
  }
  model.zero_grad();
  model.train_step_local(batch, {}, res);
  EXPECT_LT(res.loss, first * 0.9f);
}

// Wide enough (H = 70 > one 16-column panel) that the CharLm training
// forward packs its recurrent matrices into their gradient buffers.
CharLm make_packing_char_lm() {
  CharLmConfig cfg;
  cfg.vocab = 30;
  cfg.embed_dim = 6;
  cfg.hidden_dim = 70;
  cfg.depth = 2;
  cfg.seed = 9;
  return CharLm(cfg);
}

/// Runs `steps` Adam steps on `model`, clearing gradients with
/// zero_grad() or, for the reference, by zeroing every gradient buffer;
/// returns the losses.  The dense gradients after each step are
/// appended to `grads`.
template <class Model>
std::vector<float> adam_steps(Model& model, const Batch& batch,
                              std::span<const Index> candidates,
                              bool clear_everything, int steps,
                              std::vector<Tensor>& grads) {
  Adam::Config cfg;
  cfg.lr = 0.01f;
  Adam adam(cfg);
  std::vector<float> losses;
  LmStepResult res;
  for (int step = 0; step < steps; ++step) {
    if (clear_everything) {
      for (Param* p : model.all_params()) p->zero_grad();
    } else {
      model.zero_grad();
    }
    model.train_step_local(batch, candidates, res);
    losses.push_back(res.loss);
    for (Param* p : model.dense_params()) grads.push_back(p->grad);
    adam.begin_step();
    auto dense = model.dense_params();
    adam.step(dense);
    std::vector<Index> uids;
    Tensor ureduced;
    local_reduce_by_word(res.input_ids, res.input_delta, uids, ureduced);
    adam.step_rows(model.input_embedding_param(), ureduced, uids);
    if (Param* out = model.sampled_output_param(); out != nullptr) {
      adam.step_rows(*out, res.output_grad.rows, res.output_grad.ids);
    }
  }
  return losses;
}

template <class Model>
void expect_zero_grad_matches_full_clear(Model a, Model b,
                                         const Batch& batch,
                                         std::span<const Index> candidates) {
  std::vector<Tensor> grads_a;
  std::vector<Tensor> grads_b;
  const auto losses_a = adam_steps(a, batch, candidates, false, 3, grads_a);
  const auto losses_b = adam_steps(b, batch, candidates, true, 3, grads_b);
  EXPECT_EQ(losses_a, losses_b);
  ASSERT_EQ(grads_a.size(), grads_b.size());
  for (std::size_t i = 0; i < grads_a.size(); ++i) {
    EXPECT_TRUE(grads_a[i] == grads_b[i]) << "dense gradient " << i;
  }
  const auto pa = a.all_params();
  const auto pb = b.all_params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value == pb[i]->value) << pa[i]->name;
  }
}

TEST(CharLmModel, PackedTrainingStepsMatchFullyClearedSteps) {
  const BigramCorpus corpus(30, 5, 11);
  const auto data = corpus.generate(1000, 0);
  const Batch batch = make_batch(data, 3, 6);
  expect_zero_grad_matches_full_clear(make_packing_char_lm(),
                                      make_packing_char_lm(), batch, {});
}

TEST(WordLmModel, ZeroGradOfDenseParamsMatchesFullClear) {
  const BigramCorpus corpus(40, 6, 12);
  const auto data = corpus.generate(1000, 0);
  const Batch batch = make_batch(data, 3, 6);
  const auto candidates = all_ids(40);
  expect_zero_grad_matches_full_clear(make_word_lm(), make_word_lm(), batch,
                                      candidates);
}

TEST(CharLmModel, InferenceIsUnchangedAfterATrainingForward) {
  auto trained = make_packing_char_lm();
  auto fresh = make_packing_char_lm();
  const BigramCorpus corpus(30, 5, 13);
  const auto data = corpus.generate(1000, 0);
  const Batch batch = make_batch(data, 3, 6);
  LmStepResult res;
  trained.zero_grad();
  trained.train_step_local(batch, {}, res);  // packs; no optimizer step

  EXPECT_EQ(trained.eval_loss(batch), fresh.eval_loss(batch));
  const std::vector<Index> context = {1, 4, 2, 7};
  EXPECT_TRUE(trained.next_token_logits(context) ==
              fresh.next_token_logits(context));
  RecurrentState st_trained = trained.initial_state(2);
  RecurrentState st_fresh = fresh.initial_state(2);
  Tensor logits_trained;
  Tensor logits_fresh;
  for (Index t = 0; t < 3; ++t) {
    const std::vector<Index> tokens = {t, t + 5};
    trained.step(tokens, st_trained, logits_trained);
    fresh.step(tokens, st_fresh, logits_fresh);
    EXPECT_TRUE(logits_trained == logits_fresh) << "step " << t;
    EXPECT_TRUE(st_trained.slots.front() == st_fresh.slots.front());
  }
}

TEST(LmModel, IdenticalSeedsGiveIdenticalModels) {
  auto a = make_word_lm();
  auto b = make_word_lm();
  const auto pa = a.all_params();
  const auto pb = b.all_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value == pb[i]->value) << pa[i]->name;
  }
}

TEST(LmModel, StaticBytesAndActivationEstimatesArePositive) {
  auto w = make_word_lm();
  auto c = make_char_lm();
  EXPECT_GT(w.static_bytes(), 0u);
  EXPECT_GT(c.static_bytes(), 0u);
  EXPECT_GT(w.activation_bytes_per_token(), 0u);
  EXPECT_GT(c.activation_bytes_per_token(), 0u);
  EXPECT_GT(w.flops_per_token(), 0.0);
  EXPECT_GT(c.flops_per_token(), 0.0);
}

TEST(LmModel, EvalLossNearLogVocabAtInit) {
  auto model = make_char_lm(30);
  const BigramCorpus corpus(30, 5, 8);
  const auto data = corpus.generate(600, 0);
  const Batch batch = make_batch(data, 4, 8);
  const float loss = model.eval_loss(batch);
  // Untrained model: roughly uniform predictions.
  EXPECT_NEAR(loss, std::log(30.0f), 0.5f);
}

TEST(WordLmModel, RejectsCandidatesMissingTargets) {
  auto model = make_word_lm();
  const BigramCorpus corpus(40, 6, 9);
  const auto data = corpus.generate(400, 0);
  const Batch batch = make_batch(data, 2, 5);
  LmStepResult res;
  std::vector<Index> empty;
  EXPECT_THROW(model.train_step_local(batch, empty, res), ConfigError);
}

}  // namespace
}  // namespace zipflm
