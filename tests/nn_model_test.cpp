// Model-level tests: Sequential registry, serialisation, losses, optimisers,
// and training convergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "exp/model_zoo.h"
#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::nn {
namespace {

Sequential tiny_mlp(std::uint64_t seed = 3) {
  Rng rng(seed);
  return build_mlp(4, {6}, 3, ActivationKind::kReLU, rng);
}

// ---------- Parameter registry ----------

TEST(SequentialTest, ParamCountMatchesViews) {
  Sequential model = tiny_mlp();
  // dense(4->6): 24+6, dense(6->3): 18+3.
  EXPECT_EQ(model.param_count(), 24 + 6 + 18 + 3);
  std::int64_t total = 0;
  for (const auto& view : model.param_views()) total += view.size;
  EXPECT_EQ(total, model.param_count());
}

TEST(SequentialTest, GlobalIndexingRoundTrip) {
  Sequential model = tiny_mlp();
  const std::int64_t n = model.param_count();
  for (const std::int64_t idx : {std::int64_t{0}, n / 2, n - 1}) {
    const float original = model.get_param(idx);
    model.set_param(idx, 42.0f);
    EXPECT_EQ(model.get_param(idx), 42.0f);
    model.add_to_param(idx, 1.0f);
    EXPECT_EQ(model.get_param(idx), 43.0f);
    model.set_param(idx, original);
  }
  EXPECT_THROW(model.get_param(n), Error);
  EXPECT_THROW(model.get_param(-1), Error);
}

TEST(SequentialTest, ParamNamesAndBiasFlags) {
  Sequential model = tiny_mlp();
  EXPECT_EQ(model.param_name(0), "dense0.weight[0]");
  EXPECT_FALSE(model.param_is_bias(0));
  EXPECT_EQ(model.param_name(24), "dense0.bias[0]");
  EXPECT_TRUE(model.param_is_bias(24));
}

TEST(SequentialTest, SnapshotRestoreRoundTrip) {
  Sequential model = tiny_mlp();
  const auto snapshot = model.snapshot_params();
  model.set_param(0, 123.0f);
  model.set_param(10, -7.0f);
  model.restore_params(snapshot);
  EXPECT_EQ(model.get_param(0), snapshot[0]);
  EXPECT_EQ(model.get_param(10), snapshot[10]);
  EXPECT_THROW(model.restore_params(std::vector<float>(3)), Error);
}

TEST(SequentialTest, CloneIsDeepAndIndependent) {
  Sequential model = tiny_mlp();
  Sequential copy = model.clone();
  EXPECT_EQ(copy.param_count(), model.param_count());
  const float before = model.get_param(0);
  copy.set_param(0, before + 5.0f);
  EXPECT_EQ(model.get_param(0), before);

  Rng rng(4);
  const Tensor x = Tensor::rand_uniform(Shape{1, 4}, rng, -1.0f, 1.0f);
  copy.set_param(0, before);
  const Tensor a = model.forward(x);
  const Tensor b = copy.forward(x);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SequentialTest, SaveLoadPreservesBehaviour) {
  Sequential model = tiny_mlp(11);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_model_test.bin").string();
  model.save_file(path);
  Sequential loaded = Sequential::load_file(path);
  std::filesystem::remove(path);

  Rng rng(5);
  const Tensor x = Tensor::rand_uniform(Shape{2, 4}, rng, -1.0f, 1.0f);
  const Tensor a = model.forward(x);
  const Tensor b = loaded.forward(x);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SequentialTest, LoadRejectsGarbage) {
  ByteWriter writer;
  writer.write_u32(0x12345678);
  ByteReader reader(writer.take());
  EXPECT_THROW(Sequential::load(reader), Error);
}

TEST(SequentialTest, SummaryMentionsLayers) {
  Sequential model = tiny_mlp();
  const std::string summary = model.summary();
  EXPECT_NE(summary.find("dense(4->6)"), std::string::npos);
  EXPECT_NE(summary.find("relu"), std::string::npos);
}

TEST(SequentialTest, PredictLabelsMatchArgmax) {
  Sequential model = tiny_mlp();
  Rng rng(6);
  std::vector<Tensor> items;
  for (int i = 0; i < 3; ++i) {
    items.push_back(Tensor::rand_uniform(Shape{4}, rng, -1.0f, 1.0f));
  }
  const auto labels = model.predict_labels(stack_batch(items));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(labels[static_cast<std::size_t>(i)],
              model.predict_label(items[static_cast<std::size_t>(i)]));
  }
}

// ---------- Losses ----------

// The workspace backward of a zoo model is input-gradient-only: the model
// input gradient equals the allocating backward's bit for bit, and no
// parameter-grad buffer is written (each is pre-filled with a sentinel).
TEST(SequentialTest, WorkspaceBackwardIsInputGradientOnlyOnZooModels) {
  exp::ZooOptions zoo;
  zoo.tiny = true;
  zoo.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData data;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_test(3)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_test(3)});
  for (auto& c : cases) {
    SCOPED_TRACE(c.trained.name);
    Sequential& model = c.trained.model;
    const Tensor batch = stack_batch(c.data.images);
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      if (auto* act = dynamic_cast<ActivationLayer*>(&model.layer(l))) {
        act->set_backward_leak(0.05f);  // as Algorithm 2's loss model
      }
    }

    Sequential reference = model.clone();
    const LossResult loss =
        softmax_cross_entropy(reference.forward(batch), c.data.labels);
    reference.zero_grads();
    const Tensor expected = reference.backward(loss.grad_logits);

    constexpr float kSentinel = -1234.5f;
    for (const auto& view : model.param_views()) {
      for (std::int64_t i = 0; i < view.size; ++i) view.grad[i] = kSentinel;
    }
    Workspace ws;
    model.forward(batch, ws);
    const Tensor& grad_input = model.backward(loss.grad_logits, ws);
    ASSERT_EQ(grad_input.shape(), expected.shape());
    EXPECT_EQ(std::memcmp(grad_input.data(), expected.data(),
                          static_cast<std::size_t>(expected.numel()) *
                              sizeof(float)),
              0);
    for (const auto& view : model.param_views()) {
      for (std::int64_t i = 0; i < view.size; ++i) {
        ASSERT_EQ(view.grad[i], kSentinel) << view.name << "[" << i << "]";
      }
    }
  }
}

TEST(LossTest, SoftmaxRowsSumToOne) {
  const Tensor logits(Shape{2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor probs = softmax(logits);
  for (int row = 0; row < 2; ++row) {
    double total = 0.0;
    for (int j = 0; j < 3; ++j) total += probs[row * 3 + j];
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(LossTest, SoftmaxStableForHugeLogits) {
  const Tensor logits(Shape{1, 2}, {1000.0f, 0.0f});
  const Tensor probs = softmax(logits);
  EXPECT_NEAR(probs[0], 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(probs[1]));
}

TEST(LossTest, CrossEntropyOfPerfectPredictionIsSmall) {
  const Tensor logits(Shape{1, 3}, {20.0f, 0.0f, 0.0f});
  const auto result = softmax_cross_entropy(logits, {0});
  EXPECT_LT(result.loss, 1e-6);
}

TEST(LossTest, CrossEntropyGradientSignsAndSum) {
  const Tensor logits(Shape{1, 3}, {1.0f, 2.0f, 0.5f});
  const auto result = softmax_cross_entropy(logits, {1});
  // Gradient rows of CE w.r.t. logits sum to zero; true class negative.
  double total = 0.0;
  for (int j = 0; j < 3; ++j) total += result.grad_logits[j];
  EXPECT_NEAR(total, 0.0, 1e-6);
  EXPECT_LT(result.grad_logits[1], 0.0f);
  EXPECT_GT(result.grad_logits[0], 0.0f);
}

// A row slice's gradient, scaled by the whole batch's 1/N, equals those rows
// of the whole batch's gradient bit for bit.
TEST(LossTest, SliceGradientMatchesWholeBatchRows) {
  Rng rng(14);
  const Tensor logits = Tensor::rand_uniform(Shape{5, 4}, rng, -3.0f, 3.0f);
  const std::vector<int> labels = {0, 3, 1, 2, 3};
  const LossResult whole = softmax_cross_entropy(logits, labels);
  for (std::int64_t first = 0; first < 5; first += 2) {
    const std::int64_t rows = std::min<std::int64_t>(2, 5 - first);
    Tensor slice(Shape{rows, 4});
    std::copy(logits.data() + first * 4, logits.data() + (first + rows) * 4,
              slice.data());
    const std::vector<int> slice_labels(labels.begin() + first,
                                        labels.begin() + first + rows);
    Tensor grad(slice.shape());
    softmax_cross_entropy_grad(slice, slice_labels, 5, grad);
    EXPECT_EQ(std::memcmp(grad.data(), whole.grad_logits.data() + first * 4,
                          static_cast<std::size_t>(rows * 4) * sizeof(float)),
              0);
  }
}

TEST(LossTest, CrossEntropyValidatesLabels) {
  const Tensor logits(Shape{1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), Error);
}

TEST(LossTest, MseZeroAtTarget) {
  const Tensor a(Shape{3}, {1, 2, 3});
  const auto result = mse_loss(a, a);
  EXPECT_DOUBLE_EQ(result.loss, 0.0);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(result.grad_logits[i], 0.0f);
}

TEST(LossTest, AccuracyCounting) {
  const Tensor logits(Shape{2, 2}, {2.0f, 1.0f, 0.0f, 3.0f});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 1}), 0.5);
}

// ---------- Optimisers ----------

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimise f(w) = 0.5*w^2 via its gradient w.
  Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng, InitKind::kZero));
  model.set_param(0, 4.0f);  // weight w
  Sgd opt(0.1f, 0.0f);
  for (int i = 0; i < 100; ++i) {
    const auto views = model.param_views();
    views[0].grad[0] = model.get_param(0);  // df/dw = w
    views[1].grad[0] = 0.0f;
    opt.step(model);
  }
  EXPECT_NEAR(model.get_param(0), 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng, InitKind::kZero));
  model.set_param(0, 4.0f);
  Adam opt(0.2f);
  for (int i = 0; i < 200; ++i) {
    const auto views = model.param_views();
    views[0].grad[0] = model.get_param(0);
    views[1].grad[0] = 0.0f;
    opt.step(model);
  }
  EXPECT_NEAR(model.get_param(0), 0.0f, 5e-2f);
}

TEST(OptimizerTest, WeightDecayShrinksParamsWithZeroGrad) {
  Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng, InitKind::kZero));
  model.set_param(0, 1.0f);
  Sgd opt(0.1f, 0.0f, /*weight_decay=*/0.5f);
  model.zero_grads();
  opt.step(model);
  // w -= lr * wd * w  ->  1 - 0.1*0.5 = 0.95
  EXPECT_NEAR(model.get_param(0), 0.95f, 1e-6f);
}

TEST(OptimizerTest, RejectsBadHyperparams) {
  EXPECT_THROW(Sgd(-0.1f), Error);
  EXPECT_THROW(Sgd(0.1f, 1.5f), Error);
  EXPECT_THROW(Adam(0.0f), Error);
}

// ---------- Trainer ----------

TEST(TrainerTest, LearnsLinearlySeparableTask) {
  // Two Gaussian blobs in 2-D; a tiny MLP must reach near-perfect accuracy.
  Rng rng(8);
  std::vector<Tensor> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    const float cx = label == 0 ? -1.0f : 1.0f;
    Tensor x(Shape{2});
    x[0] = cx + static_cast<float>(rng.normal(0.0, 0.3));
    x[1] = -cx + static_cast<float>(rng.normal(0.0, 0.3));
    inputs.push_back(std::move(x));
    labels.push_back(label);
  }
  Rng model_rng(9);
  Sequential model = build_mlp(2, {8}, 2, ActivationKind::kTanh, model_rng);

  TrainConfig config;
  config.epochs = 30;
  config.batch_size = 16;
  config.learning_rate = 0.02f;
  int epochs_seen = 0;
  config.on_epoch = [&](int, double) { ++epochs_seen; };
  const auto result = fit(model, inputs, labels, config);
  EXPECT_EQ(result.epochs_run, 30);
  EXPECT_EQ(epochs_seen, 30);
  EXPECT_GT(evaluate_accuracy(model, inputs, labels), 0.97);
  EXPECT_LT(result.final_loss, 0.2);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  auto run = [] {
    Rng rng(8);
    std::vector<Tensor> inputs;
    std::vector<int> labels;
    for (int i = 0; i < 64; ++i) {
      inputs.push_back(Tensor::rand_uniform(Shape{3}, rng, -1.0f, 1.0f));
      labels.push_back(i % 3);
    }
    Rng model_rng(10);
    Sequential model = build_mlp(3, {5}, 3, ActivationKind::kReLU, model_rng);
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    fit(model, inputs, labels, config);
    return model.snapshot_params();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(TrainerTest, ValidatesInputs) {
  Sequential model = tiny_mlp();
  TrainConfig config;
  EXPECT_THROW(fit(model, {}, {}, config), Error);
  std::vector<Tensor> inputs{Tensor(Shape{4})};
  EXPECT_THROW(fit(model, inputs, {0, 1}, config), Error);
}

}  // namespace
}  // namespace dnnv::nn
