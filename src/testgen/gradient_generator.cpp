#include "testgen/gradient_generator.h"

#include <algorithm>
#include <numeric>

#include "nn/activation_layer.h"
#include "nn/loss.h"
#include "nn/workspace.h"
#include "tensor/batch.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dnnv::testgen {

nn::Sequential GradientGenerator::masked_model(const nn::Sequential& model,
                                               const DynamicBitset& covered) {
  nn::Sequential masked = model.clone();
  DNNV_CHECK(covered.size() == static_cast<std::size_t>(masked.param_count()),
             "covered-set size mismatch");
  std::size_t bit = 0;
  for (const auto& view : masked.param_views()) {
    for (std::int64_t i = 0; i < view.size; ++i, ++bit) {
      if (covered.test(bit)) view.data[i] = 0.0f;
    }
  }
  return masked;
}

std::vector<Tensor> GradientGenerator::generate_batch(
    nn::Sequential& loss_model, const Shape& item_shape, int num_classes,
    int batch_index, Rng& rng) const {
  const Tensor batch =
      generate_batch_tensor(loss_model, item_shape, num_classes, batch_index,
                            rng);
  std::vector<Tensor> tests;
  tests.reserve(static_cast<std::size_t>(num_classes));
  for (int i = 0; i < num_classes; ++i) tests.push_back(slice_batch(batch, i));
  return tests;
}

Tensor GradientGenerator::generate_batch_tensor(nn::Sequential& loss_model,
                                                const Shape& item_shape,
                                                int num_classes,
                                                int batch_index,
                                                Rng& rng) const {
  DNNV_CHECK(num_classes > 1, "need at least two classes");
  if (options_.backward_leak != 0.0f) {
    for (std::size_t l = 0; l < loss_model.num_layers(); ++l) {
      if (auto* act = dynamic_cast<nn::ActivationLayer*>(&loss_model.layer(l))) {
        act->set_backward_leak(options_.backward_leak);
      }
    }
  }
  std::vector<std::int64_t> dims;
  dims.push_back(num_classes);
  dims.insert(dims.end(), item_shape.dims().begin(), item_shape.dims().end());
  Tensor batch{Shape(dims)};  // zeros — Algorithm 2 line 3
  if (batch_index > 0 && options_.init_stddev > 0.0f) {
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] = static_cast<float>(
          rng.normal(0.0, static_cast<double>(options_.init_stddev)));
    }
    clamp_(batch, options_.clamp_lo, options_.clamp_hi);
  }

  // Items never interact: each one's loss gradient is its own softmax row
  // scaled by 1/k, every layer maps items independently, and a GEMM row does
  // not depend on the batch size. So each pool thread descends one
  // contiguous shard of items for all T steps, on its own clone of the loss
  // model (taken after the leak is set) and its own Workspace, and the
  // result is the whole-batch descent's bit for bit at any thread count.
  const std::int64_t k = num_classes;
  const std::int64_t item_numel = batch.numel() / k;
  ThreadPool& pool = ThreadPool::shared();
  const auto shards = static_cast<std::int64_t>(
      std::min<std::size_t>(static_cast<std::size_t>(k), pool.num_threads()));
  // Mean-reduced CE divides gradients by k; scale the step so learning_rate
  // acts on per-sample gradients (Algorithm 2 line 7 is per-sample).
  const float step = options_.learning_rate * static_cast<float>(num_classes);
  pool.parallel_for(static_cast<std::size_t>(shards), [&](std::size_t s) {
    const std::int64_t first = k * static_cast<std::int64_t>(s) / shards;
    const std::int64_t last = k * static_cast<std::int64_t>(s + 1) / shards;
    std::vector<std::int64_t> shard_dims = dims;
    shard_dims[0] = last - first;
    Tensor x{Shape(shard_dims)};
    float* rows = batch.data() + first * item_numel;
    std::copy(rows, rows + x.numel(), x.data());
    std::vector<int> labels(static_cast<std::size_t>(last - first));
    std::iota(labels.begin(), labels.end(), static_cast<int>(first));
    nn::Sequential model = loss_model.clone();
    nn::Workspace ws;
    Tensor grad_logits;
    for (int t = 0; t < options_.steps; ++t) {
      const Tensor& logits = model.forward(x, ws);
      grad_logits.resize(logits.shape());
      nn::softmax_cross_entropy_grad(logits, labels, k, grad_logits);
      const Tensor& grad_input = model.backward(grad_logits, ws);
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        x[i] -= step * grad_input[i];
      }
      clamp_(x, options_.clamp_lo, options_.clamp_hi);
    }
    std::copy(x.data(), x.data() + x.numel(), rows);
  });
  return batch;
}

}  // namespace dnnv::testgen
