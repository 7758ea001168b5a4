#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dnnv::nn {
namespace {

void softmax_row(const float* row, std::int64_t k, float* out) {
  float max_logit = row[0];
  for (std::int64_t j = 1; j < k; ++j) max_logit = std::max(max_logit, row[j]);
  float denom = 0.0f;
  for (std::int64_t j = 0; j < k; ++j) {
    out[j] = std::exp(row[j] - max_logit);
    denom += out[j];
  }
  for (std::int64_t j = 0; j < k; ++j) out[j] /= denom;
}

/// Turns a softmax row into the cross-entropy gradient of the mean loss:
/// subtracts the one-hot of `y`, then scales by `inv_n`.
void cross_entropy_grad_row(float* row, int y, std::int64_t k, float inv_n) {
  row[y] -= 1.0f;
  for (std::int64_t j = 0; j < k; ++j) row[j] *= inv_n;
}

}  // namespace

Tensor softmax(const Tensor& logits) {
  DNNV_CHECK(logits.shape().ndim() == 2, "softmax expects [N, k] logits");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  Tensor probs(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    softmax_row(logits.data() + i * k, k, probs.data() + i * k);
  }
  return probs;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  DNNV_CHECK(logits.shape().ndim() == 2, "expects [N, k] logits");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  DNNV_CHECK(static_cast<std::int64_t>(labels.size()) == n,
             "label count " << labels.size() << " != batch " << n);
  LossResult result;
  result.grad_logits = softmax(logits);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    DNNV_CHECK(y >= 0 && y < k, "label " << y << " out of range " << k);
    float* row = result.grad_logits.data() + i * k;
    const double p = std::max(row[y], 1e-12f);
    result.loss -= std::log(p);
    cross_entropy_grad_row(row, y, k, inv_n);
  }
  result.loss /= static_cast<double>(n);
  return result;
}

void softmax_cross_entropy_grad(const Tensor& logits,
                                const std::vector<int>& labels,
                                std::int64_t batch_size, Tensor& grad) {
  DNNV_CHECK(logits.shape().ndim() == 2, "expects [N, k] logits");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  DNNV_CHECK(static_cast<std::int64_t>(labels.size()) == n,
             "label count " << labels.size() << " != rows " << n);
  DNNV_CHECK(batch_size >= n, "batch size " << batch_size << " < rows " << n);
  DNNV_CHECK(grad.same_shape(logits), "gradient buffer shape mismatch");
  const float inv_n = 1.0f / static_cast<float>(batch_size);
  for (std::int64_t i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    DNNV_CHECK(y >= 0 && y < k, "label " << y << " out of range " << k);
    float* row = grad.data() + i * k;
    softmax_row(logits.data() + i * k, k, row);
    cross_entropy_grad_row(row, y, k, inv_n);
  }
}

LossResult mse_loss(const Tensor& output, const Tensor& target) {
  DNNV_CHECK(output.same_shape(target), "MSE shape mismatch");
  LossResult result;
  result.grad_logits = Tensor(output.shape());
  const std::int64_t n = output.numel();
  DNNV_CHECK(n > 0, "MSE of empty tensor");
  for (std::int64_t i = 0; i < n; ++i) {
    const float diff = output[i] - target[i];
    result.loss += 0.5 * static_cast<double>(diff) * diff;
    result.grad_logits[i] = diff / static_cast<float>(n);
  }
  result.loss /= static_cast<double>(n);
  return result;
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
  DNNV_CHECK(logits.shape().ndim() == 2, "expects [N, k] logits");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  DNNV_CHECK(static_cast<std::int64_t>(labels.size()) == n, "label count mismatch");
  if (n == 0) return 0.0;
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace dnnv::nn
