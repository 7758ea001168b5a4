// Losses over logits: softmax cross-entropy (classification) and MSE.
#ifndef DNNV_NN_LOSS_H_
#define DNNV_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace dnnv::nn {

/// Loss value plus gradient w.r.t. the logits (same shape as logits).
struct LossResult {
  double loss = 0.0;
  Tensor grad_logits;
};

/// Row-wise numerically-stable softmax of a [N, k] tensor.
Tensor softmax(const Tensor& logits);

/// Mean softmax cross-entropy of batched logits [N, k] against integer labels.
/// grad_logits is the gradient of the MEAN loss (already divided by N).
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

/// grad_logits of softmax_cross_entropy for rows that are a slice of a
/// larger batch of `batch_size` items: each row is scaled by 1/batch_size,
/// not 1/rows, so the result equals those rows of the whole batch's
/// gradient bit for bit. Writes into `grad` (shaped like `logits`).
void softmax_cross_entropy_grad(const Tensor& logits,
                                const std::vector<int>& labels,
                                std::int64_t batch_size, Tensor& grad);

/// Mean squared error against a dense target of the same shape.
LossResult mse_loss(const Tensor& output, const Tensor& target);

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace dnnv::nn

#endif  // DNNV_NN_LOSS_H_
