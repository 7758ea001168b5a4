// Reference parameter-activation engine for tests and benches: the paper's
// Eq. 2 taken literally. θ is activated by x iff some class output has
// |∂F_j(x)/∂θ| > ε, found with k exact reverse-mode passes (one per logit).
// The production engine, cov::ParameterCoverage, runs one absolute-
// sensitivity pass instead and must agree with this oracle except on
// measure-zero cancellation sets.
// Header-only and gtest-free, so tests/coverage_test.cpp and the coverage
// benches share one copy.
#ifndef DNNV_TESTS_COVERAGE_ORACLES_H_
#define DNNV_TESTS_COVERAGE_ORACLES_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/sequential.h"
#include "tensor/batch.h"
#include "util/bitset.h"
#include "util/error.h"

namespace dnnv::coverage_oracles {

/// Activation mask of one un-batched input over the model's global parameter
/// index space: the union over the k class logits of {θ : |∂F_j/∂θ| > ε}.
/// Mutates `model`'s layer caches and gradients.
inline DynamicBitset per_class_exact_mask(nn::Sequential& model,
                                          const Tensor& input,
                                          double epsilon = 0.0) {
  const Tensor logits = model.forward(stack_batch({input}));
  DNNV_CHECK(logits.shape().ndim() == 2, "model must produce [1, k] logits");
  const std::int64_t k = logits.shape()[1];
  std::vector<unsigned char> hit(static_cast<std::size_t>(model.param_count()),
                                 0);
  // backward() may run repeatedly after one forward: layer caches are
  // read-only in backward.
  for (std::int64_t j = 0; j < k; ++j) {
    Tensor seed(Shape{1, k});
    seed[j] = 1.0f;
    model.zero_grads();
    model.backward(seed);
    std::size_t bit = 0;
    for (const auto& view : model.param_views()) {
      for (std::int64_t i = 0; i < view.size; ++i, ++bit) {
        if (std::fabs(view.grad[i]) > epsilon) hit[bit] = 1;
      }
    }
  }
  DynamicBitset mask(hit.size());
  for (std::size_t bit = 0; bit < hit.size(); ++bit) {
    if (hit[bit] != 0) mask.set(bit);
  }
  return mask;
}

}  // namespace dnnv::coverage_oracles

#endif  // DNNV_TESTS_COVERAGE_ORACLES_H_
