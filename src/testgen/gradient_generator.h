// Algorithm 2 — gradient-based synthesis of new functional tests.
//
// Inputs (not parameters) are gradient-descended to minimise the
// classification loss toward each of the k classes (paper Eq. 8), producing
// synthetic training-like samples. The paper's key idea is that samples be
// classified correctly by "the network consisting of the un-activated
// parameters"; with mask_activated on, already-activated parameters are
// zeroed in a scratch model before the descent, steering synthesis toward
// parameters that still need coverage.
#ifndef DNNV_TESTGEN_GRADIENT_GENERATOR_H_
#define DNNV_TESTGEN_GRADIENT_GENERATOR_H_

#include <vector>

#include "nn/sequential.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace dnnv::testgen {

/// Algorithm 2 primitives: batch synthesis and the masked loss model. The
/// "gradient" and "combined" methods of make_generator (generator.h) drive
/// them; the "gradient" method emits whole k-batches up to its budget.
class GradientGenerator {
 public:
  struct Options {
    int steps = 80;               ///< T — gradient-descent updates per batch
    float learning_rate = 0.5f;   ///< η (applied to the per-sample gradient)
    /// Zero already-activated parameters in the loss model (paper §IV-C's
    /// "network consisting of the un-activated parameters"). Off = verbatim
    /// Algorithm 2 (loss on the full model) — kept for the ablation bench.
    bool mask_activated = true;
    /// Stddev of the Gaussian init jitter for batches after the first. The
    /// first batch starts from all zeros exactly as Algorithm 2 line 3;
    /// later batches need jitter to avoid regenerating identical samples.
    float init_stddev = 0.25f;
    /// Inputs are clamped to this range after each update. Algorithm 2 as
    /// printed does NOT constrain its inputs — a black-box IP accepts any
    /// float image, and unconstrained synthesis is what lets it activate
    /// parameters behind otherwise-dead units (the paper's ~100% ceiling).
    /// The wide default keeps that power; narrow to [0,1] for suites that
    /// must look like valid sensor images.
    float clamp_lo = -4.0f;
    float clamp_hi = 4.0f;
    /// Gradient leak applied to the LOSS model's activations during
    /// synthesis so descent can wake dead units (see
    /// ActivationLayer::set_backward_leak). Coverage is always measured on
    /// the true model with exact semantics.
    float backward_leak = 0.05f;
    std::uint64_t seed = 7;
  };

  explicit GradientGenerator(Options options) : options_(options) {}

  /// Synthesises one batch of k inputs (class i descending loss toward label
  /// i) against `loss_model`. `batch_index` 0 starts from zeros; later
  /// batches jitter their init.
  std::vector<Tensor> generate_batch(nn::Sequential& loss_model,
                                     const Shape& item_shape, int num_classes,
                                     int batch_index, Rng& rng) const;

  /// Batch-tensor variant of generate_batch: returns the synthesised
  /// [k, item...] tensor un-sliced, ready for the batched coverage engine.
  /// The descent is sharded over ThreadPool::shared(): each thread descends
  /// a contiguous shard of the k items for all T steps on its own clone of
  /// `loss_model`, with the workspace engine's input-gradient-only backward
  /// (no per-step allocations, no parameter-gradient work). The result is
  /// independent of the thread count, bit for bit. Layers must run in
  /// inference mode (no dropout masks, no batch-statistic regularisers).
  Tensor generate_batch_tensor(nn::Sequential& loss_model,
                               const Shape& item_shape, int num_classes,
                               int batch_index, Rng& rng) const;

  /// Builds the masked loss model: a clone of `model` with covered
  /// parameters set to zero.
  static nn::Sequential masked_model(const nn::Sequential& model,
                                     const DynamicBitset& covered);

 private:
  Options options_;
};

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_GRADIENT_GENERATOR_H_
