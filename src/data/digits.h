// MNIST-like procedural handwritten-digit dataset.
#ifndef DNNV_DATA_DIGITS_H_
#define DNNV_DATA_DIGITS_H_

#include "data/dataset.h"
#include "util/rng.h"

namespace dnnv::data {

/// Greyscale 1x28x28 images of stroke-rendered digits 0-9 with per-sample
/// affine jitter (translation, rotation, scale, shear), stroke-width
/// variation and pixel noise. Substitutes for MNIST in the paper's
/// experiments (README.md, module map: `src/data/`); a small CNN reaches
/// ≥97 % accuracy.
class DigitsDataset : public Dataset {
 public:
  /// `seed` selects the (infinite) sample universe; datasets with different
  /// seeds (train vs test) are disjoint in distribution draws.
  DigitsDataset(std::uint64_t seed, std::int64_t size, int image_size = 28);

  std::int64_t size() const override { return size_; }
  Sample get(std::int64_t index) const override;
  Shape item_shape() const override;
  int num_classes() const override { return 10; }

 private:
  std::uint64_t seed_;
  std::int64_t size_;
  int image_size_;
};

}  // namespace dnnv::data

#endif  // DNNV_DATA_DIGITS_H_
