// CIFAR-like procedural colour-image dataset (10 shape/texture classes).
#ifndef DNNV_DATA_SHAPES_H_
#define DNNV_DATA_SHAPES_H_

#include "data/dataset.h"
#include "util/rng.h"

namespace dnnv::data {

/// RGB 3x32x32 images of ten procedurally rendered object classes
/// (disc, square, triangle, ring, cross, horizontal/vertical/diagonal
/// stripes, checkerboard, radial blob) with class-tied colour palettes,
/// cluttered backgrounds and pixel noise. Substitutes for CIFAR-10 in
/// the paper's experiments (README.md, module map: `src/data/`); a small CNN
/// reaches ~85 % accuracy, mirroring the paper's 84.26 %.
class ShapesDataset : public Dataset {
 public:
  ShapesDataset(std::uint64_t seed, std::int64_t size, int image_size = 32);

  std::int64_t size() const override { return size_; }
  Sample get(std::int64_t index) const override;
  Shape item_shape() const override;
  int num_classes() const override { return 10; }

  /// Class names for reports ("disc", "square", ...).
  static const char* class_name(int label);

 private:
  std::uint64_t seed_;
  std::int64_t size_;
  int image_size_;
};

}  // namespace dnnv::data

#endif  // DNNV_DATA_SHAPES_H_
