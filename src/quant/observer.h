// Calibration observers: accumulate |activation| statistics over the
// representative pool and report the clip range (amax) each activation
// tensor should be quantized against.
#ifndef DNNV_QUANT_OBSERVER_H_
#define DNNV_QUANT_OBSERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/quantize.h"

namespace dnnv::quant {

/// Streaming statistic over the absolute values of one activation site.
class Observer {
 public:
  virtual ~Observer() = default;

  /// Folds `count` float values into the statistic.
  virtual void observe(const float* values, std::int64_t count) = 0;

  /// The calibrated clip range (>= 0). Call after all observe()s.
  virtual float amax() const = 0;
};

/// amax = max |x| seen — no clipping on the calibration pool, coarsest grid.
class MinMaxObserver : public Observer {
 public:
  void observe(const float* values, std::int64_t count) override;
  float amax() const override { return amax_; }

 private:
  float amax_ = 0.0f;
};

/// amax = smallest range keeping `percentile` of the |x| mass unclipped —
/// tolerates outliers for a finer grid on the bulk of the distribution.
/// Histogram over [0, range_) with power-of-two range growth: when a value
/// exceeds the current range, the range doubles and bin pairs merge, so no
/// second pass over the pool is needed.
class PercentileObserver : public Observer {
 public:
  explicit PercentileObserver(double percentile, std::size_t bins = 2048);

  void observe(const float* values, std::int64_t count) override;
  float amax() const override;

 private:
  void grow_to(float value);

  double percentile_;
  float range_ = 0.0f;  ///< 0 until the first non-zero value arrives
  std::vector<std::uint64_t> counts_;
  std::uint64_t zeros_ = 0;
  std::uint64_t total_ = 0;
};

/// Observer matching `config.calibration`.
std::unique_ptr<Observer> make_observer(const QuantConfig& config);

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_OBSERVER_H_
