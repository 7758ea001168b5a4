#include "quant/observer.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dnnv::quant {

void MinMaxObserver::observe(const float* values, std::int64_t count) {
  amax_ = std::max(amax_, amax_of(values, count));
}

PercentileObserver::PercentileObserver(double percentile, std::size_t bins)
    : percentile_(percentile), counts_(bins, 0) {
  DNNV_CHECK(percentile > 0.0 && percentile <= 1.0,
             "percentile " << percentile << " outside (0, 1]");
  DNNV_CHECK(bins >= 2 && bins % 2 == 0, "need an even bin count");
}

void PercentileObserver::grow_to(float value) {
  if (range_ == 0.0f) {
    range_ = value;
    return;
  }
  while (value > range_) {
    // Double the range; bin i of the new histogram covers old bins 2i, 2i+1.
    const std::size_t half = counts_.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      counts_[i] = counts_[2 * i] + counts_[2 * i + 1];
    }
    std::fill(counts_.begin() + static_cast<std::ptrdiff_t>(half),
              counts_.end(), 0);
    range_ *= 2.0f;
  }
}

void PercentileObserver::observe(const float* values, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    const float a = std::fabs(values[i]);
    if (a == 0.0f) {
      ++zeros_;  // kept out of the bins so range growth can't misplace them
      ++total_;
      continue;
    }
    grow_to(a);
    auto bin = static_cast<std::size_t>(
        static_cast<double>(a) / range_ * static_cast<double>(counts_.size()));
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
    ++total_;
  }
}

float PercentileObserver::amax() const {
  if (range_ == 0.0f || total_ == 0) return 0.0f;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(percentile_ * static_cast<double>(total_)));
  std::uint64_t cumulative = zeros_;  // zeros sit below every bin edge
  if (cumulative >= target) {
    return range_ / static_cast<float>(counts_.size());
  }
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    cumulative += counts_[bin];
    if (cumulative >= target) {
      // Upper edge of the bin that crosses the percentile.
      return range_ * static_cast<float>(bin + 1) /
             static_cast<float>(counts_.size());
    }
  }
  return range_;
}

std::unique_ptr<Observer> make_observer(const QuantConfig& config) {
  if (config.calibration == CalibrationMethod::kPercentile) {
    return std::make_unique<PercentileObserver>(config.percentile);
  }
  return std::make_unique<MinMaxObserver>();
}

}  // namespace dnnv::quant
