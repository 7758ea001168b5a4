// Scalar quantization math shared by the int8 inference engine.
//
// Scheme: symmetric int8 (zero point 0) with codes clamped to [-127, 127]
// for weights AND activations, so negation never overflows and the dequant
// map is value = scale * code. Accumulation is int32; the accumulator is
// rescaled to the next layer's activation grid with a fixed-point multiplier
// (Q31 mantissa + right shift) — no float touches the inner loops.
#ifndef DNNV_QUANT_QUANTIZE_H_
#define DNNV_QUANT_QUANTIZE_H_

#include <cstdint>
#include <vector>

namespace dnnv::quant {

/// Symmetric int8 code range. -128 is intentionally unused (symmetry; |q| is
/// always representable, and the dequant error bound is scale/2 everywhere).
inline constexpr std::int32_t kQmin = -127;
inline constexpr std::int32_t kQmax = 127;

/// Post-training quantization options. Weights always get one scale per
/// output channel; activation clip ranges are the max |x| the calibration
/// sweep sees (min/max calibration).
struct QuantConfig {
  /// Cap on calibration items actually swept (pools can be huge).
  std::int64_t max_calibration_items = 256;
};

/// scale s such that dequant(q) = s * q covers [-amax, amax] with 127 steps.
/// amax == 0 (dead tensor/channel) falls back to 1 so codes stay exact zeros.
float choose_scale(float amax);

/// Nearest-code quantization with ties rounding half away from zero
/// (std::lround semantics), clamped to [kQmin, kQmax].
std::int8_t quantize_value(float value, float scale);

/// Fixed-point representation of a positive real requantization ratio
/// r = multiplier * 2^-shift, multiplier a Q31 mantissa in [2^30, 2^31).
/// r == 0 (dead channel) is encoded as multiplier 0.
struct Requant {
  std::int32_t multiplier = 0;
  std::int32_t shift = 0;
};

/// Encodes r (must be >= 0 and finite) as a Requant.
Requant requant_from_real(double r);

/// x * 2^-shift with ties rounding half away from zero. shift in [0, 62].
std::int64_t rounding_shift_right(std::int64_t x, std::int32_t shift);

/// Rescales an int32 accumulator onto the output int8 grid:
/// sat8(round(acc * multiplier * 2^-shift)). Pure 64-bit integer arithmetic;
/// saturates to [kQmin, kQmax] (including for acc at the int32 extremes).
std::int8_t requantize(std::int32_t acc, const Requant& rq);

/// max |values[i]| over a range (0 for empty).
float amax_of(const float* values, std::int64_t count);

/// One scale per channel of a [channels, per_channel] weight matrix.
std::vector<float> weight_scales(const float* weights, std::int64_t channels,
                                 std::int64_t per_channel);

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_QUANTIZE_H_
