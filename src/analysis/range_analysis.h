// Interval range analysis over the executed QuantModel IR.
//
// An abstract-interpretation pass: starting from the quantize layer's
// saturated code domain [-127, 127] (so the analysis is sound for ANY float
// input, including adversarial test vectors), per-channel intervals are
// propagated layer by layer through qconv/qgemm accumulation, the saturating
// bias add, Q31 requantization and LUT activations, all with the engine's
// exact integer semantics. The requant map is monotone in the accumulator,
// so interval endpoints propagate EXACTLY — no widening beyond the
// conv-padding zero.
//
// The result answers, per channel, statically:
//  - the reachable int8 output-code interval (dead channel == [0, 0]),
//  - the reachable biased accumulator interval the requant step sees,
//  - whether the raw int32 gemm sum can wrap (overflow) or the bias add can
//    saturate — the absence-of-overflow proof for the MAC datapath.
//
// Consumers: analysis::classify_universe (static fault testability),
// analysis::verify_model (overflow/dead-channel lint), dnnv_pipeline
// --analyze.
#ifndef DNNV_ANALYSIS_RANGE_ANALYSIS_H_
#define DNNV_ANALYSIS_RANGE_ANALYSIS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "quant/quant_model.h"

namespace dnnv::analysis {

/// Closed integer interval [lo, hi].
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  bool singleton() const { return lo == hi; }
  bool contains(std::int64_t v) const { return lo <= v && v <= hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Per-layer interval state. `in` holds the code interval feeding the layer,
/// one entry per input channel (a single entry is shared by all channels —
/// the state right after the quantize layer). Dense layers map input feature
/// f to entry f / (in_features / in.size()): a flattened conv output keeps
/// one interval per source channel.
struct LayerRange {
  quant::QLayerKind kind{};
  std::vector<Interval> in;

  // Conv/dense layers only, per output channel:
  /// Biased accumulator raw + bias_i32 on the int64 grid, BEFORE the int32
  /// saturation of sat_add (the requant step sees sat32 of this).
  std::vector<Interval> acc;
  /// The raw int32 gemm sum can exceed int32 and wrap; `acc` is widened to
  /// the full int32 range for soundness and no finer claim is made.
  std::vector<std::uint8_t> overflow;

  /// Codes leaving the layer, per output channel. For the dequantizing
  /// logit layer this is the saturated biased accumulator (the int32 grid
  /// the float logits are a positive rescale of).
  std::vector<Interval> out;
};

struct ModelRange {
  std::vector<LayerRange> layers;  ///< parallel to model.layers()

  std::size_t dead_channels = 0;      ///< conv/dense channels proven == 0
  std::size_t overflow_channels = 0;  ///< raw gemm sum can wrap int32
  std::size_t saturable_channels = 0; ///< biased accumulator can hit sat_add's clamp
};

/// Runs the interval pass over `model`. Deterministic; O(total weights).
ModelRange analyze_ranges(const quant::QuantModel& model);

/// The code interval feeding tap `tap` (flat fanin index) of conv/dense
/// layer `q`, given the layer's `in` vector. Conv taps are widened to
/// include 0 when the layer pads (padding reads code 0).
Interval tap_interval(const quant::QLayer& q, const std::vector<Interval>& in,
                      std::int64_t tap);

/// Min/max LUT value over the input-code interval `codes` (clamped to the
/// int8 domain).
Interval lut_image(const std::array<std::int8_t, 256>& lut,
                   const Interval& codes);

}  // namespace dnnv::analysis

#endif  // DNNV_ANALYSIS_RANGE_ANALYSIS_H_
