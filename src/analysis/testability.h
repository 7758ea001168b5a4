// Static fault testability over an interval range analysis.
//
// Classical ATPG prunes faults a tester can never observe before spending
// simulation on them. This pass does the int8-IR equivalent: given the
// per-channel reachable intervals from analysis::analyze_ranges, each
// fault::Fault in a FaultUniverse is classified
//
//   untestable        — NO input in the quantize layer's saturated domain
//                       can make the faulted model's logits differ from the
//                       clean model's (so no test suite, present or future,
//                       can detect it), or
//   possibly-testable — the analysis cannot prove that.
//
// Three proof rules, all exact over the engine's integer semantics:
//   no-excitation     — the fault provably never changes the value it sits
//                       on (zero weight-delta against the tap interval, bias
//                       codes rounding to the same bias_i32, an accumulator
//                       bit already stuck at its fault value across the
//                       reachable interval).
//   requant-masked    — the clean and faulted accumulators provably
//                       requantize to the same int8 code for every reachable
//                       value: requantize is monotone in the accumulator
//                       (multiplier >= 0), so the two step functions are
//                       compared exactly, segment by segment.
//   activation-masked — the downstream activation LUT maps both the clean
//                       and the faulted code interval to one identical
//                       constant, so the channel's output never moves.
//
// Soundness contract (asserted in tests/analysis_test.cpp): every fault
// classified untestable is undetected by exhaustive fault simulation — on
// any suite, since FaultSimulator detection is faulted-vs-clean label
// difference and an untestable fault's logits are bit-identical to clean.
#ifndef DNNV_ANALYSIS_TESTABILITY_H_
#define DNNV_ANALYSIS_TESTABILITY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/range_analysis.h"
#include "fault/fault_model.h"
#include "quant/quant_model.h"

namespace dnnv::analysis {

/// Why a fault was proven untestable (kTestable == it was not).
enum class UntestableReason : std::uint8_t {
  kTestable = 0,
  kNoExcitation = 1,      ///< fault never changes the faulted site's value
  kRequantMasked = 2,     ///< identical Q31 rounding over the reachable range
  kActivationMasked = 3,  ///< LUT collapses clean + faulted range to one code
};

const char* to_string(UntestableReason reason);

struct TestabilityReport {
  /// Parallel to the classified universe's fault list.
  std::vector<UntestableReason> reasons;

  std::size_t untestable = 0;
  std::size_t no_excitation = 0;
  std::size_t requant_masked = 0;
  std::size_t activation_masked = 0;

  bool is_untestable(std::size_t i) const {
    return reasons[i] != UntestableReason::kTestable;
  }

  /// "pruned 312/2048 (15.2%): 201 no-excitation, ..." one-liner.
  std::string summary(std::size_t universe_size) const;
};

/// Classifies every fault of `universe` against `range` (which must come
/// from analyze_ranges over the same `model`). Deterministic; read-only on
/// the model.
TestabilityReport classify_universe(const quant::QuantModel& model,
                                    const ModelRange& range,
                                    const fault::FaultUniverse& universe);

/// The universe with the untestable faults removed, order preserved — feed
/// this (not the full universe) to FaultSimulator.
fault::FaultUniverse prune_untestable(const fault::FaultUniverse& universe,
                                      const TestabilityReport& report);

// ---- Static dominance (detection-implication collapse) ----

/// Classical ATPG dominance over the universe: fault D is `dominated` by its
/// `representative` R when EVERY test that detects R provably also detects
/// D, so D can be dropped before simulation — a suite covering R covers D
/// for free, and detection stats over the kept set are a sound lower bound
/// for the full universe (unlike untestable faults, dominated faults are
/// usually detectable). Two proof rules:
///
///   requant-equality — same-(layer, channel) faults whose faulted requant
///     step functions are provably EQUAL on the reachable accumulator
///     interval produce bit-identical faulted models (detection-equivalent:
///     the implication holds in both directions). Candidates: bias-code,
///     singleton-tap weight-code and requant-multiplier faults.
///   logit-shift — on the model's monotone output tail a code fault shifts
///     ONE final input feature or class logit pointwise with a fixed sign.
///     At the dequantizing output layer itself, argmax is monotone in a
///     single logit; one dense layer upstream (reached through only
///     nondecreasing activation LUTs / flatten), the shifted feature enters
///     the final logits affinely, and an argmax that picks the clean label
///     at shift 0 and at the larger shift picks it at every shift between.
///     Either way, for same-site faults whose shifts share a sign,
///     detecting the SMALLER shift implies detecting the larger; the
///     minimal shift is kept as representative, the easier larger-shift
///     faults drop. Guarded by a per-class |bias| + 128 * sum|w| < 2^24
///     bound on the output layer, which makes the float logits an exactly
///     order-preserving image of the integer accumulators (no int32 wrap,
///     no saturation, exact int -> float conversion).
struct DominanceReport {
  /// Parallel to the universe: index of the fault's representative (its own
  /// index when not merged).
  std::vector<std::size_t> representative;
  /// Parallel to the universe: 1 = dropped in favour of its representative.
  std::vector<std::uint8_t> dominated;
  std::size_t count = 0;

  /// "dominated 96/512 (18.8%)" one-liner.
  std::string summary(std::size_t universe_size) const;
};

/// Proves dominance over `universe` against `range` (which must come from
/// analyze_ranges over the same `model`). Deterministic; faults matching no
/// rule keep their own class.
DominanceReport analyze_dominance(const quant::QuantModel& model,
                                  const ModelRange& range,
                                  const fault::FaultUniverse& universe);

/// The universe with dominated faults removed, order preserved.
fault::FaultUniverse prune_dominated(const fault::FaultUniverse& universe,
                                     const DominanceReport& report);

/// Exact equality test of two monotone nondecreasing int64 -> int8-code step
/// functions on [lo, hi]: walks the <= 256 constant segments of `f`
/// (binary-searching each segment end) and checks `g` agrees at both
/// endpoints of every segment. Returns false (sound: "cannot prove equal")
/// if either function is detected non-monotone or the walk exceeds its
/// segment budget. Exposed for tests.
template <typename F, typename G>
bool equal_on_interval(F&& f, G&& g, std::int64_t lo, std::int64_t hi) {
  if (lo > hi) return true;
  if (f(lo) > f(hi) || g(lo) > g(hi)) return false;
  std::int64_t a = lo;
  // An int8-valued monotone step function has at most 255 jumps; the guard
  // fails closed if the callables misbehave.
  for (int guard = 0; guard < 300; ++guard) {
    const int v = f(a);
    if (g(a) != v) return false;
    std::int64_t b = hi;
    if (f(hi) != v) {
      // Largest x with f(x) == v: f is monotone, so bisect the boundary.
      std::int64_t x_lo = a;
      std::int64_t x_hi = hi;  // f(x_lo) == v, f(x_hi) > v
      while (x_lo + 1 < x_hi) {
        const std::int64_t mid = x_lo + (x_hi - x_lo) / 2;
        if (f(mid) == v) {
          x_lo = mid;
        } else {
          x_hi = mid;
        }
      }
      b = x_lo;
    }
    if (g(b) != v) return false;
    if (b == hi) return true;
    a = b + 1;
  }
  return false;
}

}  // namespace dnnv::analysis

#endif  // DNNV_ANALYSIS_TESTABILITY_H_
