#include "analysis/testability.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "quant/quantize.h"

namespace dnnv::analysis {
namespace {

constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

std::int64_t sat32(std::int64_t v) { return std::clamp(v, kI32Min, kI32Max); }

std::int8_t rq_of(std::int64_t biased_acc, const quant::Requant& rq) {
  return quant::requantize(static_cast<std::int32_t>(sat32(biased_acc)), rq);
}

/// True iff the first activation LUT downstream of `layer` (crossing only
/// value-preserving maxpool/flatten layers) maps every code of `codes` to
/// one single value — then a fault whose effect on its channel stays inside
/// `codes` leaves the post-activation tensor, and everything after it,
/// bit-identical to the clean run.
bool activation_collapses(const quant::QuantModel& model, std::size_t layer,
                          const Interval& codes) {
  const std::vector<quant::QLayer>& layers = model.layers();
  for (std::size_t li = layer + 1; li < layers.size(); ++li) {
    const quant::QLayer& q = layers[li];
    if (q.kind == quant::QLayerKind::kMaxPool ||
        q.kind == quant::QLayerKind::kFlatten) {
      continue;
    }
    if (q.kind != quant::QLayerKind::kActivation) return false;
    return lut_image(q.lut, codes).singleton();
  }
  return false;
}

Interval hull(const Interval& a, const Interval& b) {
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

/// Requant-then-maybe-activation masking for a fault confined to `channel`:
/// clean biased accumulators live in T, faulted ones in T shifted by
/// [delta.lo, delta.hi] (an interval containing 0). Proves either that every
/// reachable accumulator requantizes identically under the whole shift band,
/// or that the downstream LUT collapses both ranges to one constant.
UntestableReason masked_after_shift(const quant::QuantModel& model,
                                    const quant::QLayer& q, std::size_t layer,
                                    std::int64_t channel, const Interval& T,
                                    const Interval& delta) {
  const quant::Requant rq = q.requant[static_cast<std::size_t>(channel)];
  const auto g_lo = [&](std::int64_t t) -> int { return rq_of(t + delta.lo, rq); };
  const auto g_hi = [&](std::int64_t t) -> int { return rq_of(t + delta.hi, rq); };
  // rq_of is monotone nondecreasing in the shift as well, so g_lo == g_hi on
  // T pins every intermediate shift — including 0 (clean) and the actual
  // per-input fault effect — to the same code.
  if (equal_on_interval(g_lo, g_hi, T.lo, T.hi)) {
    return UntestableReason::kRequantMasked;
  }
  const Interval clean{rq_of(T.lo, rq), rq_of(T.hi, rq)};
  const Interval faulted{rq_of(T.lo + delta.lo, rq), rq_of(T.hi + delta.hi, rq)};
  if (activation_collapses(model, layer, hull(clean, faulted))) {
    return UntestableReason::kActivationMasked;
  }
  return UntestableReason::kTestable;
}

/// The output channel a fault's site belongs to.
std::int64_t fault_channel(const quant::QLayer& q, const fault::Fault& f) {
  return fault::is_code_fault(f.kind) && !f.is_bias
             ? f.unit / quant::weight_fanin(q)
             : f.unit;
}

UntestableReason classify_fault(const quant::QuantModel& model,
                                const ModelRange& range,
                                const fault::Fault& f) {
  const quant::QLayer& q = model.layers()[f.layer];
  if (q.kind != quant::QLayerKind::kConv2d &&
      q.kind != quant::QLayerKind::kDense) {
    return UntestableReason::kTestable;
  }
  const LayerRange& lr = range.layers[f.layer];
  const std::int64_t fanin = quant::weight_fanin(q);
  const std::int64_t channel = fault_channel(q, f);
  if (channel < 0 || channel >= static_cast<std::int64_t>(lr.acc.size())) {
    return UntestableReason::kTestable;
  }
  const std::size_t sc = static_cast<std::size_t>(channel);
  const Interval T = lr.acc[sc];

  if (fault::is_code_fault(f.kind)) {
    // Effect on the biased accumulator, as an interval containing 0.
    Interval delta{0, 0};
    if (f.is_bias != 0) {
      const std::int8_t prev = q.bias_codes[static_cast<std::size_t>(f.unit)];
      const std::int8_t next = fault::faulted_code(prev, f);
      const std::int64_t d =
          static_cast<std::int64_t>(quant::bias_code_to_i32(q, channel, next)) -
          static_cast<std::int64_t>(q.bias_i32[sc]);
      delta = Interval{std::min<std::int64_t>(d, 0),
                       std::max<std::int64_t>(d, 0)};
    } else {
      const std::int8_t prev = q.weights[static_cast<std::size_t>(f.unit)];
      const std::int8_t next = fault::faulted_code(prev, f);
      const std::int64_t dw =
          static_cast<std::int64_t>(next) - static_cast<std::int64_t>(prev);
      if (dw == 0) return UntestableReason::kNoExcitation;
      const Interval x = tap_interval(q, lr.in, f.unit % fanin);
      const std::int64_t d1 = dw * x.lo;
      const std::int64_t d2 = dw * x.hi;
      delta = Interval{std::min({d1, d2, std::int64_t{0}}),
                       std::max({d1, d2, std::int64_t{0}})};
    }
    if (delta.lo == 0 && delta.hi == 0) return UntestableReason::kNoExcitation;
    // Past this point the proofs model the faulted accumulator as T + delta;
    // that needs both the clean and the faulted raw gemm sum inside int32
    // (a wrapped sum is an arbitrary value the shift argument cannot track).
    if (lr.overflow[sc] != 0) return UntestableReason::kTestable;
    const std::int64_t bias = q.bias_i32[sc];
    if (T.lo - bias + delta.lo < kI32Min || T.hi - bias + delta.hi > kI32Max) {
      return UntestableReason::kTestable;
    }
    if (q.dequant_output) return UntestableReason::kTestable;
    return masked_after_shift(model, q, f.layer, channel, T, delta);
  }

  if (f.kind == fault::FaultKind::kRequantMult) {
    if (q.dequant_output) return UntestableReason::kTestable;
    const quant::Requant rq1 = q.requant[sc];
    quant::Requant rq2 = rq1;
    rq2.multiplier = rq1.multiplier ^ (std::int32_t{1} << f.bit);
    const auto f1 = [&](std::int64_t t) -> int { return rq_of(t, rq1); };
    const auto f2 = [&](std::int64_t t) -> int { return rq_of(t, rq2); };
    // Both multipliers are non-negative (bits 0..30), so both curves are
    // monotone and the segment walk is an exact equality decision over T.
    if (equal_on_interval(f1, f2, T.lo, T.hi)) {
      return UntestableReason::kRequantMasked;
    }
    const Interval clean{f1(T.lo), f1(T.hi)};
    const Interval faulted{f2(T.lo), f2(T.hi)};
    if (activation_collapses(model, f.layer, hull(clean, faulted))) {
      return UntestableReason::kActivationMasked;
    }
    return UntestableReason::kTestable;
  }

  if (f.kind == fault::FaultKind::kAccStuckAt0 ||
      f.kind == fault::FaultKind::kAccStuckAt1) {
    const bool stuck1 = f.kind == fault::FaultKind::kAccStuckAt1;
    // The armed fault masks the POST-saturation int32 accumulator.
    const Interval a{sat32(T.lo), sat32(T.hi)};
    const int bit = f.bit;
    if ((a.lo >> bit) == (a.hi >> bit)) {
      // Bits [bit, 31] are constant across the interval, so bit `bit` is
      // too; a bit already at its stuck value never changes anything.
      const bool bit_set = ((a.lo >> bit) & 1) != 0;
      if (bit_set == stuck1) return UntestableReason::kNoExcitation;
    }
    if (q.dequant_output) return UntestableReason::kTestable;
    // Hull of the faulted values over a in [a.lo, a.hi].
    Interval faulted_acc{};
    if (bit < 31) {
      const std::int64_t mask = std::int64_t{1} << bit;
      faulted_acc = stuck1 ? Interval{a.lo, a.hi + mask}
                           : Interval{a.lo - mask, a.hi};
    } else {
      // Sign bit: piecewise over the sign of a.
      const std::int64_t two31 = std::int64_t{1} << 31;
      std::int64_t flo = std::numeric_limits<std::int64_t>::max();
      std::int64_t fhi = std::numeric_limits<std::int64_t>::min();
      const auto merge = [&](std::int64_t lo2, std::int64_t hi2) {
        flo = std::min(flo, lo2);
        fhi = std::max(fhi, hi2);
      };
      if (stuck1) {  // a < 0 unchanged; a >= 0 -> a - 2^31
        if (a.lo < 0) merge(a.lo, std::min<std::int64_t>(a.hi, -1));
        if (a.hi >= 0) {
          merge(std::max<std::int64_t>(a.lo, 0) - two31, a.hi - two31);
        }
      } else {  // a >= 0 unchanged; a < 0 -> a + 2^31
        if (a.hi >= 0) merge(std::max<std::int64_t>(a.lo, 0), a.hi);
        if (a.lo < 0) {
          merge(a.lo + two31, std::min<std::int64_t>(a.hi, -1) + two31);
        }
      }
      faulted_acc = Interval{flo, fhi};
    }
    const quant::Requant rq = q.requant[sc];
    const Interval u = hull(a, faulted_acc);
    // Single-bit masking is not monotone in a, so no pointwise walk here:
    // prove the requant curve constant over everything either run can see.
    if (rq_of(u.lo, rq) == rq_of(u.hi, rq)) {
      return UntestableReason::kRequantMasked;
    }
    const Interval clean{rq_of(a.lo, rq), rq_of(a.hi, rq)};
    const Interval faulted{rq_of(faulted_acc.lo, rq),
                           rq_of(faulted_acc.hi, rq)};
    if (activation_collapses(model, f.layer, hull(clean, faulted))) {
      return UntestableReason::kActivationMasked;
    }
    return UntestableReason::kTestable;
  }

  return UntestableReason::kTestable;
}

}  // namespace

const char* to_string(UntestableReason reason) {
  switch (reason) {
    case UntestableReason::kTestable: return "testable";
    case UntestableReason::kNoExcitation: return "no-excitation";
    case UntestableReason::kRequantMasked: return "requant-masked";
    case UntestableReason::kActivationMasked: return "activation-masked";
  }
  return "?";
}

std::string TestabilityReport::summary(std::size_t universe_size) const {
  std::ostringstream os;
  const double pct =
      universe_size == 0
          ? 0.0
          : 100.0 * static_cast<double>(untestable) /
                static_cast<double>(universe_size);
  os << "untestable " << untestable << "/" << universe_size << " ("
     << std::fixed << std::setprecision(1) << pct << "%): " << no_excitation
     << " no-excitation, " << requant_masked << " requant-masked, "
     << activation_masked << " activation-masked";
  return os.str();
}

TestabilityReport classify_universe(const quant::QuantModel& model,
                                    const ModelRange& range,
                                    const fault::FaultUniverse& universe) {
  TestabilityReport report;
  report.reasons.reserve(universe.size());
  for (const fault::Fault& f : universe.faults()) {
    const UntestableReason reason = classify_fault(model, range, f);
    report.reasons.push_back(reason);
    switch (reason) {
      case UntestableReason::kTestable: break;
      case UntestableReason::kNoExcitation: ++report.no_excitation; break;
      case UntestableReason::kRequantMasked: ++report.requant_masked; break;
      case UntestableReason::kActivationMasked:
        ++report.activation_masked;
        break;
    }
  }
  report.untestable =
      report.no_excitation + report.requant_masked + report.activation_masked;
  return report;
}

fault::FaultUniverse prune_untestable(const fault::FaultUniverse& universe,
                                      const TestabilityReport& report) {
  fault::FaultUniverse pruned;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (!report.is_untestable(i)) pruned.add(universe[i]);
  }
  return pruned;
}

std::string DominanceReport::summary(std::size_t universe_size) const {
  std::ostringstream os;
  const double pct = universe_size == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(count) /
                               static_cast<double>(universe_size);
  os << "dominated " << count << "/" << universe_size << " (" << std::fixed
     << std::setprecision(1) << pct << "%)";
  return os.str();
}

namespace {

/// Requant-equality candidate: its faulted output on the channel is EXACTLY
/// rq_of(t + d, rq) of the clean biased accumulator t — a pure function of
/// t, so two candidates with provably equal step functions on the reachable
/// interval yield bit-identical faulted models.
struct DomCandidate {
  std::size_t index = 0;
  std::int64_t d = 0;
  quant::Requant rq{};
};

/// Logit-shift candidate on the monotone output tail: the fault shifts its
/// site's value pointwise by a quantity of fixed sign whose magnitude scales
/// with `mag`; same-site same-sign candidates are totally ordered by it.
struct LogitCandidate {
  std::size_t index = 0;
  std::int64_t mag = 0;
};

/// True iff `lut` is monotone nondecreasing over the SIGNED code order (the
/// engine indexes it by uint8-cast int8 codes).
bool lut_monotone(const std::array<std::int8_t, 256>& lut) {
  for (int c = -128; c < 127; ++c) {
    const std::int8_t lo = lut[static_cast<std::uint8_t>(static_cast<std::int8_t>(c))];
    const std::int8_t hi =
        lut[static_cast<std::uint8_t>(static_cast<std::int8_t>(c + 1))];
    if (lo > hi) return false;
  }
  return true;
}

/// The monotone output tail the logit-shift rule is sound on: the final
/// dequantizing dense layer F, plus (when every layer between is an
/// elementwise monotone map — nondecreasing activation LUTs, flatten) the
/// dense layer feeding it, whose channel c is final input feature c.
///
/// `headroom` certifies integer-exact argmax at F: when every biased final
/// accumulator provably satisfies |a| <= 2^24 - 1 over ALL int8 inputs
/// (|bias| + 128 * sum|w| bound), (a) the raw gemm sum never wraps int32,
/// (b) sat_add never saturates, and (c) int -> float32 conversion is exact,
/// so the float logits are an exactly monotone image of the integer
/// accumulators and distinct same-class accumulators never collapse.
struct LogitTail {
  std::size_t final_layer = static_cast<std::size_t>(-1);
  std::size_t tail_dense = static_cast<std::size_t>(-1);
  std::int64_t headroom = -1;  ///< 2^24 - 1 minus the worst-case |acc| at F
};

LogitTail find_logit_tail(const quant::QuantModel& model) {
  LogitTail tail;
  const std::vector<quant::QLayer>& layers = model.layers();
  if (layers.empty()) return tail;
  const quant::QLayer& F = layers.back();
  if (F.kind != quant::QLayerKind::kDense || !F.dequant_output) return tail;
  constexpr std::int64_t kExactLimit = (std::int64_t{1} << 24) - 1;
  std::int64_t worst = 0;
  for (std::int64_t k = 0; k < F.out_features; ++k) {
    std::int64_t s = std::abs(
        static_cast<std::int64_t>(F.bias_i32[static_cast<std::size_t>(k)]));
    for (std::int64_t j = 0; j < F.in_features; ++j) {
      s += 128 * std::abs(static_cast<std::int64_t>(
                     F.weights[static_cast<std::size_t>(k * F.in_features + j)]));
    }
    worst = std::max(worst, s);
  }
  if (worst > kExactLimit) return tail;
  tail.final_layer = layers.size() - 1;
  tail.headroom = kExactLimit - worst;
  for (std::size_t li = layers.size() - 1; li-- > 0;) {
    const quant::QLayer& q = layers[li];
    if (q.kind == quant::QLayerKind::kFlatten) continue;
    if (q.kind == quant::QLayerKind::kActivation) {
      if (!lut_monotone(q.lut)) break;
      continue;
    }
    if (q.kind == quant::QLayerKind::kDense && !q.dequant_output &&
        q.out_features == F.in_features) {
      tail.tail_dense = li;
    }
    break;
  }
  return tail;
}

}  // namespace

DominanceReport analyze_dominance(const quant::QuantModel& model,
                                  const ModelRange& range,
                                  const fault::FaultUniverse& universe) {
  DominanceReport report;
  report.representative.resize(universe.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    report.representative[i] = i;
  }
  report.dominated.assign(universe.size(), 0);

  // Bucket rule-eligible faults by fault site. Every candidate must be one
  // classify_fault cannot prove untestable: a provably untestable fault
  // trivially satisfies any implication, so letting it join (and possibly
  // win representative) would make the drop set depend on whether the
  // untestable prune ran first — the skip keeps dominance identical on
  // pruned and unpruned universes.
  const LogitTail tail = find_logit_tail(model);
  std::map<std::pair<std::size_t, std::int64_t>, std::vector<DomCandidate>>
      groups;
  std::map<std::tuple<std::size_t, std::int64_t, int, int>,
           std::vector<LogitCandidate>>
      logit_groups;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const fault::Fault& f = universe[i];
    const quant::QLayer& q = model.layers()[f.layer];
    if (q.kind != quant::QLayerKind::kConv2d &&
        q.kind != quant::QLayerKind::kDense) {
      continue;
    }
    const LayerRange& lr = range.layers[f.layer];
    const std::int64_t channel = fault_channel(q, f);
    if (channel < 0 || channel >= static_cast<std::int64_t>(lr.acc.size())) {
      continue;
    }
    const std::size_t sc = static_cast<std::size_t>(channel);
    const Interval T = lr.acc[sc];
    const bool on_final = f.layer == tail.final_layer;
    const bool on_tail_dense = f.layer == tail.tail_dense;
    if (q.dequant_output) {
      // Logit-shift rule at the OUTPUT layer, where the predicted label is
      // the argmax over exactly these channels: a code fault shifts ONE
      // class logit, argmax is monotone in a single logit, and within the
      // certified 2^24 headroom the float logits order exactly like the
      // integer accumulators — so for two same-site faults whose per-input
      // shifts share a sign, any input on which the smaller shift flips the
      // label is flipped by the larger shift too.
      if (!on_final || !fault::is_code_fault(f.kind)) continue;
      if (classify_fault(model, range, f) != UntestableReason::kTestable) {
        continue;
      }
      int sign = 0;
      std::int64_t mag = 0;
      if (f.is_bias != 0) {
        // The shift lands directly on the bias; the raw gemm sum is
        // untouched, and the headroom guard keeps the shifted accumulator
        // exact (no saturation, no float rounding).
        const std::int8_t prev =
            q.bias_codes[static_cast<std::size_t>(f.unit)];
        const std::int8_t next = fault::faulted_code(prev, f);
        const std::int64_t d =
            static_cast<std::int64_t>(
                quant::bias_code_to_i32(q, channel, next)) -
            static_cast<std::int64_t>(q.bias_i32[sc]);
        if (d == 0 || std::abs(d) > tail.headroom) continue;
        sign = d > 0 ? 1 : -1;
        mag = d > 0 ? d : -d;
      } else {
        // Per-input shift dw * x: both same-site faults see the SAME tap
        // value x, so sharing the sign of dw makes the shifts pointwise
        // same-signed and ordered by |dw| — whatever x's sign is. The
        // headroom guard bounds the shifted accumulator inside the
        // integer-exact window.
        const std::int8_t prev = q.weights[static_cast<std::size_t>(f.unit)];
        const std::int8_t next = fault::faulted_code(prev, f);
        const std::int64_t dw =
            static_cast<std::int64_t>(next) - static_cast<std::int64_t>(prev);
        if (dw == 0) continue;
        const std::int64_t fanin = quant::weight_fanin(q);
        const Interval x = tap_interval(q, lr.in, f.unit % fanin);
        const std::int64_t d1 = dw * x.lo;
        const std::int64_t d2 = dw * x.hi;
        if (std::max(std::abs(d1), std::abs(d2)) > tail.headroom) continue;
        sign = dw > 0 ? 1 : -1;
        mag = dw > 0 ? dw : -dw;
      }
      logit_groups[{f.layer, f.unit, f.is_bias != 0 ? 1 : 0, sign}].push_back(
          {i, mag});
      continue;
    }
    if (on_tail_dense && fault::is_code_fault(f.kind)) {
      // Logit-shift rule one dense layer upstream: a code fault here shifts
      // its channel's biased accumulator pointwise with a fixed sign; the
      // channel's nonnegative-multiplier requant and the monotone
      // elementwise path into the output layer preserve that ordering into
      // ONE final input feature, and the final logits are exactly affine in
      // that feature's shift (2^24 headroom) — an argmax that picks the
      // clean label at shift 0 and at the larger shift picks it at every
      // shift between (each class-pair gap is affine on the segment), so
      // detecting the smaller same-sign shift implies detecting the larger.
      if (classify_fault(model, range, f) != UntestableReason::kTestable) {
        continue;
      }
      if (q.requant[sc].multiplier < 0) continue;
      int sign = 0;
      std::int64_t mag = 0;
      bool ok = true;
      if (f.is_bias != 0) {
        // sat_add is monotone in the bias and the raw gemm sum is untouched
        // — the code-space ordering survives saturation, no guards needed.
        const std::int8_t prev =
            q.bias_codes[static_cast<std::size_t>(f.unit)];
        const std::int8_t next = fault::faulted_code(prev, f);
        const std::int64_t d =
            static_cast<std::int64_t>(
                quant::bias_code_to_i32(q, channel, next)) -
            static_cast<std::int64_t>(q.bias_i32[sc]);
        ok = d != 0;
        sign = d > 0 ? 1 : -1;
        mag = d > 0 ? d : -d;
      } else {
        // The faulted RAW gemm sum must provably stay inside int32 (a
        // wrapped sum is not raw + dw * x, and wrapping breaks the
        // pointwise ordering).
        const std::int8_t prev = q.weights[static_cast<std::size_t>(f.unit)];
        const std::int8_t next = fault::faulted_code(prev, f);
        const std::int64_t dw =
            static_cast<std::int64_t>(next) - static_cast<std::int64_t>(prev);
        const std::int64_t fanin = quant::weight_fanin(q);
        const Interval x = tap_interval(q, lr.in, f.unit % fanin);
        const std::int64_t d1 = dw * x.lo;
        const std::int64_t d2 = dw * x.hi;
        const std::int64_t bias = q.bias_i32[sc];
        ok = dw != 0 && lr.overflow[sc] == 0 &&
             T.lo - bias + std::min({d1, d2, std::int64_t{0}}) >= kI32Min &&
             T.hi - bias + std::max({d1, d2, std::int64_t{0}}) <= kI32Max;
        sign = dw > 0 ? 1 : -1;
        mag = dw > 0 ? dw : -dw;
      }
      if (ok) {
        logit_groups[{f.layer, f.unit, f.is_bias != 0 ? 1 : 0, sign}]
            .push_back({i, mag});
        continue;
      }
      // Ineligible tail-dense faults fall through to the equality rule.
    }
    if (classify_fault(model, range, f) != UntestableReason::kTestable) {
      continue;
    }
    if (lr.overflow[sc] != 0) continue;
    DomCandidate cand;
    cand.index = i;
    cand.rq = q.requant[sc];
    if (fault::is_code_fault(f.kind)) {
      if (f.is_bias != 0) {
        // sat_add saturates the faulted bias add exactly as rq_of's sat32
        // models t + d — no representability guard needed.
        const std::int8_t prev =
            q.bias_codes[static_cast<std::size_t>(f.unit)];
        const std::int8_t next = fault::faulted_code(prev, f);
        cand.d = static_cast<std::int64_t>(
                     quant::bias_code_to_i32(q, channel, next)) -
                 static_cast<std::int64_t>(q.bias_i32[sc]);
      } else {
        // A weight delta is a fixed accumulator shift only when its tap is
        // pinned to one code, and the shifted RAW gemm sum must stay inside
        // int32 (a wrapped sum is not raw + d).
        const std::int8_t prev = q.weights[static_cast<std::size_t>(f.unit)];
        const std::int8_t next = fault::faulted_code(prev, f);
        const std::int64_t dw =
            static_cast<std::int64_t>(next) - static_cast<std::int64_t>(prev);
        const std::int64_t fanin = quant::weight_fanin(q);
        const Interval x = tap_interval(q, lr.in, f.unit % fanin);
        if (!x.singleton()) continue;
        cand.d = dw * x.lo;
        const std::int64_t bias = q.bias_i32[sc];
        if (T.lo - bias + std::min<std::int64_t>(cand.d, 0) < kI32Min ||
            T.hi - bias + std::max<std::int64_t>(cand.d, 0) > kI32Max) {
          continue;
        }
      }
    } else if (f.kind == fault::FaultKind::kRequantMult) {
      cand.rq.multiplier =
          cand.rq.multiplier ^ (std::int32_t{1} << f.bit);
      // Flipping the sign bit breaks monotonicity and with it the exact
      // segment-walk equality decision.
      if (cand.rq.multiplier < 0) continue;
    } else {
      continue;  // acc-stuck masking is not a monotone function of t
    }
    groups[{f.layer, channel}].push_back(cand);
  }

  for (auto& [site, cands] : groups) {
    if (cands.size() < 2) continue;
    const Interval T =
        range.layers[site.first].acc[static_cast<std::size_t>(site.second)];
    // Same-requant candidates sorted by shift d: rq_of(t + d, rq) is
    // monotone in d too, so equality classes are CONTIGUOUS runs of d (if
    // the extremes of a d-range agree everything between is squeezed equal)
    // and one walk comparing each candidate to its class head decides the
    // whole subgroup.
    std::sort(cands.begin(), cands.end(),
              [](const DomCandidate& a, const DomCandidate& b) {
                return std::tie(a.rq.multiplier, a.rq.shift, a.d, a.index) <
                       std::tie(b.rq.multiplier, b.rq.shift, b.d, b.index);
              });
    std::size_t run = 0;
    while (run < cands.size()) {
      std::size_t run_end = run + 1;
      while (run_end < cands.size() &&
             cands[run_end].rq.multiplier == cands[run].rq.multiplier &&
             cands[run_end].rq.shift == cands[run].rq.shift) {
        ++run_end;
      }
      const quant::Requant rq = cands[run].rq;
      std::size_t cls = run;
      const auto finalize = [&](std::size_t cls_end) {
        if (cls_end - cls < 2) return;
        std::size_t rep = cls;
        for (std::size_t m = cls + 1; m < cls_end; ++m) {
          if (cands[m].index < cands[rep].index) rep = m;
        }
        for (std::size_t m = cls; m < cls_end; ++m) {
          if (m == rep) continue;
          report.representative[cands[m].index] = cands[rep].index;
          report.dominated[cands[m].index] = 1;
          ++report.count;
        }
      };
      for (std::size_t j = run + 1; j < run_end; ++j) {
        bool same = cands[j].d == cands[cls].d;
        if (!same) {
          const std::int64_t d1 = cands[cls].d;
          const std::int64_t d2 = cands[j].d;
          const auto g1 = [&](std::int64_t t) -> int {
            return rq_of(t + d1, rq);
          };
          const auto g2 = [&](std::int64_t t) -> int {
            return rq_of(t + d2, rq);
          };
          same = equal_on_interval(g1, g2, T.lo, T.hi);
        }
        if (!same) {
          finalize(j);
          cls = j;
        }
      }
      finalize(run_end);
      run = run_end;
    }
  }

  // Logit-shift groups: keep the minimal shift (the hardest fault — every
  // test detecting it detects the larger shifts), drop the rest. Lowest
  // index breaks magnitude ties (equal magnitude = identical faulted code).
  for (auto& [site, cands] : logit_groups) {
    if (cands.size() < 2) continue;
    std::size_t keep = 0;
    for (std::size_t m = 1; m < cands.size(); ++m) {
      if (std::tie(cands[m].mag, cands[m].index) <
          std::tie(cands[keep].mag, cands[keep].index)) {
        keep = m;
      }
    }
    for (std::size_t m = 0; m < cands.size(); ++m) {
      if (m == keep) continue;
      report.representative[cands[m].index] = cands[keep].index;
      report.dominated[cands[m].index] = 1;
      ++report.count;
    }
  }
  return report;
}

fault::FaultUniverse prune_dominated(const fault::FaultUniverse& universe,
                                     const DominanceReport& report) {
  fault::FaultUniverse pruned;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (report.dominated[i] == 0) pruned.add(universe[i]);
  }
  return pruned;
}

}  // namespace dnnv::analysis
