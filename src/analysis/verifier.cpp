#include "analysis/verifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/range_analysis.h"
#include "ip/systolic.h"
#include "pipeline/deliverable.h"
#include "quant/qops.h"
#include "quant/quantize.h"
#include "util/error.h"

namespace dnnv::analysis {
namespace {

using quant::QLayer;
using quant::QLayerKind;

class FindingSink {
 public:
  explicit FindingSink(std::vector<Finding>& out) : out_(out) {}

  template <typename... Parts>
  void add(Severity severity, const char* rule, const std::string& location,
           Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    out_.push_back(Finding{severity, rule, location, os.str()});
  }

 private:
  std::vector<Finding>& out_;
};

std::string layer_loc(std::size_t li, const QLayer& q) {
  std::ostringstream os;
  os << "L" << li << " " << (q.name.empty() ? "?" : q.name);
  return os.str();
}

bool finite_positive(float v) { return std::isfinite(v) && v > 0.0f; }

void check_scales(FindingSink& sink, std::size_t li, const QLayer& q,
                  float prev_out_scale) {
  const std::string loc = layer_loc(li, q);
  if (!finite_positive(q.in_scale) || !finite_positive(q.out_scale)) {
    sink.add(Severity::kError, "scale-positive", loc,
             "in/out scales must be finite and > 0 (got ", q.in_scale, " / ",
             q.out_scale, ")");
  }
  if (li > 0 && q.in_scale != prev_out_scale) {
    sink.add(Severity::kError, "scale-chain", loc,
             "in_scale ", q.in_scale, " != previous layer's out_scale ",
             prev_out_scale);
  }
  if ((q.kind == QLayerKind::kMaxPool || q.kind == QLayerKind::kFlatten) &&
      q.in_scale != q.out_scale) {
    sink.add(Severity::kError, "scale-chain", loc,
             "scale must pass through unchanged (in ", q.in_scale, ", out ",
             q.out_scale, ")");
  }
}

void check_param_layer(FindingSink& sink, std::size_t li, const QLayer& q) {
  const std::string loc = layer_loc(li, q);
  if (q.kind == QLayerKind::kConv2d &&
      (q.in_channels < 1 || q.out_channels < 1 || q.kernel < 1 ||
       q.stride < 1 || q.pad < 0)) {
    sink.add(Severity::kError, "geometry", loc, "invalid conv geometry ",
             q.in_channels, "->", q.out_channels, " k", q.kernel, " s",
             q.stride, " p", q.pad);
    return;  // channel/fanin products below would be nonsense
  }
  if (q.kind == QLayerKind::kDense &&
      (q.in_features < 1 || q.out_features < 1)) {
    sink.add(Severity::kError, "geometry", loc, "invalid dense geometry ",
             q.in_features, "->", q.out_features);
    return;
  }

  const std::int64_t channels = quant::weight_channels(q);
  const std::int64_t fanin = quant::weight_fanin(q);
  if (static_cast<std::int64_t>(q.weights.size()) != channels * fanin) {
    sink.add(Severity::kError, "weight-size", loc, "weights holds ",
             q.weights.size(), " codes, geometry needs ", channels * fanin);
  }
  if (static_cast<std::int64_t>(q.bias_codes.size()) != channels) {
    sink.add(Severity::kError, "weight-size", loc, "bias holds ",
             q.bias_codes.size(), " codes, geometry needs ", channels);
  }
  if (static_cast<std::int64_t>(q.wscales.size()) != channels) {
    sink.add(Severity::kError, "weight-size", loc, "wscales holds ",
             q.wscales.size(), " entries, expected one per channel (",
             channels, ")");
  }
  for (const float s : q.wscales) {
    if (!finite_positive(s)) {
      sink.add(Severity::kError, "scale-positive", loc,
               "weight scale must be finite and > 0 (got ", s, ")");
      break;
    }
  }
  if (!finite_positive(q.bias_scale)) {
    sink.add(Severity::kError, "scale-positive", loc,
             "bias_scale must be finite and > 0 (got ", q.bias_scale, ")");
  }

  // The engine's symmetric-code invariant: -128 is never a valid code.
  std::size_t bad_codes = 0;
  for (const std::int8_t c : q.weights) bad_codes += c == -128 ? 1u : 0u;
  for (const std::int8_t c : q.bias_codes) bad_codes += c == -128 ? 1u : 0u;
  if (bad_codes > 0) {
    sink.add(Severity::kError, "code-range", loc, bad_codes,
             " parameter code(s) hold -128, outside the symmetric int8 grid");
  }

  // Derived state, when present (a freshly loaded/quantized model always
  // refreshes; absent derived state on a layer that needs it is an error).
  if (q.dequant_output) {
    if (static_cast<std::int64_t>(q.dequant_scales.size()) != channels) {
      sink.add(Severity::kError, "derived-state", loc,
               "dequant layer carries ", q.dequant_scales.size(),
               " dequant scales for ", channels, " channels");
    }
  } else {
    if (static_cast<std::int64_t>(q.requant.size()) != channels) {
      sink.add(Severity::kError, "derived-state", loc, "layer carries ",
               q.requant.size(), " requant entries for ", channels,
               " channels");
    }
    constexpr std::int64_t kQ31Lo = std::int64_t{1} << 30;
    constexpr std::int64_t kQ31Hi = (std::int64_t{1} << 31) - 1;
    for (std::size_t c = 0; c < q.requant.size(); ++c) {
      const std::int64_t m = q.requant[c].multiplier;
      const int shift = q.requant[c].shift;
      if (m != 0 && (m < kQ31Lo || m > kQ31Hi)) {
        sink.add(Severity::kError, "requant-multiplier-range", loc,
                 "channel ", c, " multiplier ", m,
                 " outside the normalized Q31 band [2^30, 2^31)");
      }
      if (shift < 0 || shift > 62) {
        sink.add(Severity::kError, "requant-shift-range", loc, "channel ", c,
                 " shift ", shift, " outside [0, 62]");
      }
    }
  }

  // Bias values that clamp on the int32 accumulator grid execute, but the
  // clamp silently rewrites the layer's affine map.
  for (std::size_t c = 0;
       c < q.bias_codes.size() &&
       static_cast<std::int64_t>(c) < channels && c < q.wscales.size();
       ++c) {
    const double acc_scale =
        static_cast<double>(q.in_scale) *
        static_cast<double>(quant::wscale_for(q, static_cast<std::int64_t>(c)));
    if (acc_scale <= 0.0 || !std::isfinite(acc_scale)) break;
    const double v =
        static_cast<double>(q.bias_scale) * q.bias_codes[c] / acc_scale;
    if (std::abs(v) >
        static_cast<double>(std::numeric_limits<std::int32_t>::max())) {
      sink.add(Severity::kWarning, "bias-width", loc, "channel ", c,
               " bias saturates the int32 accumulator grid (", v, ")");
      break;
    }
  }
}

void check_activation_layer(FindingSink& sink, std::size_t li,
                            const QLayer& q) {
  const std::string loc = layer_loc(li, q);
  bool out_of_range = false;
  for (const std::int8_t v : q.lut) out_of_range |= v == -128;
  if (out_of_range) {
    sink.add(Severity::kError, "lut-range", loc,
             "LUT emits -128, outside the symmetric int8 grid");
  }
  // The LUT is derived state: it must cover the full 256-code domain with
  // exactly the values build_activation_lut produces for the layer's scales.
  // A truncated or tampered table diverges somewhere.
  const std::array<std::int8_t, 256> expected =
      quant::build_activation_lut(q.activation, q.in_scale, q.out_scale);
  if (q.lut != expected) {
    std::size_t diverging = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      diverging += q.lut[i] != expected[i] ? 1u : 0u;
    }
    sink.add(Severity::kError, "lut-domain", loc, "LUT diverges from the '",
             nn::to_string(q.activation), "' table at ", diverging,
             " of 256 codes");
  }
}

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Finding::format() const {
  std::ostringstream os;
  os << to_string(severity) << "[" << rule << "] " << location << ": "
     << message;
  return os.str();
}

std::vector<Finding> verify_layers(const std::vector<quant::QLayer>& layers,
                                   int num_classes) {
  std::vector<Finding> findings;
  FindingSink sink(findings);
  if (layers.empty()) {
    sink.add(Severity::kError, "layer-order", "model", "model has no layers");
    return findings;
  }
  if (layers.front().kind != QLayerKind::kQuantize) {
    sink.add(Severity::kError, "layer-order", layer_loc(0, layers.front()),
             "first layer must be the quantize stage");
  }
  std::size_t quantize_layers = 0;
  std::size_t dequant_layers = 0;

  // Channel-count chain; -1 until the first parameter layer pins it.
  std::int64_t units = -1;
  float prev_out_scale = 0.0f;

  for (std::size_t li = 0; li < layers.size(); ++li) {
    const QLayer& q = layers[li];
    const std::string loc = layer_loc(li, q);
    check_scales(sink, li, q, prev_out_scale);
    prev_out_scale = q.out_scale;

    switch (q.kind) {
      case QLayerKind::kQuantize:
        ++quantize_layers;
        if (li != 0) {
          sink.add(Severity::kError, "layer-order", loc,
                   "quantize stage must be layer 0");
        }
        if (q.input_norm_scale == 0.0f ||
            !std::isfinite(q.input_norm_scale)) {
          sink.add(Severity::kError, "scale-positive", loc,
                   "input_norm_scale must be finite and non-zero");
        }
        break;

      case QLayerKind::kConv2d:
        check_param_layer(sink, li, q);
        if (units >= 0 && q.in_channels != units) {
          sink.add(Severity::kError, "shape-chain", loc, "consumes ",
                   q.in_channels, " channels, previous layer produces ",
                   units);
        }
        units = q.out_channels;
        if (q.dequant_output) {
          sink.add(Severity::kError, "layer-order", loc,
                   "conv layers cannot dequantize");
        }
        break;

      case QLayerKind::kDense:
        check_param_layer(sink, li, q);
        if (units >= 0 && (q.in_features < units ||
                           (units > 0 && q.in_features % units != 0))) {
          sink.add(Severity::kError, "shape-chain", loc, "consumes ",
                   q.in_features, " features, not a multiple of the ", units,
                   " upstream channels");
        }
        units = q.out_features;
        if (q.dequant_output) {
          ++dequant_layers;
          if (li + 1 != layers.size()) {
            sink.add(Severity::kError, "layer-order", loc,
                     "dequantizing logit layer must be last");
          }
          if (num_classes > 0 && q.out_features != num_classes) {
            sink.add(Severity::kError, "num-classes", loc, "emits ",
                     q.out_features, " logits, model declares ", num_classes,
                     " classes");
          }
        }
        break;

      case QLayerKind::kMaxPool:
        if (q.kernel < 1 || q.stride < 1) {
          sink.add(Severity::kError, "geometry", loc,
                   "invalid pool geometry k", q.kernel, " s", q.stride);
        }
        break;

      case QLayerKind::kActivation:
        check_activation_layer(sink, li, q);
        break;

      case QLayerKind::kFlatten:
        break;
    }
  }

  if (quantize_layers != 1) {
    sink.add(Severity::kError, "layer-order", "model", "expected exactly 1 ",
             "quantize stage, found ", quantize_layers);
  }
  if (dequant_layers != 1) {
    sink.add(Severity::kError, "layer-order", "model",
             "expected exactly 1 dequantizing logit layer, found ",
             dequant_layers);
  }
  return findings;
}

std::vector<Finding> verify_model(const quant::QuantModel& model) {
  std::vector<Finding> findings =
      verify_layers(model.layers(), model.num_classes());
  if (has_errors(findings)) return findings;  // ranges assume sane geometry

  FindingSink sink(findings);
  const ModelRange range = analyze_ranges(model);
  for (std::size_t li = 0; li < range.layers.size(); ++li) {
    const LayerRange& lr = range.layers[li];
    if (lr.acc.empty()) continue;
    const QLayer& q = model.layers()[li];
    const std::string loc = layer_loc(li, q);
    std::size_t overflow = 0;
    for (const std::uint8_t o : lr.overflow) overflow += o;
    if (overflow > 0) {
      sink.add(Severity::kWarning, "acc-overflow", loc, overflow, " of ",
               lr.acc.size(),
               " channel(s) can wrap the raw int32 accumulator");
    }
    std::size_t saturable = 0;
    for (const Interval& t : lr.acc) {
      saturable += (t.lo < std::numeric_limits<std::int32_t>::min() ||
                    t.hi > std::numeric_limits<std::int32_t>::max())
                       ? 1u
                       : 0u;
    }
    if (saturable > 0) {
      sink.add(Severity::kWarning, "bias-saturation", loc, saturable, " of ",
               lr.acc.size(), " channel(s) can clamp in the biased adder");
    }
    if (!q.dequant_output) {
      std::size_t dead = 0;
      for (const Interval& o : lr.out) dead += o == Interval{0, 0} ? 1u : 0u;
      if (dead > 0) {
        sink.add(Severity::kInfo, "dead-channel", loc, dead, " of ",
                 lr.out.size(), " channel(s) statically emit only code 0");
      }
    }
  }
  return findings;
}

std::vector<Finding> verify_deliverable(const pipeline::Deliverable& bundle) {
  std::vector<Finding> findings;
  if (bundle.has_quant) {
    findings = verify_model(bundle.qmodel);
  }
  FindingSink sink(findings);
  const pipeline::Manifest& m = bundle.manifest;

  if (m.num_tests != static_cast<std::int64_t>(bundle.suite.size())) {
    sink.add(Severity::kError, "manifest-tests", "manifest", "declares ",
             m.num_tests, " tests, bundle carries ", bundle.suite.size());
  }
  if (!(m.coverage >= 0.0 && m.coverage <= 1.0)) {
    sink.add(Severity::kError, "manifest-coverage", "manifest", "coverage ",
             m.coverage, " outside [0, 1]");
  }
  if (m.backend == "int8" && !bundle.has_quant) {
    sink.add(Severity::kError, "manifest-backend", "manifest",
             "suite qualified on 'int8' but no int8 artifact is shipped");
  }
  if (!m.fault_model.empty()) {
    if (!bundle.has_quant) {
      sink.add(Severity::kError, "manifest-fault", "manifest",
               "fault qualification '", m.fault_model,
               "' requires the int8 artifact");
    }
    if (m.fault_universe < 0 || m.fault_detected < 0 ||
        m.fault_detected > m.fault_universe) {
      sink.add(Severity::kError, "manifest-fault", "manifest",
               "inconsistent fault counts: detected ", m.fault_detected,
               " of ", m.fault_universe);
    }
  }
  // Static-analysis provenance: the user side re-measures this count, so a
  // negative one can only be corruption.
  if (m.fault_dominated < 0) {
    sink.add(Severity::kError, "manifest-analysis", "manifest",
             "negative dominated-fault count ", m.fault_dominated);
  }
  if (bundle.has_quant) {
    const int classes = bundle.qmodel.num_classes();
    std::size_t bad = 0;
    for (const int label : bundle.suite.golden_labels()) {
      bad += (label < 0 || label >= classes) ? 1u : 0u;
    }
    if (bad > 0) {
      sink.add(Severity::kError, "suite-labels", "suite", bad,
               " golden label(s) outside [0, ", classes, ")");
    }
  }
  return findings;
}

std::vector<Finding> verify_systolic(const ip::SystolicConfig& config) {
  std::vector<Finding> findings;
  FindingSink sink(findings);
  const std::string loc = "systolic";
  if (config.rows <= 0 || config.cols <= 0) {
    sink.add(Severity::kError, "systolic-dims", loc, "MAC array ",
             config.rows, "x", config.cols, " has a non-positive dimension");
  } else if (config.rows > 1024 || config.cols > 1024) {
    sink.add(Severity::kWarning, "systolic-dims", loc, "MAC array ",
             config.rows, "x", config.cols,
             " exceeds 1024 lanes on an axis — datasheet-implausible");
  }
  if (!std::isfinite(config.frequency_mhz) || config.frequency_mhz <= 0.0) {
    sink.add(Severity::kError, "systolic-frequency", loc, "clock ",
             config.frequency_mhz, " MHz must be finite and > 0");
  } else if (config.frequency_mhz > 10000.0) {
    sink.add(Severity::kWarning, "systolic-frequency", loc, "clock ",
             config.frequency_mhz, " MHz is past any plausible core clock");
  }
  if (!std::isfinite(config.memory_bytes_per_cycle) ||
      config.memory_bytes_per_cycle <= 0.0) {
    sink.add(Severity::kError, "systolic-bandwidth", loc, "bandwidth ",
             config.memory_bytes_per_cycle,
             " bytes/cycle must be finite and > 0");
  }
  if (config.tile_overhead_cycles < 0) {
    sink.add(Severity::kError, "systolic-overhead", loc, "tile overhead ",
             config.tile_overhead_cycles, " cycles is negative");
  } else if (config.tile_overhead_cycles > 4096) {
    sink.add(Severity::kWarning, "systolic-overhead", loc, "tile overhead ",
             config.tile_overhead_cycles,
             " cycles would dwarf per-tile compute");
  }
  return findings;
}

std::vector<Finding> verify_systolic_cost(const ip::ModelCost& cost,
                                          const ip::SystolicConfig& config) {
  std::vector<Finding> findings = verify_systolic(config);
  if (has_errors(findings)) return findings;  // bounds assume sane geometry

  FindingSink sink(findings);
  const std::int64_t lanes =
      static_cast<std::int64_t>(config.rows) * config.cols;
  std::int64_t total = 0;
  for (std::size_t li = 0; li < cost.layers.size(); ++li) {
    const ip::LayerCost& layer = cost.layers[li];
    std::ostringstream os;
    os << "L" << li << " " << (layer.name.empty() ? "?" : layer.name);
    const std::string loc = os.str();
    if (layer.macs < 0 || layer.weight_bytes < 0 ||
        layer.compute_cycles < 0 || layer.memory_cycles < 0) {
      sink.add(Severity::kError, "systolic-cost-negative", loc,
               "negative counter in the cost entry");
      continue;
    }
    if (layer.cycles !=
        std::max(layer.compute_cycles, layer.memory_cycles)) {
      sink.add(Severity::kError, "systolic-cycle-bound", loc, "cycles ",
               layer.cycles, " != max(compute ", layer.compute_cycles,
               ", memory ", layer.memory_cycles, ")");
    }
    // The array retires at most rows*cols MACs per cycle; a compute count
    // below ceil(macs / lanes) claims super-peak throughput.
    const std::int64_t floor_cycles = (layer.macs + lanes - 1) / lanes;
    if (layer.macs > 0 && layer.compute_cycles < floor_cycles) {
      sink.add(Severity::kError, "systolic-cycle-bound", loc, "compute ",
               layer.compute_cycles, " cycles below the ", config.rows, "x",
               config.cols, " peak lower bound ", floor_cycles);
    }
    total += layer.cycles;
  }
  if (total != cost.total_cycles) {
    sink.add(Severity::kError, "systolic-total", "systolic", "total ",
             cost.total_cycles, " cycles != per-layer sum ", total);
  }
  return findings;
}

bool has_errors(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) return true;
  }
  return false;
}

std::size_t count_severity(const std::vector<Finding>& findings,
                           Severity severity) {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.severity == severity ? 1u : 0u;
  return n;
}

void require_valid(const std::vector<Finding>& findings,
                   const std::string& what) {
  if (!has_errors(findings)) return;
  std::ostringstream os;
  os << what << ": IR verification failed with "
     << count_severity(findings, Severity::kError) << " error(s):";
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) os << "\n  " << f.format();
  }
  DNNV_THROW(os.str());
}

}  // namespace dnnv::analysis
