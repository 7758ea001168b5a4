// Vendor-side façade: model → calibrate/quantize → generate → qualify →
// Deliverable (paper Fig 1, left half, as one call).
#ifndef DNNV_PIPELINE_VENDOR_H_
#define DNNV_PIPELINE_VENDOR_H_

#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "fault/qualify.h"
#include "pipeline/deliverable.h"
#include "quant/quantize.h"
#include "testgen/generator.h"

namespace dnnv::pipeline {

/// Everything the vendor flow is parameterised on.
struct VendorOptions {
  /// testgen registry name ("combined", "greedy", "gradient", "neuron",
  /// "random").
  std::string method = "combined";
  /// Qualification backend: "float" (suite labels from the float master) or
  /// "int8" (calibrate + quantize on the pool, labels from the integer
  /// engine — the artifact the hardware IP actually executes).
  std::string backend = "float";
  /// coverage registry name the suite is selected and measured under
  /// ("parameter", "neuron", "ksection", "boundary", "topk", or a custom
  /// registration); recorded in the manifest with its effective config.
  std::string criterion = "parameter";
  /// Criterion knobs. The "parameter" knobs are ALWAYS taken from
  /// generator.coverage inside run() — one source of truth, so selection
  /// and measurement cannot silently diverge. Range criteria calibrate on
  /// the candidate pool unless ranges are materialised here.
  cov::CriterionConfig criterion_config;
  int num_tests = 50;
  /// Method knobs; max_tests is overridden by num_tests above.
  testgen::GeneratorConfig generator;
  /// Post-training-quantization config (backend == "int8").
  quant::QuantConfig quant;
  /// Fault-qualification stage: universe preset name ("stuck-at" or "full");
  /// empty = stage off. Requires backend == "int8" — the faults live in the
  /// integer artifact. The effective UniverseConfig ships in the manifest so
  /// the user side regenerates the identical universe.
  std::string fault_model;
  /// Deterministic even-thinning cap on the enumerated universe (0 = score
  /// every fault; large models get sampled, small models are exhaustive).
  std::int64_t fault_budget = 2048;
  /// Greedily compact the suite over the dominance core before shipping:
  /// fewer tests, identical detected-fault set (fault_model must be set).
  bool compact = false;
  /// Recorded in the manifest.
  std::string model_name = "ip";
};

/// Observability sidecar of a run (everything the bundle itself does not
/// carry).
struct VendorReport {
  testgen::GenerationResult generation;  ///< tests + coverage trajectory
  double coverage = 0.0;                 ///< final criterion coverage
  DynamicBitset covered;                 ///< the covered criterion points
  std::vector<int> golden;               ///< qualification labels
  /// Tests where the int8 artifact agrees with the float master
  /// (backend == "int8" only; -1 otherwise).
  int backend_float_agreement = -1;
  /// Kernel + tiling configuration the qualification labels were produced
  /// under (backend == "int8"), so qualification logs are attributable to a
  /// micro-kernel the same way BENCH_*.json runs are.
  std::string kernel_config;
  /// Fault-qualification stats (valid iff options.fault_model was set):
  /// universe sizes, static prune, detection, dominance core, and the
  /// post-compaction suite size.
  fault::FaultQualification fault_stats;
  /// IR-verifier findings on the shipped bundle (warnings/infos only —
  /// errors abort the run at the pre-qualification or ship gate).
  std::vector<analysis::Finding> findings;
};

/// Runs the full vendor release flow. Stateless apart from its options;
/// reusable across models.
class VendorPipeline {
 public:
  explicit VendorPipeline(VendorOptions options);

  /// `pool` doubles as the generation candidate set and (for "int8") the
  /// calibration pool. Returns the release bundle; `report` (optional)
  /// receives the run's diagnostics.
  Deliverable run(const nn::Sequential& model, const Shape& item_shape,
                  int num_classes, const std::vector<Tensor>& pool,
                  VendorReport* report = nullptr) const;

  const VendorOptions& options() const { return options_; }

 private:
  VendorOptions options_;
};

}  // namespace dnnv::pipeline

#endif  // DNNV_PIPELINE_VENDOR_H_
