// Coverage criteria: which points of a model an input exercises.
//
// The paper's generation loop is "pick the input that maximizes coverage
// gain" — but WHICH coverage is a design axis of its own: the paper's
// parameter-activation metric (Eq. 2/3), the hardware-testing neuron
// baseline ([10]/[11]), and the stronger structural criteria of the DNN-
// testing literature (k-multisection / boundary / top-k neuron coverage,
// Sun et al. arXiv:1803.04792; multi-criteria generation, arXiv:2411.01033).
// Criterion normalises them all to one measurement —
//   measure(batch) -> per-item point masks, measure_pool(pool) -> one mask
//   per pool item —
// behind a fixed name table (make_criterion). A criterion holds no covered
// set: callers union masks into a cov::CoverageAccumulator (accumulator.h),
// which answers the greedy gain query. testgen::make_generator methods, the
// vendor pipeline, the CLI and the benches select criteria by name. The
// "parameter" and "neuron" criteria are thin adapters over
// ParameterCoverage / NeuronCoverage and bit-identical to them (guarded by
// coverage_criteria_test).
//
// Every criterion is batch-native (masks come from one nn::Workspace
// forward per batch) and int8-aware: bind CriterionContext::qmodel and the
// criterion measures the QuantModel's dequantized_reference() — the weights
// the IP actually carries — instead of the float master.
#ifndef DNNV_COVERAGE_CRITERION_H_
#define DNNV_COVERAGE_CRITERION_H_

#include <memory>
#include <string>
#include <vector>

#include "coverage/accumulator.h"
#include "coverage/neuron_coverage.h"
#include "coverage/parameter_coverage.h"
#include "nn/sequential.h"
#include "util/bitset.h"
#include "util/serialize.h"

namespace dnnv::quant {
class QuantModel;
}  // namespace dnnv::quant

namespace dnnv::cov {

/// Upper bound on CriterionConfig::sections. "ksection" sizes its point
/// universe as neurons × sections, so an unbounded count read from a shipped
/// manifest would size gigabyte coverage maps.
inline constexpr int kMaxSections = 1000;

/// One config for every criterion — a superset of the per-criterion knobs
/// (the GeneratorConfig idiom). Serialisable, so a Deliverable manifest
/// round-trips the exact criterion a suite was generated under.
struct CriterionConfig {
  /// "parameter": |gradient| threshold.
  CoverageConfig parameter;
  /// Neuron-family activation threshold ("neuron"; also the DeepXplore-style
  /// value extraction every neuron-family criterion shares: dense units
  /// report their activation, conv channels their plane mean).
  double neuron_threshold = 0.0;
  /// "ksection": number of sections each neuron's calibrated range splits
  /// into (DeepGauge's k-multisection coverage), in [1, kMaxSections].
  int sections = 10;
  /// "topk": per layer, the k most-activated neurons count as covered (> 0).
  int top_k = 2;
  /// Calibrated per-neuron activation ranges ("ksection"/"boundary"). Empty
  /// at construction means "calibrate from CriterionContext::calibration";
  /// Criterion::config() returns them materialised, so a shipped manifest
  /// reconstructs the SAME criterion without the vendor's pool.
  std::vector<float> range_low;
  std::vector<float> range_high;

  /// Writes the config; the leading engine byte is always 0 (the
  /// absolute-sensitivity engine, the only one).
  void save(ByteWriter& writer) const;
  /// Reads a saved config. Throws dnnv::Error on an engine byte other than
  /// 0, or on `sections`/`top_k` outside the ranges documented above.
  static CriterionConfig load(ByteReader& reader);
};

/// Everything a criterion may bind to, bundled (the GenContext idiom).
/// Pointees are borrowed and only read during make_criterion — criteria
/// clone what they keep, so the context may go away afterwards.
struct CriterionContext {
  /// The model under test (float master). Required unless qmodel is set.
  const nn::Sequential* model = nullptr;
  /// Int8 artifact: when set, the criterion binds the QuantModel's
  /// dequantized_reference() — coverage of the weights the IP executes.
  const quant::QuantModel* qmodel = nullptr;
  /// Un-batched input shape; required by the neuron-family criteria.
  Shape item_shape;
  /// Range-calibration pool for "ksection"/"boundary" (ignored when the
  /// config already carries materialised ranges).
  const std::vector<Tensor>* calibration = nullptr;
};

/// Abstract coverage criterion: a universe of total_points() coverage
/// points over one bound model and a batch-native measurement of which
/// points an input hits. Instances are single-threaded (they own a model
/// clone + workspace); clone() hands fresh instances to worker threads.
class Criterion {
 public:
  virtual ~Criterion() = default;

  /// Criterion name ("parameter", "neuron", "ksection", ...).
  virtual std::string name() const = 0;

  /// One-line human description including the effective knobs.
  virtual std::string describe() const = 0;

  /// Effective config: the constructor's knobs with calibrated state
  /// (e.g. ksection/boundary ranges) materialised — what a manifest ships.
  virtual CriterionConfig config() const = 0;

  /// Size of the point universe (parameters; neurons; neurons × sections).
  virtual std::size_t total_points() const = 0;

  /// True when points index the model's global parameter space — the hook
  /// that lets Algorithm 2's masked-model synthesis zero covered points.
  virtual bool parameter_indexed() const { return false; }

  /// Fresh instance over a clone of the bound model (worker threads).
  virtual std::unique_ptr<Criterion> clone() const = 0;

  /// Per-item point masks of one batched input [B, ...]. `masks` is resized
  /// to B with every bitset cleared in place, so steady-state calls reuse
  /// all mask storage.
  void measure(const Tensor& batch, std::vector<DynamicBitset>& masks);

  /// Allocating variant of measure().
  std::vector<DynamicBitset> measure(const Tensor& batch);

  /// Masks for a whole input pool, order-preserving: chunked batches, one
  /// criterion clone per worker thread (deterministic, identical to the
  /// serial sweep).
  std::vector<DynamicBitset> measure_pool(
      const std::vector<Tensor>& pool) const;

 protected:
  /// Fills `masks` with each item's hit points. Implementations size and
  /// clear the masks themselves — the ParameterCoverage / NeuronCoverage
  /// into-variants already do, and value criteria call prepare_masks() — so
  /// storage is zeroed exactly once per batch.
  virtual void measure_batch(const Tensor& batch,
                             std::vector<DynamicBitset>& masks) = 0;

  /// Resizes `masks` to `batch_size` bitsets of total_points() bits, each
  /// cleared in place (word storage reused when already the right size).
  void prepare_masks(std::vector<DynamicBitset>& masks,
                     std::size_t batch_size) const;
};

/// Instantiates a criterion by name, bound to `ctx`; throws dnnv::Error for
/// unknown names (listing the known ones) or a context missing something
/// the criterion needs. Names:
///   "parameter"  paper Eq. 2 parameter-activation coverage (ParameterCoverage)
///   "neuron"     DeepXplore-style neuron coverage ([10]/[11] baseline)
///   "ksection"   k-multisection neuron coverage (Sun et al. 1803.04792)
///   "boundary"   neuron boundary coverage (NBC; upper half = SNAC)
///   "topk"       top-k neuron coverage (per-layer most-activated units)
std::unique_ptr<Criterion> make_criterion(const std::string& name,
                                          const CriterionContext& ctx,
                                          const CriterionConfig& config = {});

/// Convenience for the paper's metric: a "parameter" criterion over `model`
/// with the given activation config.
std::unique_ptr<Criterion> make_parameter_criterion(
    const nn::Sequential& model, const CoverageConfig& coverage);

/// True when `name` resolves.
bool criterion_registered(const std::string& name);

/// All criterion names, in the order listed above.
std::vector<std::string> criterion_names();

}  // namespace dnnv::cov

#endif  // DNNV_COVERAGE_CRITERION_H_
