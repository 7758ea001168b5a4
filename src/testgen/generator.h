// The generation API: every test-generation method behind one interface.
//
// The paper's generator is one loop over one coverage metric — Algorithm 1
// selection, Algorithm 2 synthesis and the §IV-D switch between them, all
// scored by parameter activation (Eq. 2/3). The comparison baselines
// (neuron-coverage saturation, random) are selection strategies over the
// same loop. Each method is reached the same way:
//   make_generator(name, GeneratorConfig)->generate(GenContext)
// and selects by the gain of the cov::Criterion the context carries — the
// paper's "parameter" metric or any other criterion of the registry in
// coverage/criterion.h. The criterion is required: methods have no metric
// of their own.
#ifndef DNNV_TESTGEN_GENERATOR_H_
#define DNNV_TESTGEN_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "nn/sequential.h"
#include "testgen/functional_test.h"
#include "testgen/gradient_generator.h"

namespace dnnv::testgen {

/// When the combined method hands over from Algorithm 1 to Algorithm 2.
enum class SwitchPolicy {
  /// Paper behaviour: the first time Algorithm 2's per-test gain beats
  /// Algorithm 1's, commit to Algorithm 2 for the rest of the budget.
  kSwitchOnce,
  /// Ablation: keep comparing both producers at every step.
  kInterleaved,
};

/// Everything a generation run may consume, bundled. Pointees are borrowed:
/// they must outlive the generate() call. Methods throw dnnv::Error when a
/// field they need is missing.
struct GenContext {
  /// The vendor model the suite must exercise ("gradient" and "combined"
  /// synthesise against it).
  const nn::Sequential* model = nullptr;
  /// Training-candidate pool. Required by pool-selection methods
  /// ("greedy", "combined", "neuron", "random").
  const std::vector<Tensor>* pool = nullptr;
  /// Optional precomputed pool masks, from criterion->measure_pool(*pool).
  /// Passing them lets benches share the expensive pool pass across
  /// methods; when absent, methods that need them sweep the pool once.
  const std::vector<DynamicBitset>* masks = nullptr;
  /// Un-batched input shape (CHW / feature vector).
  Shape item_shape;
  int num_classes = 0;
  /// Coverage criterion the run selects by (borrowed; single-threaded use).
  /// Required by every method: pool and probe masks come from
  /// criterion->measure*, greedy picks maximise its gain, and the scratch
  /// accumulator's universe is criterion->total_points().
  cov::Criterion* criterion = nullptr;
  /// Shared coverage accumulator, updated as tests are emitted. Optional:
  /// when null, methods that track coverage use a scratch one (the
  /// trajectory still lands in GenerationResult::coverage_after).
  cov::CoverageAccumulator* accumulator = nullptr;
};

/// The knobs of every method, in one struct.
struct GeneratorConfig {
  int max_tests = 50;
  /// Parameter-activation knobs for callers that build the "parameter"
  /// criterion of a run (VendorPipeline, the benches). No method reads it:
  /// the metric is GenContext::criterion.
  cov::CoverageConfig coverage;
  /// Algorithm 2 knobs ("gradient" and the combined method's synthesis side).
  GradientGenerator::Options gradient;
  // -- "combined" --
  SwitchPolicy policy = SwitchPolicy::kSwitchOnce;
  /// Greedy commits tolerated before the cached Algorithm 2 probe batch is
  /// considered stale and regenerated against the grown covered set (the
  /// probe targets the CURRENT un-activated parameters, so its gain decays
  /// as greedy picks land).
  int probe_refresh = 8;
  // -- "neuron" baseline: seed of the post-saturation random fill --
  std::uint64_t neuron_fill_seed = 11;
  // -- "random" control --
  std::uint64_t random_seed = 17;
};

/// Abstract test generator. Implementations are immutable after
/// construction and safe to reuse across generate() calls.
class Generator {
 public:
  virtual ~Generator() = default;

  /// Method name ("combined", "greedy", ...).
  virtual std::string name() const = 0;

  /// Runs the method against `ctx`; throws dnnv::Error when a required
  /// context field is missing.
  virtual GenerationResult generate(const GenContext& ctx) const = 0;
};

/// Instantiates a method by name; throws dnnv::Error for unknown names
/// (listing the known ones). Methods:
///   "greedy"    Algorithm 1 — greedy training-set selection
///   "gradient"  Algorithm 2 — gradient-based synthesis
///   "combined"  §IV-D switch rule over both algorithms
///   "neuron"    saturation baseline ([10]/[11]): greedy until no candidate
///               adds a point, then random fill
///   "random"    uniform random-selection control
std::unique_ptr<Generator> make_generator(const std::string& name,
                                          const GeneratorConfig& config = {});

/// True when `name` is a method.
bool generator_registered(const std::string& name);

/// All method names, in the order listed above.
std::vector<std::string> generator_names();

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_GENERATOR_H_
