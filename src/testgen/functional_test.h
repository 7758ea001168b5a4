// Functional-test value types shared by all generators.
#ifndef DNNV_TESTGEN_FUNCTIONAL_TEST_H_
#define DNNV_TESTGEN_FUNCTIONAL_TEST_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace dnnv::testgen {

/// Where a functional test came from.
enum class TestSource {
  kTrainingSample,  ///< selected from the training pool (Algorithm 1)
  kSynthetic,       ///< synthesised by gradient descent (Algorithm 2)
  kRandom,          ///< random-control selection
};

/// One functional test: an input image the vendor will ship with its golden
/// output.
struct FunctionalTest {
  Tensor input;
  TestSource source = TestSource::kTrainingSample;
  /// Index into the candidate pool for selected tests, -1 for synthetic.
  std::int64_t pool_index = -1;
};

/// One producer-selection decision of the combined method (§IV-D): before
/// emitting test `step`, the per-test gain of the cached Algorithm 2 probe
/// batch is compared against the refreshed best marginal gain of
/// Algorithm 1. Recorded by the "combined" method so the switch rule is
/// observable (and testable) without re-running the generators.
struct SwitchDecision {
  std::size_t step = 0;          ///< index of the next test to be emitted
  double greedy_gain = 0.0;      ///< Algorithm 1's provably-best next gain
  double synthetic_gain = 0.0;   ///< Algorithm 2 probe per-test gain
  bool chose_synthetic = false;  ///< true iff the rule picked Algorithm 2
  bool probe_refreshed = false;  ///< probe was (re)generated for this step
};

/// Output of a generation run: the ordered tests plus the coverage
/// trajectory (VC(X) after each test) — the series plotted in Fig 3.
struct GenerationResult {
  std::vector<FunctionalTest> tests;
  std::vector<double> coverage_after;
  double final_coverage = 0.0;
  /// §IV-D decision trace ("combined" only; empty otherwise).
  std::vector<SwitchDecision> decisions;
  /// Algorithm 2 batches synthesised ("gradient" and "combined"; each one
  /// is a k-item descent of T steps), and the descent steps they ran
  /// (probes × T). Exact work counts, the host-independent pair to the
  /// generation wall time.
  std::int64_t probes = 0;
  std::int64_t descent_steps = 0;
};

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_FUNCTIONAL_TEST_H_
