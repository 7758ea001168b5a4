// One-call fault qualification: enumerate → collapse → simulate → (compact).
//
// This is the routine both sides of the product flow share: the vendor runs
// it to qualify (and optionally compact) a generated suite before shipping,
// and the user re-runs it on the shipped model + suite to re-measure the
// manifest's detection stats — the universe is regenerated deterministically
// from the same UniverseConfig, so both sides score the same fault list.
#ifndef DNNV_FAULT_QUALIFY_H_
#define DNNV_FAULT_QUALIFY_H_

#include <cstdint>

#include "fault/collapse.h"
#include "fault/compact.h"
#include "fault/fault_model.h"
#include "fault/simulator.h"
#include "validate/test_suite.h"

namespace dnnv::fault {

struct FaultQualification {
  std::int64_t enumerated = 0;  ///< raw universe size
  std::int64_t untestable = 0;  ///< statically proven undetectable, pruned
  std::int64_t dominated = 0;   ///< merged into a detection-equivalent rep
  std::int64_t collapsed = 0;   ///< after static prune + structural collapse
  std::int64_t scored = 0;      ///< == collapsed (the simulated set)
  std::int64_t detected = 0;    ///< faults the suite detects
  std::int64_t classes = 0;     ///< detected equivalence classes
  std::int64_t core = 0;        ///< dominance core size
  std::int64_t kept_tests = 0;  ///< suite size after (optional) compaction

  double detection_rate() const {
    return scored > 0
               ? static_cast<double>(detected) / static_cast<double>(scored)
               : 0.0;
  }
};

struct QualifyOptions {
  UniverseConfig universe;
  bool compact = false;        ///< greedily compact the suite over the core
  /// Run analysis::classify_universe first and exclude the statically
  /// untestable faults from simulation. Pruning is sound (untestable =>
  /// logits bit-identical to clean on every input), so detection counts are
  /// unchanged; both sides of the product flow prune deterministically, so
  /// vendor and user still score the identical fault list.
  bool static_prune = true;
  ThreadPool* pool = nullptr;  ///< simulation fan-out; nullptr = shared
};

/// Scores `suite` against the structural universe of `model`. Before
/// simulation, the classical ATPG dominance collapse
/// (analysis::analyze_dominance) always drops faults provably detected
/// whenever their kept representative is; detection stats over the kept set
/// are a sound lower bound for the full universe. When options.compact is
/// set and `compacted` non-null, also writes the greedily compacted suite
/// (same detected-fault coverage, fewer tests).
FaultQualification qualify_suite(const quant::QuantModel& model,
                                 const validate::TestSuite& suite,
                                 const QualifyOptions& options,
                                 validate::TestSuite* compacted = nullptr);

}  // namespace dnnv::fault

#endif  // DNNV_FAULT_QUALIFY_H_
