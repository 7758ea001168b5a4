// Batched fault simulation: score a whole TestSuite against a whole
// FaultUniverse in one sweep, on the int8 engine the IP executes.
//
// run_batched produces the fault×test detection matrix by differential
// fault simulation at channel granularity:
//   * Trace. ONE clean traced forward over the suite records every layer's
//     int8 input and every conv/dense layer's pre-bias int32 accumulators.
//   * Delta. A fault touches one output channel of one layer, so only that
//     channel is recomputed from the trace: a weight fault adds
//     (faulted - clean code) * x at its one tap (one MAC per test for
//     dense, one per output pixel for conv), a bias, requant or
//     accumulator fault re-runs the channel's epilogue with the patched
//     value. Both go through quant::ChannelEpilogue, the engine's own
//     epilogue, so the delta path cannot drift from forward().
//   * Early stop. If the requantized channel equals the traced one on every
//     test, the fault is undetected with no suffix work. A logit-layer
//     fault compares the argmax of the patched logit row directly.
//   * Splice. Otherwise the faulted channel is spliced into copies of the
//     next layer's traced input for the changed tests only, and
//     QuantModel::forward_resume runs the suffix from the next layer.
//     Integer execution is bit-identical across batch sizes, so the
//     resumed labels equal a full forward on the faulted model.
//   * Schedule. The universe is layer-sorted and conv-layer faults cost
//     far more than dense ones, so faults are dealt round-robin onto
//     16 lanes per pool thread: every lane samples every layer evenly.
//     Results stay in universe order.
// Early-exit mode resumes the changed tests in groups of SimOptions::chunk,
// in test order, and stops each fault at its first detecting group, so
// first_detected is mode- and schedule-invariant.
//
// On perfbench's qualify-full workload (both tiny zoo models, whole `full`
// universe after static pruning, 251,768 scored faults, 50 tests each;
// seed 1, 4-core AVX-512-VNNI host) simulation takes 4.0 s, against 24.7 s
// for the apply-to-a-clone, resume-from-the-fault's-layer loop it replaced.
// That loop and the sequential inject→predict→revert loop are the oracles
// in tests/fault_oracles.h. 30% (mnist) and 52%
// (cifar) of the scored dense-layer faults stop early; the conv-layer
// faults, under 2% of those scored, are the remaining cost.
#ifndef DNNV_FAULT_SIMULATOR_H_
#define DNNV_FAULT_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "fault/fault_model.h"
#include "util/bitset.h"
#include "util/thread_pool.h"
#include "validate/test_suite.h"

namespace dnnv::fault {

enum class SimMode : std::uint8_t {
  kFullMatrix = 0,  ///< complete fault×test detection matrix
  kEarlyExit = 1,   ///< stop each fault at its first detection
};

struct SimOptions {
  SimMode mode = SimMode::kFullMatrix;
  ThreadPool* pool = nullptr;  ///< fan-out pool; nullptr = ThreadPool::shared
  std::int64_t chunk = 16;     ///< early-exit: changed tests per resume
};

struct SimResult {
  std::size_t num_tests = 0;

  /// Full-matrix mode only: rows[f].test(t) == fault f detected by test t
  /// (label differs from the clean device's label). Empty in early-exit
  /// mode.
  std::vector<DynamicBitset> rows;

  /// Per fault: lowest detecting test index, -1 if undetected.
  std::vector<std::int64_t> first_detected;

  std::size_t detected = 0;  ///< faults with first_detected >= 0

  /// The clean device's labels on the suite (the detection reference).
  std::vector<int> clean_labels;

  /// Work counts of run_batched: faults that needed a suffix resume, and
  /// test rows those resumes re-executed. Exact and thread-count-invariant.
  std::size_t resumed_faults = 0;
  std::size_t resumed_tests = 0;

  double detection_rate() const {
    return first_detected.empty()
               ? 0.0
               : static_cast<double>(detected) /
                     static_cast<double>(first_detected.size());
  }
};

class FaultSimulator {
 public:
  /// `clean` must be refreshed (as quantize()/load() leave it); the suite
  /// provides the test inputs — detection compares against the clean
  /// device's own labels, so fault effect is measured, not quantization
  /// skew.
  FaultSimulator(const quant::QuantModel& clean,
                 const validate::TestSuite& suite);

  /// Differential batched simulation (see file header).
  SimResult run_batched(const FaultUniverse& universe,
                        const SimOptions& options = {});

 private:
  quant::QuantModel clean_;
  std::vector<Tensor> inputs_;
};

}  // namespace dnnv::fault

#endif  // DNNV_FAULT_SIMULATOR_H_
