// Reference fault simulators for tests and benches, and the memory-address
// view of a fault they inject through (FaultLayout). The production engine,
// fault::FaultSimulator::run_batched, is differential; these are the two
// loops it must reproduce bit for bit:
//   * run_sequential — the literal historical loop: one ip::QuantizedIp,
//     inject a fault into its weight memory through ip::FaultInjector,
//     predict_all (which rebuilds ALL derived execution state), revert,
//     repeat — O(model) per fault before any inference runs.
//   * suffix_replay_oracle — the engine run_batched replaced: apply each
//     fault to a clone and re-execute every layer from the fault's own layer
//     on, from one clean trace.
// Header-only and gtest-free, so tests/fault_test.cpp and
// bench/bench_fault_sim.cpp share one copy.
#ifndef DNNV_TESTS_FAULT_ORACLES_H_
#define DNNV_TESTS_FAULT_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/fault_model.h"
#include "fault/simulator.h"
#include "ip/fault_injector.h"
#include "ip/quantized_ip.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "validate/test_suite.h"

namespace dnnv::fault_oracles {

/// Byte layout of the model's parameter codes in QuantizedIp weight-memory
/// order (weights before bias, per conv/dense layer, layers ascending) —
/// the bridge between structural Faults and flat memory addresses.
class FaultLayout {
 public:
  explicit FaultLayout(const quant::QuantModel& model) {
    for (std::size_t li = 0; li < model.layers().size(); ++li) {
      const quant::QLayer& q = model.layers()[li];
      if (q.kind != quant::QLayerKind::kConv2d &&
          q.kind != quant::QLayerKind::kDense) {
        continue;
      }
      const std::int64_t channels = quant::weight_channels(q);
      const std::int64_t fanin = quant::weight_fanin(q);
      spans_.push_back({static_cast<std::uint8_t>(li), false, total_,
                        channels * fanin});
      total_ += static_cast<std::size_t>(channels * fanin);
      spans_.push_back({static_cast<std::uint8_t>(li), true, total_, channels});
      total_ += static_cast<std::size_t>(channels);
    }
  }

  std::size_t memory_size() const { return total_; }

  /// Flat byte address of a code fault's target.
  std::size_t flat_address(const fault::Fault& fault) const {
    DNNV_CHECK(fault::is_code_fault(fault.kind),
               fault.describe() << " has no memory address");
    for (const Span& span : spans_) {
      if (span.layer == fault.layer && span.is_bias == (fault.is_bias != 0)) {
        DNNV_CHECK(fault.unit >= 0 && fault.unit < span.size,
                   fault.describe() << ": unit out of range");
        return span.base + static_cast<std::size_t>(fault.unit);
      }
    }
    DNNV_THROW(fault.describe() << ": no such parameter tensor");
  }

  /// Structural view of a memory-level fault (the ip::MemoryFault adapter).
  fault::Fault from_memory_fault(const ip::MemoryFault& fault) const {
    fault::Fault f;
    switch (fault.kind) {
      case ip::MemoryFault::Kind::kBitFlip:
        f.kind = fault::FaultKind::kBitFlip;
        break;
      case ip::MemoryFault::Kind::kStuckAt0:
        f.kind = fault::FaultKind::kStuckAt0;
        break;
      case ip::MemoryFault::Kind::kStuckAt1:
        f.kind = fault::FaultKind::kStuckAt1;
        break;
      case ip::MemoryFault::Kind::kByteWrite:
        f.kind = fault::FaultKind::kByteWrite;
        break;
    }
    f.bit = static_cast<std::uint8_t>(fault.bit);
    f.value = fault.value;
    for (const Span& span : spans_) {
      if (fault.address >= span.base &&
          fault.address < span.base + static_cast<std::size_t>(span.size)) {
        f.layer = span.layer;
        f.is_bias = span.is_bias ? 1 : 0;
        f.unit = static_cast<std::int64_t>(fault.address - span.base);
        return f;
      }
    }
    DNNV_THROW("memory fault address " << fault.address
                                       << " outside the weight memory ("
                                       << total_ << " bytes)");
  }

  /// Memory-level form of a code fault (for ip::FaultInjector campaigns).
  ip::MemoryFault to_memory_fault(const fault::Fault& fault) const {
    ip::MemoryFault m;
    switch (fault.kind) {
      case fault::FaultKind::kBitFlip:
        m.kind = ip::MemoryFault::Kind::kBitFlip;
        break;
      case fault::FaultKind::kStuckAt0:
        m.kind = ip::MemoryFault::Kind::kStuckAt0;
        break;
      case fault::FaultKind::kStuckAt1:
        m.kind = ip::MemoryFault::Kind::kStuckAt1;
        break;
      case fault::FaultKind::kByteWrite:
        m.kind = ip::MemoryFault::Kind::kByteWrite;
        break;
      default:
        DNNV_THROW(fault.describe() << " is not a memory-expressible fault");
    }
    m.address = flat_address(fault);
    m.bit = fault.bit;
    m.value = fault.value;
    return m;
  }

 private:
  struct Span {
    std::uint8_t layer = 0;
    bool is_bias = false;
    std::size_t base = 0;
    std::int64_t size = 0;
  };
  std::vector<Span> spans_;
  std::size_t total_ = 0;
};

/// The sequential inject→predict→revert reference loop. Code faults go
/// through the device's weight memory; requant and accumulator faults have
/// no byte form and run a full forward on an independently faulted copy.
/// Early-exit mode stops each fault at its first detecting test.
inline fault::SimResult run_sequential(const quant::QuantModel& clean,
                                       const validate::TestSuite& suite,
                                       const fault::FaultUniverse& universe,
                                       const fault::SimOptions& options = {}) {
  const std::vector<Tensor>& inputs = suite.inputs();
  fault::SimResult result;
  result.num_tests = inputs.size();
  result.first_detected.assign(universe.size(), -1);
  const bool full = options.mode == fault::SimMode::kFullMatrix;
  if (full) result.rows.assign(universe.size(), DynamicBitset());

  ip::QuantizedIp device(clean, inputs.front().shape());
  ip::FaultInjector injector(device);
  const FaultLayout layout(clean);
  result.clean_labels = device.predict_all(inputs);
  const Tensor batch = stack_batch(inputs);

  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    const fault::Fault& f = universe[fi];
    std::vector<int> labels;
    if (fault::is_code_fault(f.kind)) {
      // The historical loop: byte fault into the weight memory, full
      // derived-state rebuild inside predict_all, revert.
      const std::vector<ip::MemoryFault> injected =
          injector.inject_all({layout.to_memory_fault(f)});
      labels = device.predict_all(inputs);
      injector.revert_all(injected);
    } else {
      // Requant/accumulator faults have no byte representation; the
      // reference is a full forward on an independently faulted copy.
      quant::QuantModel faulty = clean;
      fault::apply_fault(faulty, f);
      labels = faulty.predict_labels(batch);
    }
    DynamicBitset row(full ? result.num_tests : 0);
    std::int64_t first = -1;
    for (std::size_t t = 0; t < labels.size(); ++t) {
      if (labels[t] == result.clean_labels[t]) continue;
      if (first < 0) first = static_cast<std::int64_t>(t);
      if (!full) break;
      row.set(t);
    }
    result.first_detected[fi] = first;
    if (full) result.rows[fi] = std::move(row);
    if (first >= 0) ++result.detected;
  }
  return result;
}

/// Row-wise argmax, first maximum wins (predict_labels' tie-breaking).
inline std::vector<int> argmax_rows(const Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (std::int64_t row = 0; row < n; ++row) {
    const float* r = logits.data() + row * k;
    int best = 0;
    for (std::int64_t c = 1; c < k; ++c) {
      if (r[c] > r[best]) best = static_cast<int>(c);
    }
    labels[static_cast<std::size_t>(row)] = best;
  }
  return labels;
}

/// The suffix-replay oracle: the int8 engine run_batched used before it
/// became differential. Each fault is applied to a clone of the clean model
/// through the point-fault surface, and every layer from the fault's own
/// layer on is re-executed from one clean trace per test chunk (the whole
/// suite in full-matrix mode; early-exit stops at the first detecting
/// chunk). Faults fan out over the pool with one clone per worker.
inline fault::SimResult suffix_replay_oracle(const quant::QuantModel& clean,
                                      const validate::TestSuite& suite,
                                      const fault::FaultUniverse& universe,
                                      const fault::SimOptions& options) {
  fault::SimResult result;
  const std::vector<Tensor>& inputs = suite.inputs();
  const auto n = static_cast<std::int64_t>(inputs.size());
  const bool full = options.mode == fault::SimMode::kFullMatrix;
  const std::int64_t chunk =
      full ? n : std::clamp<std::int64_t>(options.chunk, 1, n);
  result.num_tests = inputs.size();
  result.first_detected.assign(universe.size(), -1);
  if (full) result.rows.assign(universe.size(), DynamicBitset());

  std::vector<std::int64_t> begins;
  for (std::int64_t b = 0; b < n; b += chunk) begins.push_back(b);
  quant::QuantModel tracer = clean;
  std::vector<nn::Workspace> trace_ws(begins.size());
  std::vector<quant::QuantModel::ForwardTrace> traces(begins.size());
  for (std::size_t k = 0; k < begins.size(); ++k) {
    const auto end = std::min(n, begins[k] + chunk);
    const std::vector<Tensor> span(inputs.begin() + begins[k],
                                   inputs.begin() + end);
    const std::vector<int> labels =
        argmax_rows(tracer.forward_traced(stack_batch(span), trace_ws[k],
                                          traces[k]));
    result.clean_labels.insert(result.clean_labels.end(), labels.begin(),
                               labels.end());
  }

  struct Worker {
    quant::QuantModel model;
    nn::Workspace ws;
  };
  std::mutex mutex;
  std::vector<std::unique_ptr<Worker>> free;
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  pool.parallel_for(universe.size(), [&](std::size_t fi) {
    std::unique_ptr<Worker> w;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!free.empty()) {
        w = std::move(free.back());
        free.pop_back();
      }
    }
    if (!w) {
      w = std::make_unique<Worker>();
      w->model = clean;
    }
    const fault::Fault& f = universe[fi];
    const fault::AppliedFault applied = fault::apply_fault(w->model, f);
    DynamicBitset row(full ? result.num_tests : 0);
    std::int64_t first = -1;
    for (std::size_t k = 0;
         !applied.noop && k < begins.size() && (full || first < 0); ++k) {
      const std::vector<int> labels =
          argmax_rows(w->model.forward_resume(traces[k], f.layer, w->ws));
      for (std::size_t t = 0; t < labels.size(); ++t) {
        const auto test = begins[k] + static_cast<std::int64_t>(t);
        if (labels[t] == result.clean_labels[static_cast<std::size_t>(test)]) {
          continue;
        }
        if (first < 0) first = test;
        if (!full) break;
        row.set(static_cast<std::size_t>(test));
      }
    }
    fault::revert_fault(w->model, applied);
    result.first_detected[fi] = first;
    if (full) result.rows[fi] = std::move(row);
    const std::lock_guard<std::mutex> lock(mutex);
    free.push_back(std::move(w));
  });
  for (const std::int64_t first : result.first_detected) {
    if (first >= 0) ++result.detected;
  }
  return result;
}

}  // namespace dnnv::fault_oracles

#endif  // DNNV_TESTS_FAULT_ORACLES_H_
