#include "fault/simulator.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::fault {
namespace {

/// Row-wise argmax with predict_labels' exact tie-breaking (first max wins).
std::vector<int> argmax_rows(const Tensor& logits) {
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

/// Mutex-guarded free-list of per-worker state: parallel_for indices borrow
/// a worker (cloned lazily, at most pool-width + 1 clones per sweep) and
/// return it when done.
template <typename W>
class WorkerPool {
 public:
  template <typename Make>
  std::unique_ptr<W> acquire(const Make& make) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<W> w = std::move(free_.back());
        free_.pop_back();
        return w;
      }
    }
    return make();
  }

  void release(std::unique_ptr<W> w) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(w));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<W>> free_;
};

/// Fault-index lanes per pool thread. Lane l simulates faults l, l + lanes,
/// l + 2 * lanes, ... so every lane samples every layer of the layer-sorted
/// universe evenly: the few costly conv-layer faults spread over all
/// threads instead of landing in parallel_for's first contiguous chunk.
constexpr std::size_t kLanesPerThread = 16;

/// What a fault does to its layer's output, as an edit of one channel's
/// clean epilogue: a weight fault adds delta * x at one fan-in tap, every
/// other kind patches the epilogue (bias, requant multiplier, masks).
struct ChannelFault {
  std::int64_t channel = 0;
  quant::ChannelEpilogue epilogue;
  std::int64_t tap = -1;    ///< weight faults: fan-in index of the weight
  std::int32_t delta = 0;   ///< weight faults: faulted - clean code
  bool noop = false;        ///< the fault leaves the model unchanged
};

/// Reads the fault's target through the model's validating accessors, so a
/// malformed fault throws exactly as apply_fault() would.
ChannelFault channel_fault(const quant::QuantModel& model, const Fault& f) {
  ChannelFault cf;
  if (is_code_fault(f.kind)) {
    const std::int8_t prev = model.code_at(f.layer, f.is_bias != 0, f.unit);
    const std::int8_t next = faulted_code(prev, f);
    const quant::QLayer& q = model.layers()[f.layer];
    cf.noop = next == prev;
    if (f.is_bias != 0) {
      cf.channel = f.unit;
      cf.epilogue = quant::channel_epilogue(q, cf.channel);
      cf.epilogue.bias = quant::bias_code_to_i32(q, cf.channel, next);
    } else {
      const std::int64_t fanin = quant::weight_fanin(q);
      cf.channel = f.unit / fanin;
      cf.epilogue = quant::channel_epilogue(q, cf.channel);
      cf.tap = f.unit % fanin;
      cf.delta = std::int32_t{next} - std::int32_t{prev};
    }
    return cf;
  }
  cf.channel = f.unit;
  if (f.kind == FaultKind::kRequantMult) {
    const std::int32_t multiplier = model.requant_multiplier(f.layer, f.unit);
    cf.epilogue = quant::channel_epilogue(model.layers()[f.layer], f.unit);
    cf.epilogue.requant.multiplier =
        multiplier ^ static_cast<std::int32_t>(std::uint32_t{1} << f.bit);
    return cf;
  }
  DNNV_CHECK(f.layer < model.layers().size(),
             "simulate: bad layer in " << f.describe());
  const quant::QLayer& q = model.layers()[f.layer];
  DNNV_CHECK((q.kind == quant::QLayerKind::kConv2d ||
              q.kind == quant::QLayerKind::kDense) &&
                 f.unit >= 0 && f.unit < quant::weight_channels(q),
             "simulate: " << f.describe() << " names no accumulator");
  cf.epilogue = quant::channel_epilogue(q, f.unit);
  const auto mask = static_cast<std::int32_t>(std::uint32_t{1} << f.bit);
  if (f.kind == FaultKind::kAccStuckAt1) {
    cf.epilogue.acc_or = mask;
  } else {
    cf.epilogue.acc_and = ~mask;
  }
  return cf;
}

/// Per-worker state of the differential sweep.
struct DeltaWorker {
  quant::QuantModel model;  ///< clean clone the suffix resumes run on
  nn::Workspace ws;
  quant::QuantModel::ForwardTrace splice;  ///< the spliced next-layer input
  std::vector<std::int8_t> spliced;        ///< [m, item_numel] codes
  std::vector<std::int8_t> moved;          ///< [m, plane] changed channels
  std::vector<std::int64_t> changed;       ///< tests whose channel moved
};

/// The differential engine: scores one fault from the clean trace.
class DeltaSim {
 public:
  DeltaSim(const quant::QuantModel& model,
           const quant::QuantModel::ForwardTrace& trace,
           const std::vector<int>& clean_labels, const Tensor& clean_logits,
           bool full, std::int64_t chunk)
      : model_(model),
        trace_(trace),
        clean_labels_(clean_labels),
        clean_logits_(clean_logits),
        n_(trace.batch),
        full_(full),
        chunk_(full ? trace.batch
                    : std::clamp<std::int64_t>(chunk, 1, trace.batch)) {}

  struct Outcome {
    std::int64_t first = -1;
    std::size_t resumed_tests = 0;
  };

  Outcome run(const Fault& f, DeltaWorker& w, DynamicBitset& row) const {
    Outcome out;
    const ChannelFault cf = channel_fault(model_, f);
    if (cf.noop) return out;
    const quant::QLayer& q = model_.layers()[f.layer];
    if (q.dequant_output) {
      score_logits(f.layer, cf, row, out);
      return out;
    }
    const std::int64_t plane = collect_moved(f.layer, cf, w);
    resume(static_cast<std::size_t>(f.layer) + 1, cf, plane, w, row, out);
    return out;
  }

 private:
  /// Faulted accumulator of one output position: the clean accumulator
  /// plus delta * x for a weight fault whose tap reads input code x.
  static std::int32_t faulted_acc(std::int32_t acc, const ChannelFault& cf,
                                  std::int8_t x) {
    return static_cast<std::int32_t>(std::int64_t{acc} +
                                     std::int64_t{cf.delta} * x);
  }

  /// Logit-layer fault: the faulted logit replaces one entry of each clean
  /// row and the argmax (first maximum wins) is compared directly.
  void score_logits(std::size_t layer, const ChannelFault& cf,
                    DynamicBitset& row, Outcome& out) const {
    const quant::QLayer& q = model_.layers()[layer];
    const quant::QuantModel::ForwardTrace::Entry& in = trace_.entries[layer];
    const std::int64_t k = q.out_features;
    const std::int64_t c = cf.channel;
    for (std::int64_t t = 0; t < n_; ++t) {
      std::int32_t acc = in.acc[static_cast<std::size_t>(t * k + c)];
      if (cf.tap >= 0) {
        acc = faulted_acc(acc, cf, in.codes[t * q.in_features + cf.tap]);
      }
      const float logit = cf.epilogue.logit(acc);
      const float* r = clean_logits_.data() + t * k;
      if (logit == r[c]) continue;
      int best = 0;
      float best_value = c == 0 ? logit : r[0];
      for (std::int64_t j = 1; j < k; ++j) {
        const float v = j == c ? logit : r[j];
        if (v > best_value) {
          best = static_cast<int>(j);
          best_value = v;
        }
      }
      if (best == clean_labels_[static_cast<std::size_t>(t)]) continue;
      if (out.first < 0) out.first = t;
      if (!full_) return;
      row.set(static_cast<std::size_t>(t));
    }
  }

  /// Recomputes the faulted channel on every test and keeps the tests
  /// whose requantized channel differs from the trace (w.changed, with the
  /// faulted channel codes in w.moved). Returns the channel's plane size.
  std::int64_t collect_moved(std::size_t layer, const ChannelFault& cf,
                             DeltaWorker& w) const {
    const quant::QLayer& q = model_.layers()[layer];
    const quant::QuantModel::ForwardTrace::Entry& in = trace_.entries[layer];
    const quant::QuantModel::ForwardTrace::Entry& next =
        trace_.entries[layer + 1];
    const bool conv = q.kind == quant::QLayerKind::kConv2d;
    const std::int64_t channels = quant::weight_channels(q);
    const std::int64_t plane =
        conv ? next.dims[1] * next.dims[2] : std::int64_t{1};
    const std::int64_t out_w = conv ? next.dims[2] : 1;
    const std::int64_t item_in = conv ? in.dims[0] * in.dims[1] * in.dims[2]
                                      : q.in_features;
    w.changed.clear();
    w.moved.clear();
    for (std::int64_t t = 0; t < n_; ++t) {
      const std::int64_t base = (t * channels + cf.channel) * plane;
      const std::int32_t* acc = in.acc.data() + base;
      const std::int8_t* clean = next.codes + base;
      const std::int8_t* x = in.codes + t * item_in;
      const std::size_t at = w.moved.size();
      w.moved.insert(w.moved.end(), clean, clean + plane);
      bool moved = false;
      auto update = [&](std::int64_t p, std::int32_t a) {
        const std::int8_t code = cf.epilogue.code(a);
        w.moved[at + static_cast<std::size_t>(p)] = code;
        moved = moved || code != clean[p];
      };
      if (cf.tap < 0) {
        for (std::int64_t p = 0; p < plane; ++p) update(p, acc[p]);
      } else if (!conv) {
        // Dense: the one MAC of this test; x == 0 leaves the channel as is.
        if (x[cf.tap] != 0) update(0, faulted_acc(acc[0], cf, x[cf.tap]));
      } else {
        // Conv: the tap (ic, ky, kx) reads input pixel
        // (oy * stride - pad + ky, ox * stride - pad + kx) of plane ic at
        // output position (oy, ox); padding and zero codes add nothing.
        const std::int64_t kk = q.kernel * q.kernel;
        const std::int64_t ic = cf.tap / kk;
        const std::int64_t ky = (cf.tap % kk) / q.kernel;
        const std::int64_t kx = cf.tap % q.kernel;
        const std::int64_t h = in.dims[1], wd = in.dims[2];
        const std::int8_t* src = x + ic * h * wd;
        for (std::int64_t p = 0; p < plane; ++p) {
          const std::int64_t iy = (p / out_w) * q.stride - q.pad + ky;
          const std::int64_t ix = (p % out_w) * q.stride - q.pad + kx;
          if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
          const std::int8_t v = src[iy * wd + ix];
          if (v != 0) update(p, faulted_acc(acc[p], cf, v));
        }
      }
      if (moved) {
        w.changed.push_back(t);
      } else {
        w.moved.resize(at);
      }
    }
    return plane;
  }

  /// Splices the moved channels into copies of the changed tests' traced
  /// next-layer input and resumes from `first`; early-exit mode resumes in
  /// groups of chunk_ changed tests, in test order, until one detects.
  void resume(std::size_t first, const ChannelFault& cf, std::int64_t plane,
              DeltaWorker& w, DynamicBitset& row, Outcome& out) const {
    const quant::QuantModel::ForwardTrace::Entry& next = trace_.entries[first];
    std::int64_t item = 1;
    for (const std::int64_t d : next.dims) item *= d;
    const auto m = static_cast<std::int64_t>(w.changed.size());
    for (std::int64_t g0 = 0; g0 < m; g0 += chunk_) {
      const std::int64_t g1 = std::min(m, g0 + chunk_);
      w.spliced.resize(static_cast<std::size_t>((g1 - g0) * item));
      for (std::int64_t j = g0; j < g1; ++j) {
        const std::int64_t t = w.changed[static_cast<std::size_t>(j)];
        std::int8_t* dst = w.spliced.data() + (j - g0) * item;
        std::copy(next.codes + t * item, next.codes + (t + 1) * item, dst);
        std::copy(w.moved.begin() + j * plane, w.moved.begin() + (j + 1) * plane,
                  dst + cf.channel * plane);
      }
      w.splice.batch = g1 - g0;
      w.splice.entries[first].codes = w.spliced.data();
      w.splice.entries[first].dims = next.dims;
      const std::vector<int> labels =
          argmax_rows(w.model.forward_resume(w.splice, first, w.ws));
      out.resumed_tests += static_cast<std::size_t>(g1 - g0);
      for (std::int64_t j = g0; j < g1; ++j) {
        const std::int64_t t = w.changed[static_cast<std::size_t>(j)];
        if (labels[static_cast<std::size_t>(j - g0)] ==
            clean_labels_[static_cast<std::size_t>(t)]) {
          continue;
        }
        if (out.first < 0) out.first = t;
        if (!full_) return;
        row.set(static_cast<std::size_t>(t));
      }
    }
  }

  const quant::QuantModel& model_;
  const quant::QuantModel::ForwardTrace& trace_;
  const std::vector<int>& clean_labels_;
  const Tensor& clean_logits_;
  std::int64_t n_;
  bool full_;
  std::int64_t chunk_;
};

}  // namespace

FaultSimulator::FaultSimulator(const quant::QuantModel& clean,
                               const validate::TestSuite& suite)
    : clean_(clean), inputs_(suite.inputs()) {
  DNNV_CHECK(!inputs_.empty(), "fault simulation needs a non-empty suite");
}

SimResult FaultSimulator::run_batched(const FaultUniverse& universe,
                                      const SimOptions& options) {
  SimResult result;
  result.num_tests = inputs_.size();
  result.first_detected.assign(universe.size(), -1);
  const bool full = options.mode == SimMode::kFullMatrix;
  if (full) result.rows.assign(universe.size(), DynamicBitset());

  // One clean traced pass over the whole suite. The trace (per-layer int8
  // inputs and int32 accumulators) lives in a workspace nothing touches for
  // the rest of the sweep, so every worker reads it concurrently.
  quant::QuantModel tracer = clean_;
  nn::Workspace trace_ws;
  quant::QuantModel::ForwardTrace trace;
  const Tensor& clean_logits =
      tracer.forward_traced(stack_batch(inputs_), trace_ws, trace);
  result.clean_labels = argmax_rows(clean_logits);

  const DeltaSim sim(tracer, trace, result.clean_labels, clean_logits, full,
                     options.chunk);
  WorkerPool<DeltaWorker> workers;
  std::atomic<std::size_t> resumed_faults{0};
  std::atomic<std::size_t> resumed_tests{0};
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  const std::size_t lanes =
      std::min(universe.size(), pool.num_threads() * kLanesPerThread);
  pool.parallel_for(lanes, [&](std::size_t lane) {
    auto worker = workers.acquire([this] {
      auto w = std::make_unique<DeltaWorker>();
      w->model = clean_;
      w->splice.entries.resize(clean_.layers().size());
      return w;
    });
    for (std::size_t fi = lane; fi < universe.size(); fi += lanes) {
      DynamicBitset row(full ? result.num_tests : 0);
      const DeltaSim::Outcome out = sim.run(universe[fi], *worker, row);
      result.first_detected[fi] = out.first;
      if (full) result.rows[fi] = std::move(row);
      if (out.resumed_tests > 0) {
        resumed_faults.fetch_add(1, std::memory_order_relaxed);
        resumed_tests.fetch_add(out.resumed_tests, std::memory_order_relaxed);
      }
    }
    workers.release(std::move(worker));
  });
  result.resumed_faults = resumed_faults.load();
  result.resumed_tests = resumed_tests.load();
  for (const std::int64_t first : result.first_detected) {
    if (first >= 0) ++result.detected;
  }
  return result;
}

}  // namespace dnnv::fault
