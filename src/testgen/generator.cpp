#include "testgen/generator.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::testgen {
namespace {

const nn::Sequential& require_model(const GenContext& ctx, const char* method) {
  DNNV_CHECK(ctx.model != nullptr, method << " generator needs ctx.model");
  return *ctx.model;
}

const std::vector<Tensor>& require_pool(const GenContext& ctx,
                                        const char* method) {
  DNNV_CHECK(ctx.pool != nullptr, method << " generator needs ctx.pool");
  return *ctx.pool;
}

void require_item(const GenContext& ctx, const char* method) {
  DNNV_CHECK(ctx.item_shape.ndim() > 0,
             method << " generator needs ctx.item_shape");
  DNNV_CHECK(ctx.num_classes > 0, method << " generator needs ctx.num_classes");
}

cov::Criterion& require_criterion(const GenContext& ctx, const char* method) {
  DNNV_CHECK(ctx.criterion != nullptr,
             method << " generator needs ctx.criterion");
  return *ctx.criterion;
}

/// The pool's point masks: the caller's precomputed ones, else one
/// criterion sweep into `storage`.
const std::vector<DynamicBitset>& pool_masks(
    const GenContext& ctx, const std::vector<Tensor>& pool,
    std::vector<DynamicBitset>& storage) {
  if (ctx.masks != nullptr) return *ctx.masks;
  storage = ctx.criterion->measure_pool(pool);
  return storage;
}

/// Resolves the shared accumulator, or backs the run with `scratch` when the
/// caller did not pass one (the trajectory still reaches the result). The
/// universe comes from the masks when given, else the criterion's points.
cov::CoverageAccumulator& resolve_accumulator(
    const GenContext& ctx, std::unique_ptr<cov::CoverageAccumulator>& scratch) {
  if (ctx.accumulator != nullptr) return *ctx.accumulator;
  const std::size_t universe = ctx.masks != nullptr && !ctx.masks->empty()
                                   ? ctx.masks->front().size()
                                   : ctx.criterion->total_points();
  scratch = std::make_unique<cov::CoverageAccumulator>(universe);
  return *scratch;
}

/// Lazy-greedy heap entry (stale gain, pool index).
struct Entry {
  std::size_t gain;
  std::size_t index;
  bool operator<(const Entry& other) const { return gain < other.gain; }
};

/// Masked-model synthesis needs covered bits that index the parameter
/// space; under other criteria Algorithm 2 descends on an unmasked clone.
nn::Sequential loss_model(const nn::Sequential& model,
                          const GradientGenerator::Options& options,
                          const cov::Criterion& criterion,
                          const cov::CoverageAccumulator& accumulator) {
  return options.mask_activated && criterion.parameter_indexed()
             ? GradientGenerator::masked_model(model, accumulator.covered())
             : model.clone();
}

// ---- "greedy": Algorithm 1 ----

/// Greedy training-set selection (paper Eq. 7). The marginal-gain objective
/// is monotone submodular, so CELF-style lazy evaluation yields exactly the
/// same picks as the paper's full rescan (Algorithm 1, lines 3-6) while
/// re-evaluating only a few candidates per iteration.
class GreedyMethod final : public Generator {
 public:
  explicit GreedyMethod(const GeneratorConfig& config) : config_(config) {}

  std::string name() const override { return "greedy"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& pool = require_pool(ctx, "greedy");
    require_criterion(ctx, "greedy");
    std::vector<DynamicBitset> storage;
    const auto& masks = pool_masks(ctx, pool, storage);
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, scratch);
    DNNV_CHECK(pool.size() == masks.size(), "pool/mask size mismatch");
    DNNV_CHECK(config_.max_tests >= 0, "negative test budget");

    // Because gains only shrink as the covered set grows (submodularity), a
    // popped entry whose refreshed gain still beats the next entry's stale
    // gain is optimal.
    std::priority_queue<Entry> heap;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      heap.push({accumulator.marginal_gain(masks[i]), i});
    }

    GenerationResult result;
    while (static_cast<int>(result.tests.size()) < config_.max_tests &&
           !heap.empty()) {
      Entry top = heap.top();
      heap.pop();
      const std::size_t fresh_gain =
          accumulator.marginal_gain(masks[top.index]);
      if (!heap.empty() && fresh_gain < heap.top().gain) {
        top.gain = fresh_gain;
        heap.push(top);
        continue;  // stale; try the next best
      }
      accumulator.add(masks[top.index]);
      FunctionalTest test;
      test.input = pool[top.index];
      test.source = TestSource::kTrainingSample;
      test.pool_index = static_cast<std::int64_t>(top.index);
      result.tests.push_back(std::move(test));
      result.coverage_after.push_back(accumulator.coverage());
    }
    result.final_coverage = accumulator.coverage();
    return result;
  }

 private:
  GeneratorConfig config_;
};

// ---- "gradient": Algorithm 2 ----

class GradientMethod final : public Generator {
 public:
  explicit GradientMethod(const GeneratorConfig& config) : config_(config) {}

  std::string name() const override { return "gradient"; }

  /// Generates batches of k tests until the budget (rounded down to whole
  /// k-batches) is reached, updating the accumulator after each test.
  GenerationResult generate(const GenContext& ctx) const override {
    const auto& model = require_model(ctx, "gradient");
    require_item(ctx, "gradient");
    cov::Criterion& criterion = require_criterion(ctx, "gradient");
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, scratch);
    const GradientGenerator gradient(config_.gradient);
    const int k = ctx.num_classes;

    GenerationResult result;
    Rng rng(config_.gradient.seed);
    std::vector<DynamicBitset> masks;  ///< storage reused across batches
    while (static_cast<int>(result.tests.size()) + k <= config_.max_tests) {
      nn::Sequential loss =
          loss_model(model, config_.gradient, criterion, accumulator);
      const Tensor batch = gradient.generate_batch_tensor(
          loss, ctx.item_shape, k, static_cast<int>(result.probes), rng);
      ++result.probes;
      result.descent_steps += config_.gradient.steps;
      // Coverage is always measured on the TRUE model (Algorithm 2
      // validates against the IP that ships, not the masked scratch copy) —
      // one batched forward for the whole synthetic batch.
      criterion.measure(batch, masks);
      for (int i = 0; i < k; ++i) {
        accumulator.add(masks[static_cast<std::size_t>(i)]);
        FunctionalTest test;
        test.input = slice_batch(batch, i);
        test.source = TestSource::kSynthetic;
        result.tests.push_back(std::move(test));
        result.coverage_after.push_back(accumulator.coverage());
      }
    }
    result.final_coverage = accumulator.coverage();
    return result;
  }

 private:
  GeneratorConfig config_;
};

// ---- "combined": the §IV-D switch rule ----

/// Runs Algorithm 1 while it is the more efficient producer and switches to
/// Algorithm 2 once the coverage gain per synthetic test exceeds the best
/// remaining training sample's gain. Greedy gains and probe masks are
/// measured by the criterion; the accumulator carries the covered state.
class CombinedMethod final : public Generator {
 public:
  explicit CombinedMethod(const GeneratorConfig& config) : config_(config) {}

  std::string name() const override { return "combined"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& model = require_model(ctx, "combined");
    const auto& pool = require_pool(ctx, "combined");
    require_item(ctx, "combined");
    cov::Criterion& criterion = require_criterion(ctx, "combined");
    DNNV_CHECK(config_.max_tests >= 0, "negative test budget");
    DNNV_CHECK(config_.probe_refresh > 0, "probe_refresh must be positive");
    std::vector<DynamicBitset> storage;
    const auto& masks = pool_masks(ctx, pool, storage);
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, scratch);
    DNNV_CHECK(pool.size() == masks.size(), "pool/mask size mismatch");

    GenerationResult result;
    Rng rng(config_.gradient.seed);
    const GradientGenerator gradient(config_.gradient);

    // Lazy-greedy heap over the pool (see GreedyMethod for the argument).
    std::priority_queue<Entry> heap;
    std::vector<bool> used(pool.size(), false);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      heap.push({accumulator.marginal_gain(masks[i]), i});
    }
    // Peeks the candidate with the provably-maximal refreshed gain (the
    // winner is pushed back so a non-commit keeps it available); returns
    // SIZE_MAX when the pool is exhausted.
    auto best_greedy = [&]() -> std::pair<std::size_t, std::size_t> {
      while (!heap.empty()) {
        Entry top = heap.top();
        heap.pop();
        if (used[top.index]) continue;
        const std::size_t fresh = accumulator.marginal_gain(masks[top.index]);
        if (heap.empty() || fresh >= heap.top().gain) {
          heap.push({fresh, top.index});
          return {top.index, fresh};
        }
        top.gain = fresh;
        heap.push(top);
      }
      return {SIZE_MAX, 0};
    };

    // Cached probe batch from Algorithm 2 (inputs + point masks on the true
    // model). Synthesis targets the CURRENT un-activated set (masked
    // model), so a cached probe goes stale as greedy picks grow the covered
    // set — it is regenerated after every probe_refresh greedy commits, not
    // only when committed.
    std::vector<Tensor> probe_inputs;
    std::vector<DynamicBitset> probe_masks;  ///< storage reused across probes
    int commits_since_probe = 0;
    auto make_probe = [&] {
      nn::Sequential loss =
          loss_model(model, config_.gradient, criterion, accumulator);
      const Tensor probe_batch = gradient.generate_batch_tensor(
          loss, ctx.item_shape, ctx.num_classes,
          static_cast<int>(result.probes), rng);
      ++result.probes;
      result.descent_steps += config_.gradient.steps;
      commits_since_probe = 0;
      probe_inputs.clear();
      for (std::int64_t i = 0; i < probe_batch.shape()[0]; ++i) {
        probe_inputs.push_back(slice_batch(probe_batch, i));
      }
      // One batched forward for the whole probe, into reused mask storage.
      criterion.measure(probe_batch, probe_masks);
    };
    auto probe_gain_per_test = [&]() -> double {
      DynamicBitset joint = accumulator.covered();
      std::size_t before = joint.count();
      for (const auto& mask : probe_masks) joint |= mask;
      return static_cast<double>(joint.count() - before) /
             static_cast<double>(probe_masks.size());
    };
    auto commit_probe = [&] {
      for (std::size_t i = 0; i < probe_inputs.size() &&
                              static_cast<int>(result.tests.size()) <
                                  config_.max_tests;
           ++i) {
        accumulator.add(probe_masks[i]);
        FunctionalTest test;
        test.input = probe_inputs[i];
        test.source = TestSource::kSynthetic;
        result.tests.push_back(std::move(test));
        result.coverage_after.push_back(accumulator.coverage());
      }
      // probe_masks keeps its storage for the next measure(); an empty
      // probe_inputs marks the cache invalid.
      probe_inputs.clear();
    };

    bool switched = false;
    while (static_cast<int>(result.tests.size()) < config_.max_tests) {
      if (switched) {
        make_probe();
        commit_probe();
        continue;
      }
      const auto [greedy_index, greedy_gain] = best_greedy();
      const bool refreshed = probe_inputs.empty() ||
                             commits_since_probe >= config_.probe_refresh;
      if (refreshed) make_probe();
      const double synth_gain = probe_gain_per_test();

      // §IV-D switch rule: move to Algorithm 2 when its per-test coverage
      // gain exceeds Algorithm 1's next pick.
      const bool choose_synth = greedy_index == SIZE_MAX ||
                                synth_gain > static_cast<double>(greedy_gain);
      result.decisions.push_back(
          {result.tests.size(),
           greedy_index == SIZE_MAX ? 0.0 : static_cast<double>(greedy_gain),
           synth_gain, choose_synth, refreshed});
      if (choose_synth) {
        commit_probe();
        if (config_.policy == SwitchPolicy::kSwitchOnce) switched = true;
        continue;
      }
      accumulator.add(masks[greedy_index]);
      used[greedy_index] = true;
      ++commits_since_probe;
      FunctionalTest test;
      test.input = pool[greedy_index];
      test.source = TestSource::kTrainingSample;
      test.pool_index = static_cast<std::int64_t>(greedy_index);
      result.tests.push_back(std::move(test));
      result.coverage_after.push_back(accumulator.coverage());
    }
    result.final_coverage = accumulator.coverage();
    return result;
  }

 private:
  GeneratorConfig config_;
};

// ---- "neuron": the saturation baseline of [10]/[11] ----

/// Greedy selection from the pool until no candidate adds a new point, then
/// random fill of the remaining budget — the baseline's "stop at all
/// neurons covered" behaviour. Under the "neuron" criterion this is the
/// paper's neuron-coverage comparison suite (Tables II/III). Tracks its
/// covered set itself; the shared accumulator is not touched.
class NeuronMethod final : public Generator {
 public:
  explicit NeuronMethod(const GeneratorConfig& config) : config_(config) {}

  std::string name() const override { return "neuron"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& pool = require_pool(ctx, "neuron");
    require_criterion(ctx, "neuron");
    DNNV_CHECK(!pool.empty(), "empty candidate pool");
    std::vector<DynamicBitset> storage;
    const auto& masks = pool_masks(ctx, pool, storage);
    DNNV_CHECK(pool.size() == masks.size(), "pool/mask size mismatch");

    DynamicBitset covered(masks.front().size());
    std::vector<bool> used(pool.size(), false);
    std::priority_queue<Entry> heap;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      heap.push({masks[i].count(), i});
    }

    GenerationResult result;
    auto add_test = [&](std::size_t index) {
      covered |= masks[index];
      used[index] = true;
      FunctionalTest test;
      test.input = pool[index];
      test.source = TestSource::kTrainingSample;
      test.pool_index = static_cast<std::int64_t>(index);
      result.tests.push_back(std::move(test));
      result.coverage_after.push_back(static_cast<double>(covered.count()) /
                                      static_cast<double>(covered.size()));
    };

    // Greedy phase (lazy evaluation, same argument as GreedyMethod).
    while (static_cast<int>(result.tests.size()) < config_.max_tests &&
           !heap.empty()) {
      Entry top = heap.top();
      heap.pop();
      if (used[top.index]) continue;
      const std::size_t fresh = covered.count_new_bits(masks[top.index]);
      if (!heap.empty() && fresh < heap.top().gain) {
        top.gain = fresh;
        heap.push(top);
        continue;
      }
      if (fresh == 0) break;  // saturated
      add_test(top.index);
    }

    // Random fill after saturation.
    Rng rng(config_.neuron_fill_seed);
    std::vector<int> order(pool.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (const int idx : order) {
      if (static_cast<int>(result.tests.size()) >= config_.max_tests) break;
      if (!used[static_cast<std::size_t>(idx)]) {
        add_test(static_cast<std::size_t>(idx));
      }
    }
    result.final_coverage = static_cast<double>(covered.count()) /
                            static_cast<double>(covered.size());
    return result;
  }

 private:
  GeneratorConfig config_;
};

// ---- "random": the control ----

/// Uniform random selection from the pool. Selection never consults
/// coverage; the criterion only supplies the coverage trajectory (what
/// Fig 3 plots for the random curve).
class RandomMethod final : public Generator {
 public:
  explicit RandomMethod(const GeneratorConfig& config) : config_(config) {}

  std::string name() const override { return "random"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& pool = require_pool(ctx, "random");
    cov::Criterion& criterion = require_criterion(ctx, "random");
    DNNV_CHECK(!pool.empty(), "empty candidate pool");
    Rng rng(config_.random_seed);
    std::vector<int> order(pool.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);

    GenerationResult result;
    const int count =
        std::min<int>(config_.max_tests, static_cast<int>(pool.size()));
    for (int i = 0; i < count; ++i) {
      const int index = order[static_cast<std::size_t>(i)];
      FunctionalTest test;
      test.input = pool[static_cast<std::size_t>(index)];
      test.source = TestSource::kRandom;
      test.pool_index = index;
      result.tests.push_back(std::move(test));
    }

    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, scratch);
    const auto add = [&](const DynamicBitset& mask) {
      accumulator.add(mask);
      result.coverage_after.push_back(accumulator.coverage());
    };
    if (ctx.masks != nullptr) {
      DNNV_CHECK(ctx.masks->size() == pool.size(), "pool/mask size mismatch");
      for (const auto& test : result.tests) {
        add((*ctx.masks)[static_cast<std::size_t>(test.pool_index)]);
      }
    } else {
      // Measure only the selected tests — the whole-pool pass is for
      // benches that share masks across methods.
      std::vector<Tensor> selected;
      selected.reserve(result.tests.size());
      for (const auto& test : result.tests) selected.push_back(test.input);
      for (const auto& mask : criterion.measure_pool(selected)) add(mask);
    }
    result.final_coverage = accumulator.coverage();
    return result;
  }

 private:
  GeneratorConfig config_;
};

// ---- the method table ----

template <typename Method>
std::unique_ptr<Generator> construct(const GeneratorConfig& config) {
  return std::make_unique<Method>(config);
}

struct MethodEntry {
  const char* name;
  std::unique_ptr<Generator> (*make)(const GeneratorConfig&);
};

constexpr MethodEntry kMethods[] = {
    {"greedy", &construct<GreedyMethod>},
    {"gradient", &construct<GradientMethod>},
    {"combined", &construct<CombinedMethod>},
    {"neuron", &construct<NeuronMethod>},
    {"random", &construct<RandomMethod>},
};

const MethodEntry* find_method(const std::string& name) {
  for (const MethodEntry& entry : kMethods) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Generator> make_generator(const std::string& name,
                                          const GeneratorConfig& config) {
  const MethodEntry* entry = find_method(name);
  if (entry == nullptr) {
    std::string known;
    for (const MethodEntry& method : kMethods) {
      if (!known.empty()) known += ", ";
      known += method.name;
    }
    DNNV_THROW("unknown generator '" << name << "' (registered: " << known
                                     << ")");
  }
  return entry->make(config);
}

bool generator_registered(const std::string& name) {
  return find_method(name) != nullptr;
}

std::vector<std::string> generator_names() {
  std::vector<std::string> names;
  for (const MethodEntry& entry : kMethods) names.emplace_back(entry.name);
  return names;
}

}  // namespace dnnv::testgen
