// Test-generation algorithm tests: greedy optimality and laziness, gradient
// synthesis, the combined switch rule, and the baselines — every method run
// through make_generator.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>

#include "coverage/criterion.h"
#include "coverage/parameter_coverage.h"
#include "exp/model_zoo.h"
#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/loss.h"
#include "tensor/batch.h"
#include "testgen/generator.h"
#include "util/error.h"

namespace dnnv::testgen {
namespace {

using nn::ActivationKind;
using nn::Sequential;

Sequential small_relu_net(std::uint64_t seed = 21) {
  Rng rng(seed);
  return nn::build_mlp(6, {10, 8}, 4, ActivationKind::kReLU, rng);
}

std::vector<Tensor> random_pool(int count, std::uint64_t seed = 22) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  for (int i = 0; i < count; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{6}, rng, -1.0f, 1.0f));
  }
  return pool;
}

/// The pool-item masks of `model` under the paper's "parameter" criterion.
std::vector<DynamicBitset> pool_masks(const Sequential& model,
                                      const std::vector<Tensor>& pool) {
  return cov::make_parameter_criterion(model, cov::CoverageConfig{})
      ->measure_pool(pool);
}

/// Runs `method` on the 6-feature, 4-class test nets, selecting by a
/// `criterion` built over `model`. `pool`, `masks` and `acc` are optional
/// context fields.
GenerationResult run(const std::string& method, const GeneratorConfig& config,
                     const Sequential& model, const std::vector<Tensor>* pool,
                     cov::CoverageAccumulator* acc = nullptr,
                     const std::vector<DynamicBitset>* masks = nullptr,
                     const std::string& criterion = "parameter") {
  cov::CriterionContext criterion_ctx;
  criterion_ctx.model = &model;
  criterion_ctx.item_shape = Shape{6};
  const auto bound = cov::make_criterion(criterion, criterion_ctx);
  GenContext ctx;
  ctx.model = &model;
  ctx.pool = pool;
  ctx.masks = masks;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  ctx.criterion = bound.get();
  ctx.accumulator = acc;
  return make_generator(method, config)->generate(ctx);
}

// Naive Algorithm 1 exactly as printed in the paper (full rescan per round).
std::vector<std::size_t> naive_greedy(const std::vector<DynamicBitset>& masks,
                                      std::size_t universe, int budget) {
  DynamicBitset covered(universe);
  std::vector<bool> used(masks.size(), false);
  std::vector<std::size_t> picks;
  for (int round = 0; round < budget; ++round) {
    std::size_t best = SIZE_MAX;
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
      if (used[i]) continue;
      const std::size_t gain = covered.count_new_bits(masks[i]);
      // Strict > keeps the first-best tie rule of a linear scan.
      if (best == SIZE_MAX || gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == SIZE_MAX) break;
    covered |= masks[best];
    used[best] = true;
    picks.push_back(best);
  }
  return picks;
}

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

/// A tiny zoo model with a matching training-pool slice.
struct ZooCase {
  exp::TrainedModel trained;
  data::MaterializedData pool;
};

std::vector<ZooCase> zoo_cases(std::int64_t pool_size) {
  const auto zoo = tiny_options();
  std::vector<ZooCase> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_train(pool_size)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_train(pool_size)});
  return cases;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// Reference oracle for GradientGenerator::generate_batch_tensor: the
// whole-batch Algorithm 2 descent on one model, one thread — forward,
// mean softmax cross-entropy over all k items, zero_grads, and the full
// allocating backward (parameter gradients included) every step.
Tensor whole_batch_descent(const GradientGenerator::Options& options,
                           Sequential& loss_model, const Shape& item_shape,
                           int num_classes, int batch_index, Rng& rng) {
  if (options.backward_leak != 0.0f) {
    for (std::size_t l = 0; l < loss_model.num_layers(); ++l) {
      if (auto* act =
              dynamic_cast<nn::ActivationLayer*>(&loss_model.layer(l))) {
        act->set_backward_leak(options.backward_leak);
      }
    }
  }
  std::vector<std::int64_t> dims;
  dims.push_back(num_classes);
  dims.insert(dims.end(), item_shape.dims().begin(), item_shape.dims().end());
  Tensor batch{Shape(dims)};
  if (batch_index > 0 && options.init_stddev > 0.0f) {
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] = static_cast<float>(
          rng.normal(0.0, static_cast<double>(options.init_stddev)));
    }
    clamp_(batch, options.clamp_lo, options.clamp_hi);
  }
  std::vector<int> labels(static_cast<std::size_t>(num_classes));
  for (int i = 0; i < num_classes; ++i) labels[static_cast<std::size_t>(i)] = i;
  const float step = options.learning_rate * static_cast<float>(num_classes);
  for (int t = 0; t < options.steps; ++t) {
    const Tensor logits = loss_model.forward(batch);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    loss_model.zero_grads();
    const Tensor grad_input = loss_model.backward(loss.grad_logits);
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] -= step * grad_input[i];
    }
    clamp_(batch, options.clamp_lo, options.clamp_hi);
  }
  loss_model.zero_grads();
  return batch;
}

/// Runs the sharded descent and the oracle from the same model and RNG
/// state; expects bit-identical batches and the same RNG state after.
void expect_descent_matches_oracle(const GradientGenerator::Options& options,
                                   const Sequential& loss_model,
                                   const Shape& item_shape, int num_classes,
                                   int batch_index, std::uint64_t seed) {
  Sequential sharded_model = loss_model.clone();
  Rng sharded_rng(seed);
  const Tensor sharded = GradientGenerator(options).generate_batch_tensor(
      sharded_model, item_shape, num_classes, batch_index, sharded_rng);
  Sequential oracle_model = loss_model.clone();
  Rng oracle_rng(seed);
  const Tensor oracle = whole_batch_descent(
      options, oracle_model, item_shape, num_classes, batch_index, oracle_rng);
  EXPECT_TRUE(bitwise_equal(sharded, oracle))
      << "k=" << num_classes << " batch_index=" << batch_index;
  EXPECT_EQ(sharded_rng.next_u64(), oracle_rng.next_u64());
  // The descent moved the zero init: the comparison is not of two zero
  // batches.
  if (batch_index == 0) EXPECT_GT(max_abs(oracle), 0.0f);
}

// ---------- "greedy" (Algorithm 1) ----------

TEST(GreedySelectorTest, CoverageTrajectoryIsMonotone) {
  Sequential model = small_relu_net();
  const auto pool = random_pool(30);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GeneratorConfig config;
  config.max_tests = 10;
  const auto result = run("greedy", config, model, &pool, &acc);
  ASSERT_EQ(result.tests.size(), 10u);
  ASSERT_EQ(result.coverage_after.size(), 10u);
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.final_coverage, acc.coverage());
  for (const auto& test : result.tests) {
    EXPECT_EQ(test.source, TestSource::kTrainingSample);
    EXPECT_GE(test.pool_index, 0);
  }
}

TEST(GreedySelectorTest, LazyGreedyCoverageMatchesNaive) {
  // Lazy (CELF) greedy may break exact ties differently from a linear scan,
  // but the resulting coverage after every round must match the naive
  // Algorithm 1 (both are exact greedy maximisers of a submodular gain).
  Sequential model = small_relu_net(31);
  const auto pool = random_pool(40, 32);
  const auto masks = pool_masks(model, pool);
  const auto universe = static_cast<std::size_t>(model.param_count());

  const auto naive = naive_greedy(masks, universe, 12);

  cov::CoverageAccumulator acc(universe);
  GeneratorConfig config;
  config.max_tests = 12;
  const auto lazy = run("greedy", config, model, &pool, &acc, &masks);

  ASSERT_EQ(lazy.tests.size(), naive.size());
  DynamicBitset naive_covered(universe);
  for (std::size_t round = 0; round < naive.size(); ++round) {
    naive_covered |= masks[naive[round]];
    EXPECT_NEAR(lazy.coverage_after[round],
                static_cast<double>(naive_covered.count()) /
                    static_cast<double>(universe),
                1e-12)
        << "round " << round;
  }
}

TEST(GreedySelectorTest, FirstPickHasMaximalSingleCoverage) {
  Sequential model = small_relu_net(41);
  const auto pool = random_pool(25, 42);
  const auto masks = pool_masks(model, pool);
  std::size_t best_count = 0;
  for (const auto& mask : masks) best_count = std::max(best_count, mask.count());

  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GeneratorConfig config;
  config.max_tests = 1;
  const auto result = run("greedy", config, model, &pool, &acc, &masks);
  ASSERT_EQ(result.tests.size(), 1u);
  EXPECT_EQ(masks[static_cast<std::size_t>(result.tests[0].pool_index)].count(),
            best_count);
}

TEST(GreedySelectorTest, NeverSelectsSamePoolEntryTwice) {
  Sequential model = small_relu_net(61);
  const auto pool = random_pool(5, 62);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GeneratorConfig config;
  config.max_tests = 10;  // more than the pool
  const auto result = run("greedy", config, model, &pool, &acc);
  EXPECT_EQ(result.tests.size(), 5u);
  std::set<std::int64_t> picked;
  for (const auto& test : result.tests) picked.insert(test.pool_index);
  EXPECT_EQ(picked.size(), 5u);
}

// ---------- Algorithm 2 primitives and "gradient" ----------

TEST(GradientGeneratorTest, SynthesisedBatchTargetsEachClass) {
  Sequential model = small_relu_net(71);
  // Freshly-initialised models have all-zero biases, making the all-zero
  // input a stationary point of the loss (every ReLU pre-activation is
  // exactly 0). Trained models never have that property; emulate it.
  Rng bias_rng(70);
  for (const auto& view : model.param_views()) {
    if (view.is_bias) {
      for (std::int64_t i = 0; i < view.size; ++i) {
        view.data[i] = static_cast<float>(bias_rng.normal(0.0, 0.3));
      }
    }
  }
  GradientGenerator::Options options;
  options.steps = 300;
  options.learning_rate = 0.03f;
  options.clamp_lo = -2.0f;
  options.clamp_hi = 2.0f;
  GradientGenerator generator(options);
  Rng rng(7);
  Sequential loss_model = model.clone();
  const auto batch = generator.generate_batch(loss_model, Shape{6}, 4, 0, rng);
  ASSERT_EQ(batch.size(), 4u);
  int classified_as_target = 0;
  for (int i = 0; i < 4; ++i) {
    if (model.predict_label(batch[static_cast<std::size_t>(i)]) == i) {
      ++classified_as_target;
    }
  }
  // Gradient descent should steer most class inputs to their target label.
  EXPECT_GE(classified_as_target, 3);
}

TEST(GradientGeneratorTest, FirstBatchStartsFromZeros) {
  Sequential model = small_relu_net(72);
  GradientGenerator::Options options;
  options.steps = 0;  // no updates: output must be the initialisation
  GradientGenerator generator(options);
  Rng rng(8);
  Sequential loss_model = model.clone();
  const auto batch = generator.generate_batch(loss_model, Shape{6}, 4, 0, rng);
  for (const auto& input : batch) {
    EXPECT_FLOAT_EQ(max_abs(input), 0.0f);
  }
  // Later batches jitter their init.
  const auto batch1 = generator.generate_batch(loss_model, Shape{6}, 4, 1, rng);
  EXPECT_GT(max_abs(batch1.front()), 0.0f);
}

TEST(GradientGeneratorTest, MaskedModelZeroesCoveredParams) {
  Sequential model = small_relu_net(73);
  DynamicBitset covered(static_cast<std::size_t>(model.param_count()));
  covered.set(0);
  covered.set(5);
  Sequential masked = GradientGenerator::masked_model(model, covered);
  EXPECT_EQ(masked.get_param(0), 0.0f);
  EXPECT_EQ(masked.get_param(5), 0.0f);
  EXPECT_EQ(masked.get_param(1), model.get_param(1));
}

TEST(GradientGeneratorTest, GenerateFillsBudgetInClassBatches) {
  Sequential model = small_relu_net(74);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GeneratorConfig config;
  config.max_tests = 10;  // 2 full batches of k=4 fit
  config.gradient.steps = 20;
  const auto result = run("gradient", config, model, nullptr, &acc);
  EXPECT_EQ(result.tests.size(), 8u);
  for (const auto& test : result.tests) {
    EXPECT_EQ(test.source, TestSource::kSynthetic);
    EXPECT_EQ(test.pool_index, -1);
  }
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
}

// The item-sharded, input-gradient-only descent equals the whole-batch
// descent with full backward bit for bit, masked and unmasked, from zeros
// and from jitter, on both tiny zoo models.
TEST(GradientGeneratorTest, DescentMatchesWholeBatchOracleOnZooModels) {
  for (const auto& c : zoo_cases(1)) {
    SCOPED_TRACE(c.trained.name);
    // Every third parameter covered: a mask that leaves gradient paths open
    // through every layer.
    DynamicBitset covered(
        static_cast<std::size_t>(c.trained.model.param_count()));
    for (std::size_t bit = 0; bit < covered.size(); bit += 3) covered.set(bit);

    GradientGenerator::Options options;
    options.steps = 12;
    for (const bool mask_activated : {true, false}) {
      SCOPED_TRACE("mask_activated=" + std::to_string(mask_activated));
      const Sequential loss_model =
          mask_activated
              ? GradientGenerator::masked_model(c.trained.model, covered)
              : c.trained.model.clone();
      for (const int batch_index : {0, 1}) {
        expect_descent_matches_oracle(options, loss_model, c.trained.item_shape,
                                      c.trained.num_classes, batch_index, 31);
      }
    }
  }
}

// Uneven shards and fewer items than pool threads run the same arithmetic.
TEST(GradientGeneratorTest, DescentMatchesWholeBatchOracleForAnyItemCount) {
  for (const int k : {2, 3, 4, 10}) {
    Rng rng(static_cast<std::uint64_t>(40 + k));
    Sequential model = nn::build_mlp(6, {10, 8}, k, ActivationKind::kReLU, rng);
    GradientGenerator::Options options;
    options.steps = 25;
    options.learning_rate = 0.1f;
    for (const int batch_index : {0, 1}) {
      expect_descent_matches_oracle(options, model, Shape{6}, k, batch_index,
                                    static_cast<std::uint64_t>(k));
    }
  }
}

// ---------- "combined" (§IV-D) ----------

TEST(CombinedGeneratorTest, FillsBudgetAndMixesSources) {
  Sequential model = small_relu_net(81);
  const auto pool = random_pool(20, 82);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GeneratorConfig config;
  config.max_tests = 16;
  config.gradient.steps = 20;
  config.gradient.seed = 5;
  const auto result = run("combined", config, model, &pool, &acc);
  EXPECT_EQ(result.tests.size(), 16u);
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  // The early picks should come from the training pool (real samples win
  // early, as the paper argues).
  EXPECT_EQ(result.tests.front().source, TestSource::kTrainingSample);
}

TEST(CombinedGeneratorTest, AtLeastMatchesGreedyAloneOnFinalCoverage) {
  Sequential model = small_relu_net(91);
  const auto pool = random_pool(20, 92);
  const auto universe = static_cast<std::size_t>(model.param_count());
  const auto masks = pool_masks(model, pool);

  cov::CoverageAccumulator greedy_acc(universe);
  GeneratorConfig greedy_config;
  greedy_config.max_tests = 16;
  const auto greedy =
      run("greedy", greedy_config, model, &pool, &greedy_acc, &masks);

  cov::CoverageAccumulator combined_acc(universe);
  GeneratorConfig config;
  config.max_tests = 16;
  config.gradient.steps = 30;
  const auto combined =
      run("combined", config, model, &pool, &combined_acc, &masks);

  EXPECT_GE(combined.final_coverage + 1e-9, greedy.final_coverage);
}

TEST(CombinedGeneratorTest, SwitchesToSyntheticWhenPoolExhausted) {
  Sequential model = small_relu_net(93);
  // Pool of one sample: after it, only Algorithm 2 can add coverage.
  const auto pool = random_pool(1, 94);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GeneratorConfig config;
  config.max_tests = 9;  // 1 pool + 2 batches of 4
  config.gradient.steps = 10;
  const auto result = run("combined", config, model, &pool, &acc);
  ASSERT_EQ(result.tests.size(), 9u);
  int synthetic = 0;
  for (const auto& test : result.tests) {
    if (test.source == TestSource::kSynthetic) ++synthetic;
  }
  EXPECT_EQ(synthetic, 8);
}

// Exact work counts on both tiny zoo models: each probe is one T-step
// descent; "gradient" synthesises whole k-batches; "combined" makes the
// probes its decision trace regenerated plus one per k-batch it commits
// after the switch. The six-sample pool forces the switch at exhaustion.
TEST(CombinedGeneratorTest, WorkCountsMatchDecisionTraceOnZooModels) {
  for (const auto& c : zoo_cases(6)) {
    SCOPED_TRACE(c.trained.name);
    const auto criterion =
        cov::make_parameter_criterion(c.trained.model, c.trained.coverage);
    GenContext ctx;
    ctx.model = &c.trained.model;
    ctx.pool = &c.pool.images;
    ctx.item_shape = c.trained.item_shape;
    ctx.num_classes = c.trained.num_classes;
    ctx.criterion = criterion.get();
    GeneratorConfig config;
    config.max_tests = 36;
    config.probe_refresh = 2;
    config.gradient.steps = 6;
    const auto k = static_cast<std::size_t>(c.trained.num_classes);

    const auto combined = make_generator("combined", config)->generate(ctx);
    ASSERT_EQ(combined.tests.size(), 36u);
    ASSERT_TRUE(combined.decisions.back().chose_synthetic);
    std::int64_t refreshed = 0;
    for (const auto& d : combined.decisions) refreshed += d.probe_refreshed;
    const std::size_t after_switch_commit =
        std::min(combined.tests.size(), combined.decisions.back().step + k);
    const auto after_switch = static_cast<std::int64_t>(
        (combined.tests.size() - after_switch_commit + k - 1) / k);
    EXPECT_GT(after_switch, 0);
    EXPECT_EQ(combined.probes, refreshed + after_switch);
    EXPECT_EQ(combined.descent_steps,
              combined.probes * config.gradient.steps);

    const auto gradient = make_generator("gradient", config)->generate(ctx);
    EXPECT_EQ(gradient.probes,
              static_cast<std::int64_t>(gradient.tests.size() / k));
    EXPECT_EQ(gradient.probes, 3);
    EXPECT_EQ(gradient.descent_steps,
              gradient.probes * config.gradient.steps);

    const auto greedy = make_generator("greedy", config)->generate(ctx);
    EXPECT_EQ(greedy.probes, 0);
    EXPECT_EQ(greedy.descent_steps, 0);
  }
}

// Satellite check for the §IV-D machinery: replay the recorded decision
// trace of a deterministic run and verify (a) the lazy-greedy heap reported
// exactly the gain a naive full rescan would (staleness handled), (b) the
// probe batch was regenerated exactly on the probe_refresh cadence, and
// (c) the switch rule fired exactly when the synthetic per-test gain
// exceeded the next greedy gain — never before.
TEST(CombinedGeneratorTest, DecisionTraceVerifiesSwitchRuleAndProbeStaleness) {
  Sequential model = small_relu_net(101);
  // Small pool + larger budget: greedy gains decay as masks overlap, so the
  // run provably ends in Algorithm 2 (organically or at pool exhaustion).
  const auto pool = random_pool(8, 102);
  const auto universe = static_cast<std::size_t>(model.param_count());
  const auto masks = pool_masks(model, pool);

  cov::CoverageAccumulator acc(universe);
  GeneratorConfig config;
  config.max_tests = 16;
  config.probe_refresh = 3;  // tight cadence so staleness logic is exercised
  config.gradient.steps = 15;
  const auto result = run("combined", config, model, &pool, &acc, &masks);
  ASSERT_FALSE(result.decisions.empty());

  // Replay state: the covered set and pool usage as of each decision.
  Sequential mask_model = model.clone();
  cov::ParameterCoverage coverage(mask_model, cov::CoverageConfig{});
  DynamicBitset covered(universe);
  std::vector<bool> used(pool.size(), false);
  std::size_t test_idx = 0;
  int commits_since_probe = 0;
  bool have_probe = false;

  auto consume_tests_until = [&](std::size_t stop) {
    for (; test_idx < stop && test_idx < result.tests.size(); ++test_idx) {
      const auto& test = result.tests[test_idx];
      if (test.source == TestSource::kTrainingSample) {
        ASSERT_GE(test.pool_index, 0);
        covered |= masks[static_cast<std::size_t>(test.pool_index)];
        used[static_cast<std::size_t>(test.pool_index)] = true;
        ++commits_since_probe;
      } else {
        covered |= coverage.activation_mask(test.input);
      }
    }
  };

  for (std::size_t di = 0; di < result.decisions.size(); ++di) {
    const auto& d = result.decisions[di];
    consume_tests_until(d.step);
    ASSERT_EQ(test_idx, d.step);

    // (b) staleness cadence: refresh iff no probe yet or probe_refresh
    // greedy commits landed since the last refresh.
    EXPECT_EQ(d.probe_refreshed,
              !have_probe || commits_since_probe >= config.probe_refresh)
        << "decision " << di;
    if (d.probe_refreshed) {
      have_probe = true;
      commits_since_probe = 0;
    }

    // (a) lazy-greedy == naive full rescan on the replayed covered set.
    std::size_t naive_best = 0;
    bool pool_left = false;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      pool_left = true;
      naive_best = std::max(naive_best, covered.count_new_bits(masks[i]));
    }
    if (pool_left) {
      EXPECT_DOUBLE_EQ(d.greedy_gain, static_cast<double>(naive_best))
          << "decision " << di;
    }

    // (c) the switch rule, exactly.
    EXPECT_EQ(d.chose_synthetic,
              !pool_left || d.synthetic_gain > d.greedy_gain)
        << "decision " << di;

    // kSwitchOnce: the first synthetic choice ends the decision trace.
    if (d.chose_synthetic) EXPECT_EQ(di, result.decisions.size() - 1);
  }

  // The run must have exercised both producers for the assertions above to
  // mean anything.
  EXPECT_GT(result.decisions.size(), 1u);
  EXPECT_TRUE(result.decisions.back().chose_synthetic);
  for (std::size_t di = 0; di + 1 < result.decisions.size(); ++di) {
    EXPECT_FALSE(result.decisions[di].chose_synthetic);
  }
}

// ---------- "neuron" / "random" baselines ----------

TEST(NeuronSelectorTest, SelectsBudgetAndSaturates) {
  Sequential model = small_relu_net(95);
  const auto pool = random_pool(15, 96);
  GeneratorConfig config;
  config.max_tests = 10;
  const auto result =
      run("neuron", config, model, &pool, nullptr, nullptr, "neuron");
  EXPECT_EQ(result.tests.size(), 10u);
  // Neuron coverage of an MLP saturates almost immediately; the trajectory
  // must be monotone and hit its ceiling early.
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  EXPECT_NEAR(result.coverage_after[2], result.final_coverage, 0.15);
}

TEST(NeuronSelectorTest, NoDuplicatePicks) {
  Sequential model = small_relu_net(97);
  const auto pool = random_pool(12, 98);
  GeneratorConfig config;
  config.max_tests = 12;
  const auto result =
      run("neuron", config, model, &pool, nullptr, nullptr, "neuron");
  std::set<std::int64_t> picked;
  for (const auto& test : result.tests) picked.insert(test.pool_index);
  EXPECT_EQ(picked.size(), result.tests.size());
}

TEST(RandomSelectorTest, DeterministicAndBounded) {
  const Sequential model = small_relu_net(99);
  const auto pool = random_pool(9, 99);
  GeneratorConfig config;
  config.max_tests = 5;
  config.random_seed = 7;
  const auto a = run("random", config, model, &pool);
  const auto b = run("random", config, model, &pool);
  ASSERT_EQ(a.tests.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.tests[i].pool_index, b.tests[i].pool_index);
  }
  config.max_tests = 50;
  const auto all = run("random", config, model, &pool);
  EXPECT_EQ(all.tests.size(), 9u);  // clamped to pool size
}

// Selection never consults coverage; the trajectory is the same whether it
// comes from precomputed pool masks or from measuring the picks.
TEST(RandomSelectorTest, TrajectoryFromMasksMatchesMeasuredPicks) {
  const Sequential model = small_relu_net(71);
  const auto pool = random_pool(12, 72);
  const auto masks = pool_masks(model, pool);
  const auto universe = static_cast<std::size_t>(model.param_count());
  GeneratorConfig config;
  config.max_tests = 6;

  cov::CoverageAccumulator acc(universe);
  const auto traced = run("random", config, model, &pool, &acc, &masks);
  ASSERT_EQ(traced.coverage_after.size(), traced.tests.size());
  EXPECT_EQ(traced.final_coverage, acc.coverage());

  const auto measured = run("random", config, model, &pool);
  ASSERT_EQ(measured.tests.size(), traced.tests.size());
  for (std::size_t i = 0; i < traced.tests.size(); ++i) {
    EXPECT_EQ(measured.tests[i].pool_index, traced.tests[i].pool_index);
  }
  EXPECT_EQ(measured.coverage_after, traced.coverage_after);
}

}  // namespace
}  // namespace dnnv::testgen
