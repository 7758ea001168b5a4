// src/analysis/ tests: interval range analysis soundness against traced
// executions, the equal_on_interval step-function walk, static fault
// testability — including the load-bearing contracts that every statically
// untestable fault is undetected by exhaustive fault simulation and every
// dominated fault's detection row contains its representative's on the
// full fault x test matrix, plus the pinned full-universe counts of both
// tiny zoo models — and the IR verifier (model, bundle, and systolic timing-
// model rules) against seeded corruptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/range_analysis.h"
#include "analysis/testability.h"
#include "analysis/verifier.h"
#include "exp/model_zoo.h"
#include "fault/fault_model.h"
#include "fault/qualify.h"
#include "fault/simulator.h"
#include "ip/systolic.h"
#include "nn/builder.h"
#include "nn/workspace.h"
#include "quant/quant_model.h"
#include "quant/quantize.h"
#include "tensor/batch.h"
#include "util/error.h"
#include "validate/test_suite.h"

namespace dnnv {
namespace {

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

quant::QuantModel small_qmodel(std::uint64_t seed = 21) {
  Rng rng(seed);
  auto net = nn::build_mlp(6, {10}, 4, nn::ActivationKind::kReLU, rng);
  Rng pool_rng(seed + 1);
  std::vector<Tensor> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{6}, pool_rng, -1.0f, 1.0f));
  }
  return quant::QuantModel::quantize(net, pool);
}

std::size_t count_rule(const std::vector<analysis::Finding>& findings,
                       const std::string& rule,
                       analysis::Severity severity = analysis::Severity::kError) {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule && f.severity == severity) ++n;
  }
  return n;
}

// ---------- equal_on_interval ----------

TEST(EqualOnIntervalTest, AgreesOnIdenticalStepFunctions) {
  const auto f = [](std::int64_t t) -> int {
    return static_cast<int>(std::clamp<std::int64_t>(t / 100, -127, 127));
  };
  EXPECT_TRUE(analysis::equal_on_interval(f, f, -20000, 20000));
  EXPECT_TRUE(analysis::equal_on_interval(f, f, 5, 5));
  EXPECT_TRUE(analysis::equal_on_interval(f, f, 10, 5));  // empty interval
}

TEST(EqualOnIntervalTest, CatchesSinglePointDisagreement) {
  const auto f = [](std::int64_t t) -> int {
    return static_cast<int>(std::clamp<std::int64_t>(t / 100, -127, 127));
  };
  // g differs from f only on the single segment [700, 799].
  const auto g = [&](std::int64_t t) -> int {
    return t >= 700 && t < 800 ? f(t) + 1 : f(t);
  };
  EXPECT_FALSE(analysis::equal_on_interval(f, g, -20000, 20000));
  EXPECT_FALSE(analysis::equal_on_interval(f, g, 799, 799));
  EXPECT_TRUE(analysis::equal_on_interval(f, g, 800, 20000));
  EXPECT_TRUE(analysis::equal_on_interval(f, g, -20000, 699));
}

TEST(EqualOnIntervalTest, FailsClosedOnNonMonotoneInput) {
  const auto f = [](std::int64_t t) -> int { return static_cast<int>(-t); };
  const auto g = f;
  // Decreasing endpoints are detected and the proof is refused.
  EXPECT_FALSE(analysis::equal_on_interval(f, g, 0, 10));
}

TEST(EqualOnIntervalTest, MatchesExhaustiveCheckOnRequantCurves) {
  quant::Requant rq1{1518500250, 38};
  quant::Requant rq2 = rq1;
  rq2.multiplier ^= 1 << 15;
  const auto f1 = [&](std::int64_t t) -> int {
    return quant::requantize(static_cast<std::int32_t>(t), rq1);
  };
  const auto f2 = [&](std::int64_t t) -> int {
    return quant::requantize(static_cast<std::int32_t>(t), rq2);
  };
  for (const std::int64_t lo : {std::int64_t{-70000}, std::int64_t{-257},
                                std::int64_t{0}, std::int64_t{40000}}) {
    const std::int64_t hi = lo + 4096;
    bool brute_equal = true;
    for (std::int64_t t = lo; t <= hi; ++t) {
      if (f1(t) != f2(t)) {
        brute_equal = false;
        break;
      }
    }
    EXPECT_EQ(analysis::equal_on_interval(f1, f2, lo, hi), brute_equal)
        << "[" << lo << ", " << hi << "]";
  }
}

// ---------- range analysis ----------

TEST(RangeAnalysisTest, LutImageScansTheCodeInterval) {
  std::array<std::int8_t, 256> lut{};
  for (int c = -128; c <= 127; ++c) {
    lut[static_cast<std::size_t>(c & 0xFF)] =
        static_cast<std::int8_t>(std::clamp(c / 2, -127, 127));
  }
  const auto image = analysis::lut_image(lut, analysis::Interval{-10, 20});
  EXPECT_EQ(image, (analysis::Interval{-5, 10}));
  EXPECT_TRUE(
      analysis::lut_image(lut, analysis::Interval{4, 5}).singleton());
}

/// The output channel a flat index of a traced layer-input buffer belongs
/// to, given the per-item dims and the per-channel interval count.
std::int64_t channel_of(std::int64_t idx,
                        const std::vector<std::int64_t>& dims,
                        std::size_t channels) {
  std::int64_t numel = 1;
  for (const std::int64_t d : dims) numel *= d;
  return idx / (numel / static_cast<std::int64_t>(channels));
}

void expect_trace_enclosed(quant::QuantModel& qmodel, const Tensor& batch,
                           const std::string& tag) {
  const analysis::ModelRange range = analysis::analyze_ranges(qmodel);
  ASSERT_EQ(range.layers.size(), qmodel.layers().size()) << tag;

  nn::Workspace ws;
  quant::QuantModel::ForwardTrace trace;
  qmodel.forward_traced(batch, ws, trace);
  ASSERT_EQ(trace.entries.size(), qmodel.layers().size()) << tag;

  // Entry li holds the codes FEEDING layer li, i.e. the output of layer
  // li-1 — every observed code must sit inside that layer's out interval.
  for (std::size_t li = 1; li < trace.entries.size(); ++li) {
    const auto& entry = trace.entries[li];
    const auto& out = range.layers[li - 1].out;
    ASSERT_FALSE(out.empty()) << tag << " L" << li - 1;
    std::int64_t numel = 1;
    for (const std::int64_t d : entry.dims) numel *= d;
    for (std::int64_t n = 0; n < trace.batch; ++n) {
      const std::int8_t* codes = entry.codes + n * numel;
      for (std::int64_t i = 0; i < numel; ++i) {
        const auto ch = static_cast<std::size_t>(
            channel_of(i, entry.dims, out.size()));
        ASSERT_TRUE(out[ch].contains(codes[i]))
            << tag << " L" << li - 1 << " ch" << ch << ": code "
            << static_cast<int>(codes[i]) << " outside [" << out[ch].lo
            << ", " << out[ch].hi << "]";
      }
    }
  }
}

TEST(RangeAnalysisTest, IntervalsEncloseTracedExecutionSmallMlp) {
  auto qmodel = small_qmodel();
  Rng rng(77);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 24; ++i) {
    // Deliberately exceeds the calibration range: the analysis must still
    // enclose saturating inputs.
    inputs.push_back(Tensor::rand_uniform(Shape{6}, rng, -3.0f, 3.0f));
  }
  expect_trace_enclosed(qmodel, stack_batch(inputs), "small-mlp");
}

TEST(RangeAnalysisTest, IntervalsEncloseTracedExecutionOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool =
        use_cifar ? exp::shapes_train(64) : exp::digits_train(64);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    expect_trace_enclosed(qmodel, stack_batch(pool.images), trained.name);
  }
}

TEST(RangeAnalysisTest, HealthyModelsHaveNoOverflowCapableChannels) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(64);
  const auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  const auto range = analysis::analyze_ranges(qmodel);
  EXPECT_EQ(range.overflow_channels, 0u);
  EXPECT_EQ(range.saturable_channels, 0u);
}

// ---------- static testability ----------

TEST(TestabilityTest, PrunedFaultsAreUndetectedByExhaustiveSimulation) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool =
        use_cifar ? exp::shapes_train(80) : exp::digits_train(80);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    const std::vector<Tensor> inputs(pool.images.begin(),
                                     pool.images.begin() + 12);
    const auto suite = validate::TestSuite::from_labels(
        inputs, qmodel.predict_labels(stack_batch(inputs)));

    auto config = fault::universe_config("full");
    config.max_faults = 2048;
    const auto universe = fault::FaultUniverse::enumerate(qmodel, config);
    const auto range = analysis::analyze_ranges(qmodel);
    const auto report = analysis::classify_universe(qmodel, range, universe);

    // Acceptance floor: at least 10% of the full-preset universe is proven
    // untestable before any simulation.
    EXPECT_GE(static_cast<double>(report.untestable),
              0.10 * static_cast<double>(universe.size()))
        << trained.name << ": " << report.summary(universe.size());

    // Soundness: exhaustively simulate EXACTLY the pruned set. Detection is
    // faulted-vs-clean label difference, so a single set bit in any row
    // would falsify an untestability proof.
    fault::FaultUniverse pruned;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (report.is_untestable(i)) pruned.add(universe[i]);
    }
    ASSERT_EQ(pruned.size(), report.untestable) << trained.name;
    fault::FaultSimulator sim(qmodel, suite);
    fault::SimOptions options;
    options.mode = fault::SimMode::kFullMatrix;
    const fault::SimResult result = sim.run_batched(pruned, options);
    EXPECT_EQ(result.detected, 0u) << trained.name;
    ASSERT_EQ(result.rows.size(), pruned.size()) << trained.name;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      EXPECT_TRUE(result.rows[i].none())
          << trained.name << ": statically untestable fault "
          << pruned[i].describe() << " detected by simulation";
    }
  }
}

TEST(TestabilityTest, ClassificationIsUniformAcrossEquivalentFaults) {
  // classify_fault depends only on (layer, tensor, unit, resulting code),
  // so pruning before structural collapse cannot change which equivalence
  // classes survive: two faults collapsing to the same key get the same
  // verdict. Spot-check with a stuck-at pair vs a byte-write to same code.
  auto qmodel = small_qmodel();
  const auto range = analysis::analyze_ranges(qmodel);
  std::size_t dense = 0;
  for (std::size_t i = 0; i < qmodel.layers().size(); ++i) {
    if (qmodel.layers()[i].kind == quant::QLayerKind::kDense) {
      dense = i;
      break;
    }
  }
  fault::FaultUniverse pair;
  const std::int8_t prev = qmodel.code_at(dense, false, 0);
  fault::Fault a;
  a.kind = fault::FaultKind::kStuckAt1;
  a.layer = static_cast<std::uint8_t>(dense);
  a.bit = 3;
  a.unit = 0;
  fault::Fault b;
  b.kind = fault::FaultKind::kByteWrite;
  b.layer = static_cast<std::uint8_t>(dense);
  b.value = static_cast<std::uint8_t>(fault::faulted_code(prev, a));
  b.unit = 0;
  ASSERT_EQ(fault::faulted_code(prev, a), fault::faulted_code(prev, b));
  pair.add(a);
  pair.add(b);
  const auto report = analysis::classify_universe(qmodel, range, pair);
  EXPECT_EQ(report.reasons[0], report.reasons[1]);
}

TEST(TestabilityTest, QualifyDetectionUnchangedByStaticPrune) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(60);
  auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  const std::vector<Tensor> inputs(pool.images.begin(),
                                   pool.images.begin() + 8);
  const auto suite = validate::TestSuite::from_labels(
      inputs, qmodel.predict_labels(stack_batch(inputs)));

  fault::QualifyOptions options;
  options.universe = fault::universe_config("full");
  options.universe.max_faults = 512;
  options.static_prune = false;
  const auto baseline = fault::qualify_suite(qmodel, suite, options);
  options.static_prune = true;
  const auto pruned = fault::qualify_suite(qmodel, suite, options);

  // Pruning is sound, so the detected set — and with it every downstream
  // qualification number — must not move.
  EXPECT_EQ(pruned.enumerated, baseline.enumerated);
  EXPECT_GT(pruned.untestable, 0);
  EXPECT_EQ(baseline.untestable, 0);
  EXPECT_EQ(pruned.detected, baseline.detected);
  EXPECT_EQ(pruned.classes, baseline.classes);
  EXPECT_EQ(pruned.core, baseline.core);
  EXPECT_LE(pruned.scored, baseline.scored);
}

TEST(TestabilityTest, FullUniverseCountsArePinned) {
  // The static-analysis numbers of record: interval ranges, untestability
  // and dominance over the whole "full" universe of both tiny zoo models,
  // quantized on the 300-image pool the CLI uses. Any change to a proof
  // rule or to the range pass that moves a count shows up here.
  struct Pinned {
    bool cifar;
    std::size_t enumerated, untestable, dominated;
  };
  for (const Pinned& pin : {Pinned{false, 230716, 115152, 45468},
                            Pinned{true, 598472, 298953, 117846}}) {
    const auto trained = pin.cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool =
        pin.cifar ? exp::shapes_train(300) : exp::digits_train(300);
    const auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    auto config = fault::universe_config("full");
    config.max_faults = 0;
    const auto universe = fault::FaultUniverse::enumerate(qmodel, config);
    const auto range = analysis::analyze_ranges(qmodel);
    const auto report = analysis::classify_universe(qmodel, range, universe);
    const auto dom = analysis::analyze_dominance(
        qmodel, range, analysis::prune_untestable(universe, report));
    EXPECT_EQ(universe.size(), pin.enumerated) << trained.name;
    EXPECT_EQ(report.untestable, pin.untestable) << trained.name;
    EXPECT_EQ(dom.count, pin.dominated) << trained.name;
  }
}

// ---------- IR verifier ----------

TEST(VerifierTest, HealthyModelsAreClean) {
  const auto qmodel = small_qmodel();
  const auto findings = analysis::verify_model(qmodel);
  EXPECT_FALSE(analysis::has_errors(findings));

  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(64);
  const auto zoo = quant::QuantModel::quantize(trained.model, pool.images);
  EXPECT_FALSE(analysis::has_errors(analysis::verify_model(zoo)));
}

TEST(VerifierTest, CatchesCorruptedRequantMultiplier) {
  auto qmodel = small_qmodel();
  std::size_t dense = 0;
  for (std::size_t i = 0; i < qmodel.layers().size(); ++i) {
    if (qmodel.layers()[i].kind == quant::QLayerKind::kDense &&
        !qmodel.layers()[i].dequant_output) {
      dense = i;
      break;
    }
  }
  // 12345 is outside the Q31 normalization band [2^30, 2^31) and not the
  // dead-channel 0 — derived-state corruption the engine would silently run.
  qmodel.set_requant_multiplier(dense, 0, 12345);
  const auto findings = analysis::verify_model(qmodel);
  EXPECT_EQ(count_rule(findings, "requant-multiplier-range"), 1u);
  EXPECT_THROW(analysis::require_valid(findings, "test gate"), Error);

  qmodel.refresh_derived();
  EXPECT_FALSE(analysis::has_errors(analysis::verify_model(qmodel)));
}

TEST(VerifierTest, CatchesShapeMismatch) {
  const auto qmodel = small_qmodel();
  auto layers = qmodel.layers();
  for (auto& q : layers) {
    if (q.kind == quant::QLayerKind::kDense) {
      q.in_features += 1;  // weights no longer match the declared geometry
      break;
    }
  }
  const auto findings = analysis::verify_layers(layers, qmodel.num_classes());
  EXPECT_TRUE(analysis::has_errors(findings));
  EXPECT_GE(count_rule(findings, "weight-size") +
                count_rule(findings, "shape-chain"),
            1u);
}

TEST(VerifierTest, CatchesTamperedActivationLut) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(64);
  const auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  auto layers = qmodel.layers();
  bool tampered = false;
  for (auto& q : layers) {
    if (q.kind == quant::QLayerKind::kActivation) {
      q.lut[10] = static_cast<std::int8_t>(q.lut[10] ^ 1);
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const auto findings = analysis::verify_layers(layers, qmodel.num_classes());
  EXPECT_EQ(count_rule(findings, "lut-domain"), 1u);
}

TEST(VerifierTest, CatchesForbiddenCodeAndScaleCorruption) {
  const auto qmodel = small_qmodel();
  auto layers = qmodel.layers();
  for (auto& q : layers) {
    if (q.kind == quant::QLayerKind::kDense) {
      q.weights[0] = -128;  // symmetric grid bans the asymmetric code
      q.out_scale = -q.out_scale;
      break;
    }
  }
  const auto findings = analysis::verify_layers(layers, qmodel.num_classes());
  EXPECT_GE(count_rule(findings, "code-range"), 1u);
  EXPECT_GE(count_rule(findings, "scale-positive"), 1u);
}

TEST(VerifierTest, CatchesLogitWidthMismatch) {
  const auto qmodel = small_qmodel();
  const auto findings =
      analysis::verify_layers(qmodel.layers(), qmodel.num_classes() + 1);
  EXPECT_GE(count_rule(findings, "num-classes"), 1u);
}

TEST(VerifierTest, SystolicConfigRules) {
  ip::SystolicConfig config;  // defaults are a sane datasheet
  EXPECT_TRUE(analysis::verify_systolic(config).empty());

  config.rows = 0;
  EXPECT_EQ(count_rule(analysis::verify_systolic(config), "systolic-dims"),
            1u);
  config.rows = 2048;  // runs, but no shipping accelerator looks like this
  EXPECT_EQ(count_rule(analysis::verify_systolic(config), "systolic-dims",
                       analysis::Severity::kWarning),
            1u);
  config = ip::SystolicConfig();

  config.frequency_mhz = -800.0;
  EXPECT_EQ(
      count_rule(analysis::verify_systolic(config), "systolic-frequency"),
      1u);
  config = ip::SystolicConfig();

  config.memory_bytes_per_cycle = 0.0;
  EXPECT_EQ(
      count_rule(analysis::verify_systolic(config), "systolic-bandwidth"),
      1u);
  config = ip::SystolicConfig();

  config.tile_overhead_cycles = -1;
  EXPECT_EQ(
      count_rule(analysis::verify_systolic(config), "systolic-overhead"), 1u);
}

TEST(VerifierTest, SystolicCostBoundsGateEstimates) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const ip::SystolicConfig config;
  const auto cost =
      ip::estimate_cost(trained.model, trained.item_shape, config);
  EXPECT_FALSE(
      analysis::has_errors(analysis::verify_systolic_cost(cost, config)));

  // Tampered per-layer cycles break the max(compute, memory) identity.
  auto broken = cost;
  for (auto& layer : broken.layers) {
    if (layer.macs > 0) {
      layer.cycles -= 1;
      break;
    }
  }
  EXPECT_GE(count_rule(analysis::verify_systolic_cost(broken, config),
                       "systolic-cycle-bound"),
            1u);

  // A compute count below ceil(macs / (rows * cols)) claims super-peak
  // throughput.
  broken = cost;
  for (auto& layer : broken.layers) {
    if (layer.macs > 0) {
      layer.compute_cycles =
          layer.macs / (static_cast<std::int64_t>(config.rows) * config.cols) /
          2;
      layer.cycles = std::max(layer.compute_cycles, layer.memory_cycles);
      break;
    }
  }
  EXPECT_GE(count_rule(analysis::verify_systolic_cost(broken, config),
                       "systolic-cycle-bound"),
            1u);

  // Totals must be the per-layer sum.
  broken = cost;
  broken.total_cycles += 7;
  EXPECT_EQ(count_rule(analysis::verify_systolic_cost(broken, config),
                       "systolic-total"),
            1u);
}

// ---------- dominance vs the full fault x test matrix ----------

TEST(TestabilityTest, DominatedDetectionImpliedOnFullMatrix) {
  auto qmodel = small_qmodel();
  Rng rng(23);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{6}, rng, -2.0f, 2.0f));
  }
  const auto suite = validate::TestSuite::from_labels(
      inputs, qmodel.predict_labels(stack_batch(inputs)));

  const auto universe =
      fault::FaultUniverse::enumerate(qmodel, fault::universe_config("full"));
  const auto range = analysis::analyze_ranges(qmodel);
  const auto report = analysis::classify_universe(qmodel, range, universe);
  const auto pruned = analysis::prune_untestable(universe, report);
  const auto dom = analysis::analyze_dominance(qmodel, range, pruned);
  ASSERT_GT(dom.count, 0u);

  // The dominance contract, checked against the FULL fault x test matrix:
  // every test detecting a kept representative also detects each fault it
  // dominates — row(rep) is a subset of row(dominated).
  fault::FaultSimulator sim(qmodel, suite);
  fault::SimOptions sim_options;
  sim_options.mode = fault::SimMode::kFullMatrix;
  const auto result = sim.run_batched(pruned, sim_options);
  ASSERT_EQ(result.rows.size(), pruned.size());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    if (dom.dominated[i] == 0) continue;
    const auto& rep_row = result.rows[dom.representative[i]];
    EXPECT_EQ(rep_row.count_common_bits(result.rows[i]), rep_row.count())
        << pruned[dom.representative[i]].describe() << " does not imply "
        << pruned[i].describe();
    ++checked;
  }
  EXPECT_EQ(checked, dom.count);
}

}  // namespace
}  // namespace dnnv
