// Pipeline/API tests: make_generator must know its five methods and refuse
// incomplete contexts (the criterion included), the ExecutionBackend
// detection loop must reproduce the historical harnesses, the Deliverable
// must round-trip (and reject corruption), and the parallel
// BlackBoxIp::predict_all default must match the serial loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "attack/random_perturbation.h"
#include "attack/sba.h"
#include "exp/model_zoo.h"
#include "ip/quantized_ip.h"
#include "ip/reference_ip.h"
#include "nn/builder.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "coverage/criterion.h"
#include "testgen/generator.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "validate/backend.h"
#include "validate/detection.h"

namespace dnnv {
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

/// Exact equality of two generation results (inputs compared by distance).
void expect_identical(const testgen::GenerationResult& a,
                      const testgen::GenerationResult& b) {
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].source, b.tests[i].source) << "test " << i;
    EXPECT_EQ(a.tests[i].pool_index, b.tests[i].pool_index) << "test " << i;
    EXPECT_DOUBLE_EQ(
        squared_distance(a.tests[i].input, b.tests[i].input), 0.0)
        << "test " << i;
  }
  EXPECT_EQ(a.coverage_after, b.coverage_after);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.decisions.size(), b.decisions.size());
}

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

// ---------- Generator methods ----------

TEST(GeneratorRegistryTest, AllFiveMethodsRegistered) {
  const std::vector<std::string> expected = {"greedy", "gradient", "combined",
                                             "neuron", "random"};
  EXPECT_EQ(testgen::generator_names(), expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(testgen::generator_registered(name));
    const auto generator = testgen::make_generator(name);
    ASSERT_NE(generator, nullptr);
    EXPECT_EQ(generator->name(), name);
  }
  EXPECT_FALSE(testgen::generator_registered("nope"));
  EXPECT_THROW(testgen::make_generator("nope"), Error);
}

TEST(GeneratorRegistryTest, MissingContextFieldsThrow) {
  const Sequential model = small_relu_net();
  testgen::GenContext ctx;  // everything missing
  EXPECT_THROW(testgen::make_generator("greedy")->generate(ctx), Error);
  ctx.model = &model;
  EXPECT_THROW(testgen::make_generator("combined")->generate(ctx), Error);
  EXPECT_THROW(testgen::make_generator("gradient")->generate(ctx), Error);
  EXPECT_THROW(testgen::make_generator("random")->generate(ctx), Error);

  // Every other field present, the criterion missing: no method has a
  // metric of its own, so each must refuse to run.
  const auto pool = random_pool(8);
  ctx.pool = &pool;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  for (const auto& name : testgen::generator_names()) {
    EXPECT_THROW(testgen::make_generator(name)->generate(ctx), Error) << name;
  }
}

// Benches share one pool sweep across methods through GenContext::masks;
// a method given those masks must produce exactly the run it produces when
// it sweeps the pool with the criterion itself.
TEST(GeneratorRegistryTest, PrecomputedMasksMatchCriterionSweep) {
  const Sequential model = small_relu_net(51);
  const auto pool = random_pool(20, 52);
  const auto criterion =
      cov::make_parameter_criterion(model, cov::CoverageConfig{});
  const auto masks = criterion->measure_pool(pool);

  testgen::GeneratorConfig config;
  config.max_tests = 16;
  config.gradient.steps = 20;
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.pool = &pool;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  ctx.criterion = criterion.get();
  for (const char* name : {"greedy", "combined", "neuron", "random"}) {
    SCOPED_TRACE(name);
    const auto generator = testgen::make_generator(name, config);
    ctx.masks = nullptr;
    const auto swept = generator->generate(ctx);
    ctx.masks = &masks;
    const auto shared = generator->generate(ctx);
    expect_identical(swept, shared);
    for (std::size_t i = 0; i < swept.decisions.size(); ++i) {
      EXPECT_EQ(swept.decisions[i].chose_synthetic,
                shared.decisions[i].chose_synthetic);
      EXPECT_DOUBLE_EQ(swept.decisions[i].synthetic_gain,
                       shared.decisions[i].synthetic_gain);
    }
  }
}

// ---------- ExecutionBackend ----------

TEST(ExecutionBackendTest, FloatBackendReproducesLegacyDetection) {
  Sequential model = small_relu_net(81);
  const auto inputs = random_pool(10, 82);
  const validate::TestSuite suite = validate::TestSuite::create(model, inputs);
  const auto victims = random_pool(5, 83);

  attack::SingleBiasAttack attack;
  validate::DetectionConfig config;
  config.trials = 40;
  config.test_counts = {5, 10};
  config.seed = 99;

  const auto legacy =
      validate::run_detection(model, suite, attack, victims, config);
  validate::FloatReferenceBackend backend(model);
  const auto via_backend =
      validate::run_detection(model, suite, backend, attack, victims, config);
  EXPECT_EQ(legacy.rate_per_count, via_backend.rate_per_count);
  EXPECT_EQ(legacy.successful_trials, via_backend.successful_trials);
  EXPECT_EQ(legacy.dropped_trials, via_backend.dropped_trials);
  EXPECT_EQ(legacy.mean_first_detection, via_backend.mean_first_detection);
}

TEST(ExecutionBackendTest, FloatGoldenLabelsAreTheSuiteLabels) {
  Sequential model = small_relu_net(85);
  const auto inputs = random_pool(6, 86);
  const validate::TestSuite suite = validate::TestSuite::create(model, inputs);
  const Tensor batch = stack_batch(suite.inputs());
  validate::FloatReferenceBackend backend(model);
  EXPECT_EQ(backend.golden_labels(suite, batch), suite.golden_labels());
  EXPECT_EQ(backend.predict_clean(batch), suite.golden_labels());
}

// ---------- Backend parity on a zoo model ----------

TEST(BackendParityTest, Int8MatchesLegacyQuantizedDetectionOnZooModel) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);
  auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);

  std::vector<Tensor> inputs(pool.images.begin(), pool.images.begin() + 12);
  const Tensor batch = stack_batch(inputs);
  const validate::TestSuite suite =
      validate::TestSuite::from_labels(inputs, qmodel.predict_labels(batch));

  attack::SingleBiasAttack attack;
  validate::DetectionConfig config;
  config.trials = 24;
  config.test_counts = {6, 12};
  config.seed = 7;
  const auto legacy = validate::run_detection_quantized(
      trained.model, qmodel, suite, attack, pool.images, config);
  validate::Int8Backend backend(qmodel);
  const auto via_backend = validate::run_detection(
      trained.model, suite, backend, attack, pool.images, config);
  EXPECT_EQ(legacy.rate_per_count, via_backend.rate_per_count);
  EXPECT_EQ(legacy.successful_trials, via_backend.successful_trials);
  EXPECT_EQ(legacy.mean_first_detection, via_backend.mean_first_detection);
}

TEST(BackendParityTest, FloatAndInt8QualificationAgreeOnZooModel) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);
  auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);

  std::vector<Tensor> inputs(pool.images.begin(), pool.images.begin() + 20);
  const Tensor batch = stack_batch(inputs);
  validate::FloatReferenceBackend float_backend(trained.model);
  validate::Int8Backend int8_backend(qmodel);
  const auto float_labels = float_backend.predict_clean(batch);
  const auto int8_labels = int8_backend.predict_clean(batch);
  ASSERT_EQ(float_labels.size(), int8_labels.size());
  int agree = 0;
  for (std::size_t i = 0; i < float_labels.size(); ++i) {
    agree += float_labels[i] == int8_labels[i];
  }
  // Post-training int8 on a trained model: near-total agreement expected.
  EXPECT_GE(agree, static_cast<int>(float_labels.size()) - 2)
      << "int8 engine disagrees with float on too many inputs";
}

// ---------- Deliverable / pipeline ----------

TEST(PipelineTest, DeliverableRoundTripsAndReproducesVerdict) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  pipeline::VendorOptions options;
  options.method = "combined";
  options.backend = "int8";
  options.num_tests = 10;
  options.generator.coverage = trained.coverage;
  options.generator.gradient.steps = 15;
  options.model_name = trained.name;

  pipeline::VendorReport report;
  pipeline::Deliverable shipped =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images,
                                            &report);
  EXPECT_EQ(shipped.manifest.method, "combined");
  EXPECT_EQ(shipped.manifest.backend, "int8");
  EXPECT_EQ(shipped.manifest.num_tests, 10);
  EXPECT_TRUE(shipped.has_quant);
  EXPECT_EQ(shipped.suite.size(), 10u);
  EXPECT_GT(report.coverage, 0.0);
  EXPECT_GE(report.backend_float_agreement, 0);

  // The vendor's own bundle must validate SECURE before shipping.
  EXPECT_TRUE(
      pipeline::UserValidator(std::move(shipped)).validate().passed);
}

TEST(PipelineTest, SaveLoadValidateAndCorruptionRejection) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = "float";
  options.num_tests = 8;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;

  const pipeline::Deliverable shipped =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_deliverable.bin").string();
  constexpr std::uint64_t kKey = 0xBEEFCAFE;
  shipped.save_file(path, kKey);

  // Round trip: the user loads the one file and reproduces the verdict.
  const auto validator = pipeline::UserValidator::load_file(path, kKey);
  EXPECT_EQ(validator.deliverable().manifest.method, "greedy");
  EXPECT_EQ(validator.deliverable().suite.size(), 8u);
  EXPECT_EQ(validator.deliverable().suite.golden_labels(),
            shipped.suite.golden_labels());
  const auto verdict = validator.validate();
  EXPECT_TRUE(verdict.passed);
  EXPECT_EQ(verdict.tests_run, 8);

  // Wrong key: plausibility checks reject the garbage plaintext.
  EXPECT_THROW(pipeline::Deliverable::load_file(path, kKey + 1), Error);

  // Corrupted payload byte: the CRC footer rejects before parsing.
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x08;
  write_file(path, bytes);
  EXPECT_THROW(pipeline::Deliverable::load_file(path, kKey), Error);
  std::filesystem::remove(path);
}

TEST(PipelineTest, ManifestV5StaticAnalysisRoundTrip) {
  // The int8 release of both tiny zoo models at the default fault budget,
  // plus the whole cifar-tiny universe (where dominance pairs keep their
  // neighbours): the static-analysis counts of record are pinned, they land
  // in the manifest coherently with the run's own stats, and the user side
  // re-measures them exactly from the saved file alone.
  struct Pinned {
    bool cifar;
    std::int64_t budget, untestable, dominated, scored, detected;
  };
  for (const Pinned& pin : {Pinned{false, 2048, 1014, 0, 1034, 19},
                            Pinned{true, 2048, 1048, 0, 1000, 1},
                            Pinned{true, 0, 298954, 117847, 181671, 236}}) {
    auto trained = pin.cifar ? exp::cifar_relu(tiny_options())
                             : exp::mnist_tanh(tiny_options());
    const auto pool =
        pin.cifar ? exp::shapes_train(60) : exp::digits_train(60);

    pipeline::VendorOptions options;
    options.method = "greedy";
    options.backend = "int8";
    options.num_tests = 8;
    options.generator.coverage = trained.coverage;
    options.model_name = trained.name;
    options.fault_model = "full";
    options.fault_budget = pin.budget;

    pipeline::VendorReport report;
    const pipeline::Deliverable shipped = pipeline::VendorPipeline(options).run(
        trained.model, trained.item_shape, trained.num_classes, pool.images,
        &report);
    const auto& fs = report.fault_stats;
    EXPECT_EQ(fs.untestable, pin.untestable) << trained.name;
    EXPECT_EQ(fs.dominated, pin.dominated) << trained.name;
    EXPECT_EQ(fs.scored, pin.scored) << trained.name;
    EXPECT_EQ(fs.detected, pin.detected) << trained.name;

    const auto& m = shipped.manifest;
    EXPECT_EQ(m.fault_dominated, fs.dominated) << trained.name;
    EXPECT_EQ(m.fault_universe, fs.scored) << trained.name;
    EXPECT_EQ(m.fault_detected, fs.detected) << trained.name;

    // Byte round trip, then the user side re-runs the vendor's
    // classification and simulation from the loaded bundle alone and
    // reproduces every count — the vendor-user contract of the fault stage.
    const std::string path =
        (std::filesystem::temp_directory_path() / "dnnv_deliverable_v5.bin")
            .string();
    constexpr std::uint64_t kKey = 0xFEEDF00D;
    shipped.save_file(path, kKey);
    const auto loaded = pipeline::Deliverable::load_file(path, kKey);
    std::filesystem::remove(path);
    EXPECT_EQ(loaded.manifest.fault_dominated, m.fault_dominated);
    EXPECT_EQ(loaded.manifest.fault_universe, m.fault_universe);
    EXPECT_EQ(loaded.manifest.fault_detected, m.fault_detected);
    const auto remeasured = pipeline::fault_coverage(loaded);
    EXPECT_EQ(remeasured.enumerated, fs.enumerated) << trained.name;
    EXPECT_EQ(remeasured.untestable, pin.untestable) << trained.name;
    EXPECT_EQ(remeasured.dominated, pin.dominated) << trained.name;
    EXPECT_EQ(remeasured.scored, pin.scored) << trained.name;
    EXPECT_EQ(remeasured.detected, pin.detected) << trained.name;
  }
}

TEST(PipelineTest, TamperedDeviceIsCaught) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  pipeline::VendorOptions options;
  options.method = "combined";
  options.backend = "int8";
  options.num_tests = 12;
  options.generator.coverage = trained.coverage;
  options.generator.gradient.steps = 15;

  pipeline::UserValidator validator(
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images));
  EXPECT_TRUE(validator.validate().passed);

  // Sign-bit-flip a swath of the delivered device's weight memory: the
  // replay must flag TAMPERED.
  auto device = validator.make_device();
  auto* quantized = dynamic_cast<ip::QuantizedIp*>(device.get());
  ASSERT_NE(quantized, nullptr);
  const auto& first_tensor = quantized->tensor_table().front();
  for (std::int64_t i = 0; i < first_tensor.size; ++i) {
    quantized->flip_bit(first_tensor.memory_offset +
                            static_cast<std::size_t>(i),
                        7);
  }
  EXPECT_FALSE(validator.validate(*quantized).passed);
}

// ---------- Parallel predict_all default ----------

/// Minimal stateful IP exercising the BASE predict_all (no override): label
/// depends only on the input, clones share nothing.
class ToyIp : public ip::BlackBoxIp {
 public:
  explicit ToyIp(int classes) : classes_(classes) {}

  int predict(const Tensor& input) override {
    ++calls_;
    double sum = 0.0;
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      sum += static_cast<double>(input[i]) * static_cast<double>(i + 1);
    }
    const auto bucket = static_cast<long long>(std::llround(sum * 64.0));
    return static_cast<int>(((bucket % classes_) + classes_) % classes_);
  }
  std::unique_ptr<ip::BlackBoxIp> clone_ip() override {
    return std::make_unique<ToyIp>(classes_);
  }
  Shape input_shape() const override { return Shape{6}; }
  int num_classes() const override { return classes_; }
  int calls() const { return calls_; }

 private:
  int classes_;
  int calls_ = 0;
};

/// Same, but not cloneable: must fall back to the serial loop.
class SerialToyIp final : public ToyIp {
 public:
  using ToyIp::ToyIp;
  std::unique_ptr<ip::BlackBoxIp> clone_ip() override { return nullptr; }
};

TEST(PredictAllTest, ParallelDefaultMatchesSerialLoop) {
  const auto inputs = random_pool(64, 123);
  ToyIp parallel_ip(7);
  const auto parallel_labels = parallel_ip.predict_all(inputs);

  ToyIp serial_ip(7);
  std::vector<int> serial_labels;
  for (const auto& input : inputs) serial_labels.push_back(serial_ip.predict(input));

  EXPECT_EQ(parallel_labels, serial_labels);
  EXPECT_EQ(serial_ip.calls(), 64);
  if (ThreadPool::shared().num_threads() >= 2) {
    // The parallel path predicts through clones, not this instance.
    EXPECT_EQ(parallel_ip.calls(), 0);
  } else {
    // Single-core machine: chunking is pointless, the loop stays serial.
    EXPECT_EQ(parallel_ip.calls(), 64);
  }
}

TEST(PredictAllTest, NonCloneableIpFallsBackToSerial) {
  const auto inputs = random_pool(40, 124);
  SerialToyIp ip(5);
  ToyIp reference(5);
  std::vector<int> expected;
  for (const auto& input : inputs) expected.push_back(reference.predict(input));
  EXPECT_EQ(ip.predict_all(inputs), expected);
  EXPECT_EQ(ip.calls(), 40);
}

TEST(PredictAllTest, ReferenceIpCloneReplaysIdentically) {
  Sequential model = small_relu_net(131);
  ip::ReferenceIp ip(model, Shape{6});
  auto clone = ip.clone_ip();
  ASSERT_NE(clone, nullptr);
  const auto inputs = random_pool(10, 132);
  EXPECT_EQ(ip.predict_all(inputs), clone->predict_all(inputs));
}

}  // namespace
}  // namespace dnnv
