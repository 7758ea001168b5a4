// Failure-injection / robustness tests: corrupted model streams and test
// packages must be rejected with dnnv::Error — never crash, never silently
// load garbage.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "coverage/criterion.h"
#include "nn/builder.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "quant/quant_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "validate/test_suite.h"

namespace dnnv {
namespace {

nn::Sequential small_model(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::build_mlp(4, {5}, 3, nn::ActivationKind::kReLU, rng);
}

std::vector<std::uint8_t> model_bytes() {
  ByteWriter writer;
  small_model().save(writer);
  return writer.take();
}

// Loading a model whose stream is corrupted at any single byte must either
// throw dnnv::Error or produce a structurally valid model — never crash.
// (Float parameter bytes can legally change value; structural bytes must be
// caught by magic/size/kind validation.)
class ModelCorruption : public ::testing::TestWithParam<int> {};

TEST_P(ModelCorruption, SingleByteCorruptionIsSafe) {
  const auto clean = model_bytes();
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 60; ++trial) {
    auto bytes = clean;
    const std::size_t offset = rng.uniform_u64(bytes.size());
    bytes[offset] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    try {
      ByteReader reader(std::move(bytes));
      nn::Sequential model = nn::Sequential::load(reader);
      // If it loaded, it must still be structurally sound.
      EXPECT_GT(model.param_count(), 0);
    } catch (const Error&) {
      // Rejection is the expected path for structural corruption.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCorruption, ::testing::Values(1, 2, 3));

TEST(ModelCorruptionTest, TruncationAlwaysThrows) {
  const auto clean = model_bytes();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, clean.size() / 2,
                                 clean.size() - 1}) {
    std::vector<std::uint8_t> bytes(clean.begin(),
                                    clean.begin() + static_cast<std::ptrdiff_t>(keep));
    ByteReader reader(std::move(bytes));
    EXPECT_THROW(nn::Sequential::load(reader), Error) << "kept " << keep;
  }
}

// Package corruption: flipping any ciphertext byte must be caught by the CRC.
class PackageCorruption : public ::testing::TestWithParam<int> {};

TEST_P(PackageCorruption, AnyCiphertextFlipIsDetected) {
  auto model = small_model(11);
  std::vector<Tensor> inputs;
  Rng rng(12);
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{4}, rng, -1.0f, 1.0f));
  }
  const auto suite = validate::TestSuite::create(model, inputs);
  const std::string path =
      "/tmp/dnnv_robustness_" + std::to_string(GetParam()) + ".pkg";
  suite.save_package(path, 777);
  const auto clean = read_file(path);

  Rng corrupt_rng(static_cast<std::uint64_t>(GetParam()) * 97 + 5);
  constexpr std::size_t kHeaderBytes = 20;  // magic+version+crc+size
  for (int trial = 0; trial < 40; ++trial) {
    auto bytes = clean;
    const std::size_t offset =
        kHeaderBytes + corrupt_rng.uniform_u64(bytes.size() - kHeaderBytes);
    bytes[offset] ^= 0x01;
    write_file(path, bytes);
    EXPECT_THROW(validate::TestSuite::load_package(path, 777), Error)
        << "flip at offset " << offset << " not detected";
  }
  write_file(path, clean);
  EXPECT_NO_THROW(validate::TestSuite::load_package(path, 777));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackageCorruption, ::testing::Values(1, 2));

TEST(PackageRobustnessTest, HeaderCorruptionRejected) {
  auto model = small_model(13);
  std::vector<Tensor> inputs{Tensor(Shape{4})};
  const auto suite = validate::TestSuite::create(model, inputs);
  const std::string path = "/tmp/dnnv_robustness_header.pkg";
  suite.save_package(path, 1);
  auto bytes = read_file(path);
  bytes[0] ^= 0xFF;  // magic
  write_file(path, bytes);
  EXPECT_THROW(validate::TestSuite::load_package(path, 1), Error);
  std::remove(path.c_str());
}

TEST(ZooCacheRobustnessTest, CorruptCacheFallsBackToRetraining) {
  // A mangled cache entry must not crash the zoo loader: load_cached fails
  // closed and training regenerates the file.
  // (Simulated directly at the serialisation layer: a truncated model stream
  //  inside an otherwise valid-looking file.)
  ByteWriter writer;
  writer.write_u32(0x4F4F5A44);  // zoo magic
  writer.write_u32(1);
  ByteReader reader(writer.take());
  EXPECT_EQ(reader.read_u32(), 0x4F4F5A44u);
  EXPECT_EQ(reader.read_u32(), 1u);
  EXPECT_THROW(reader.read_string(), Error);  // truncated -> throws, not UB
}

// ---------- decoded dims whose product overflows ----------
// Each stream carries dims whose element count wraps a signed 64-bit
// product (to 0 here), followed by too few payload bytes for the real
// count. The decoders must reject the dims before allocating.

TEST(DecoderOverflowTest, TestSuiteDimsProductOverflowThrows) {
  ByteWriter writer;
  writer.write_u64(1);  // one test
  writer.write_u64(4);  // rank 4
  for (int d = 0; d < 4; ++d) writer.write_i64(std::int64_t{1} << 19);
  writer.write_i64(0);  // the golden label; no floats precede it
  ByteReader reader(writer.take());
  EXPECT_THROW(validate::TestSuite::load(reader), Error);
}

TEST(DecoderOverflowTest, DenseWeightCountOverflowThrows) {
  ByteWriter writer;
  writer.write_i64(std::int64_t{1} << 62);  // in
  writer.write_i64(4);                      // out
  for (int i = 0; i < 4; ++i) writer.write_f32(0.0f);  // the bias only
  ByteReader reader(writer.take());
  EXPECT_THROW(nn::Dense::load(reader), Error);
}

TEST(DecoderOverflowTest, Conv2dWeightCountOverflowThrows) {
  ByteWriter writer;
  writer.write_i64(std::int64_t{1} << 62);  // in_channels
  writer.write_i64(4);                      // out_channels
  writer.write_i64(1);                      // kernel
  writer.write_i64(1);                      // stride
  writer.write_i64(0);                      // pad
  for (int i = 0; i < 4; ++i) writer.write_f32(0.0f);  // the bias only
  ByteReader reader(writer.take());
  EXPECT_THROW(nn::Conv2d::load(reader), Error);
}

TEST(DecoderOverflowTest, QuantModelWeightCountOverflowThrows) {
  for (const bool conv : {false, true}) {
    ByteWriter writer;
    writer.write_u32(0x384D5144);  // QuantModel magic
    writer.write_u32(1);           // version
    writer.write_u8(1);            // weight granularity: per-channel
    writer.write_u8(0);            // calibration: min/max
    writer.write_f64(99.99);
    writer.write_i64(0);
    writer.write_u8(0);            // no normalize
    writer.write_u64(1);           // one layer
    writer.write_u8(static_cast<std::uint8_t>(
        conv ? quant::QLayerKind::kConv2d : quant::QLayerKind::kDense));
    writer.write_string("overflow");
    writer.write_f32(1.0f);  // in_scale
    writer.write_f32(1.0f);  // out_scale
    const std::int64_t huge = std::int64_t{1} << 62;
    writer.write_i64(conv ? huge : 0);  // in_channels
    writer.write_i64(conv ? 4 : 0);     // out_channels
    writer.write_i64(conv ? 1 : 0);     // kernel
    writer.write_i64(conv ? 1 : 0);     // stride
    writer.write_i64(0);                // pad
    writer.write_i64(conv ? 0 : huge);  // in_features
    writer.write_i64(conv ? 0 : 4);     // out_features
    writer.write_u8(0);                 // dequant_output
    writer.write_u64(4);                // one scale per output channel
    for (int i = 0; i < 4; ++i) writer.write_f32(1.0f);
    writer.write_u64(0);                // weight bytes: the wrapped count
    writer.write_f32(1.0f);             // bias_scale
    writer.write_u64(4);                // four bias codes
    for (int i = 0; i < 4; ++i) writer.write_u8(0);
    ByteReader reader(writer.take());
    EXPECT_THROW(quant::QuantModel::load(reader), Error)
        << (conv ? "conv" : "dense");
  }
}

// ---------- narrowed formats: one recipe, one engine ----------

std::vector<std::uint8_t> quant_model_bytes() {
  Rng rng(17);
  std::vector<Tensor> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{4}, rng, -1.0f, 1.0f));
  }
  ByteWriter writer;
  quant::QuantModel::quantize(small_model(), pool).save(writer);
  return writer.take();
}

// Stream layout: magic u32, version u32, then the recipe tags.
constexpr std::size_t kGranularityOffset = 8;
constexpr std::size_t kCalibrationOffset = 9;

TEST(NarrowedFormatTest, QuantModelRejectsPerTensorRecipeTag) {
  auto bytes = quant_model_bytes();
  {
    ByteReader clean(bytes);
    EXPECT_NO_THROW(quant::QuantModel::load(clean));
  }
  ASSERT_EQ(bytes[kGranularityOffset], 1);  // per-channel
  bytes[kGranularityOffset] = 0;            // the deleted per-tensor tag
  ByteReader reader(std::move(bytes));
  EXPECT_THROW(quant::QuantModel::load(reader), Error);
}

TEST(NarrowedFormatTest, QuantModelRejectsPercentileCalibrationTag) {
  auto bytes = quant_model_bytes();
  ASSERT_EQ(bytes[kCalibrationOffset], 0);  // min/max
  bytes[kCalibrationOffset] = 1;            // the deleted percentile tag
  ByteReader reader(std::move(bytes));
  EXPECT_THROW(quant::QuantModel::load(reader), Error);
}

/// One dequantizing dense layer (2 -> 4) carrying `num_scales` weight scales.
std::vector<std::uint8_t> dense_layer_stream(std::uint64_t num_scales) {
  ByteWriter writer;
  writer.write_u32(0x384D5144);  // QuantModel magic
  writer.write_u32(1);           // version
  writer.write_u8(1);            // per-channel
  writer.write_u8(0);            // min/max
  writer.write_f64(0.999);
  writer.write_i64(256);
  writer.write_u8(0);            // no normalize
  writer.write_u64(1);           // one layer
  writer.write_u8(static_cast<std::uint8_t>(quant::QLayerKind::kDense));
  writer.write_string("logits");
  writer.write_f32(1.0f);  // in_scale
  writer.write_f32(1.0f);  // out_scale
  for (int i = 0; i < 5; ++i) writer.write_i64(0);  // conv geometry
  writer.write_i64(2);   // in_features
  writer.write_i64(4);   // out_features
  writer.write_u8(1);    // dequant_output
  writer.write_u64(num_scales);
  for (std::uint64_t i = 0; i < num_scales; ++i) writer.write_f32(0.5f);
  writer.write_u64(8);   // weight codes
  for (int i = 0; i < 8; ++i) writer.write_u8(1);
  writer.write_f32(1.0f);  // bias_scale
  writer.write_u64(4);     // bias codes
  for (int i = 0; i < 4; ++i) writer.write_u8(0);
  return writer.take();
}

TEST(NarrowedFormatTest, QuantModelNeedsOneWeightScalePerOutChannel) {
  {
    ByteReader reader(dense_layer_stream(4));
    EXPECT_NO_THROW(quant::QuantModel::load(reader));
  }
  for (const std::uint64_t count : {0u, 1u, 3u, 5u}) {
    ByteReader reader(dense_layer_stream(count));
    EXPECT_THROW(quant::QuantModel::load(reader), Error) << count << " scales";
  }
}

/// A CriterionConfig stream with the given engine byte and counts, no ranges.
std::vector<std::uint8_t> criterion_stream(std::uint8_t engine,
                                           std::int64_t sections,
                                           std::int64_t top_k) {
  ByteWriter writer;
  writer.write_u8(engine);
  writer.write_f64(0.0);  // epsilon
  writer.write_f64(0.0);  // neuron threshold
  writer.write_i64(sections);
  writer.write_i64(top_k);
  writer.write_u64(0);  // range_low
  writer.write_u64(0);  // range_high
  return writer.take();
}

TEST(NarrowedFormatTest, CriterionConfigRejectsEngineTagOtherThanZero) {
  {
    ByteReader reader(criterion_stream(0, 10, 2));
    const auto config = cov::CriterionConfig::load(reader);
    EXPECT_EQ(config.sections, 10);
    EXPECT_EQ(config.top_k, 2);
  }
  for (const std::uint8_t engine : {1, 2, 255}) {
    ByteReader reader(criterion_stream(engine, 10, 2));
    EXPECT_THROW(cov::CriterionConfig::load(reader), Error)
        << "engine " << static_cast<int>(engine);
  }
}

TEST(NarrowedFormatTest, CriterionConfigBoundsSectionsAndTopK) {
  const std::int64_t int_max = std::numeric_limits<int>::max();
  const std::int64_t wraps_to_ten = (std::int64_t{1} << 32) + 10;
  for (const std::int64_t sections :
       {std::int64_t{0}, std::int64_t{-3},
        std::int64_t{cov::kMaxSections} + 1, int_max, wraps_to_ten}) {
    ByteReader reader(criterion_stream(0, sections, 2));
    EXPECT_THROW(cov::CriterionConfig::load(reader), Error)
        << "sections " << sections;
  }
  for (const std::int64_t top_k :
       {std::int64_t{0}, std::int64_t{-1}, int_max + 1, wraps_to_ten}) {
    ByteReader reader(criterion_stream(0, 10, top_k));
    EXPECT_THROW(cov::CriterionConfig::load(reader), Error)
        << "top_k " << top_k;
  }
  ByteReader at_cap(criterion_stream(0, cov::kMaxSections, int_max));
  const auto config = cov::CriterionConfig::load(at_cap);
  EXPECT_EQ(config.sections, cov::kMaxSections);
  EXPECT_EQ(config.top_k, int_max);
}

TEST(NarrowedFormatTest, KSectionRejectsSectionsAboveTheCap) {
  const nn::Sequential model = small_model();
  Rng rng(23);
  std::vector<Tensor> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{4}, rng, -1.0f, 1.0f));
  }
  cov::CriterionContext ctx;
  ctx.model = &model;
  ctx.item_shape = Shape{4};
  ctx.calibration = &pool;
  // Materialised ranges: the shipped-manifest path needs no pool.
  cov::CriterionConfig config =
      cov::make_criterion("ksection", ctx)->config();
  ctx.calibration = nullptr;
  config.sections = cov::kMaxSections;
  EXPECT_NO_THROW(cov::make_criterion("ksection", ctx, config));
  config.sections = std::numeric_limits<int>::max();
  EXPECT_THROW(cov::make_criterion("ksection", ctx, config), Error);
}

}  // namespace
}  // namespace dnnv
