// Batched-engine benchmark: records (1) the int8 GEMM's throughput against
// the blocked packed float GEMM and (2) the speedup of pool-wide
// activation-mask computation through the batch-native pipeline (one
// batched forward + per-item sensitivity passes on a shared workspace) over
// the per-item pipeline. Also re-checks the bit-identity contract on the
// fly: a speedup that changes masks is a bug, not a win, so any mask
// mismatch makes the binary exit non-zero.
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "coverage/criterion.h"
#include "coverage/parameter_coverage.h"
#include "nn/builder.h"
#include "quant/qgemm.h"
#include "tensor/batch.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace dnnv;

double gflops(std::int64_t n, double seconds, int reps) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) * reps / seconds / 1e9;
}

void bench_gemm() {
  std::cout << "\nGEMM n x n x n (blocked packed float kernel vs int8 engine ["
            << quant::qgemm_kernel_name() << "]):\n";
  for (const std::int64_t n : {128, 256, 384}) {
    Rng rng(1);
    const Tensor a = Tensor::randn(Shape{n, n}, rng);
    const Tensor b = Tensor::randn(Shape{n, n}, rng);
    Tensor c(Shape{n, n});
    const auto qa = bench::random_int8_codes(n * n, rng);
    const auto qb = bench::random_int8_codes(n * n, rng);
    std::vector<std::int32_t> qc(static_cast<std::size_t>(n * n));
    const int reps = n <= 128 ? 40 : 10;

    Stopwatch timer;
    for (int r = 0; r < reps; ++r) {
      gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    }
    const double blocked_s = timer.elapsed_seconds();

    timer.reset();
    for (int r = 0; r < reps; ++r) {
      quant::qgemm(n, n, n, qa.data(), qb.data(), qc.data());
    }
    const double int8_s = timer.elapsed_seconds();

    std::cout << "  n=" << n << ": blocked " << gflops(n, blocked_s, reps)
              << " GFLOP/s, int8 " << gflops(n, int8_s, reps)
              << " GOP/s; int8 vs blocked " << blocked_s / int8_s << "x\n";
  }
}

struct NamedModel {
  nn::Sequential model;
  std::string name;
  cov::CoverageConfig coverage;
};

double g_item_total_s = 0.0;
double g_batched_total_s = 0.0;
int g_mismatches = 0;

void bench_masks(NamedModel& m, const std::vector<Tensor>& pool) {
  // Per-item pipeline: one forward + one sensitivity pass per input. Both
  // sides get a warmup sweep so allocator and cache state are steady.
  auto item_model = m.model.clone();
  cov::ParameterCoverage item_engine(item_model, m.coverage);
  for (std::size_t i = 0; i < std::min<std::size_t>(8, pool.size()); ++i) {
    item_engine.activation_mask(pool[i]);
  }
  Stopwatch timer;
  std::vector<DynamicBitset> item_masks;
  item_masks.reserve(pool.size());
  for (const auto& image : pool) {
    item_masks.push_back(item_engine.activation_mask(image));
  }
  const double item_s = timer.elapsed_seconds();

  // Batch-native pipeline (criterion construction included, as in any
  // one-shot pool sweep).
  const auto sweep = [&] {
    return cov::make_parameter_criterion(m.model, m.coverage)
        ->measure_pool(pool);
  };
  sweep();  // warmup
  timer.reset();
  const auto batched_masks = sweep();
  const double batched_s = timer.elapsed_seconds();

  int mismatches = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!(item_masks[i] == batched_masks[i])) ++mismatches;
  }

  g_item_total_s += item_s;
  g_batched_total_s += batched_s;
  g_mismatches += mismatches;
  std::cout << "  " << m.name << " (" << pool.size() << " inputs): per-item "
            << item_s << " s, batched " << batched_s << " s, speedup "
            << item_s / batched_s << "x, mask mismatches " << mismatches
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"images", "paper-scale", "retrain"});
  const int count = args.get_int("images", 64);
  bench::banner("bench_engine_batch",
                "batched execution engine: blocked GEMM + batch-native "
                "coverage pipeline");

  bench_gemm();

  std::cout << "\nPool-wide activation masks (per-item pipeline vs batched "
               "engine):\n";
  const auto options = bench::zoo_options(args);
  {
    auto trained = exp::mnist_tanh(options);
    NamedModel m{std::move(trained.model), trained.name, trained.coverage};
    const auto pool = exp::digits_train(count);
    bench_masks(m, pool.images);
  }
  {
    auto trained = exp::cifar_relu(options);
    NamedModel m{std::move(trained.model), trained.name, trained.coverage};
    const auto pool = exp::shapes_train(count);
    bench_masks(m, pool.images);
  }
  {
    // Table-I-scale convnet (32x32x3, 16/16/32/32 convs): the size class the
    // engine refactor targets.
    Rng rng(2);
    nn::ConvNetSpec spec;
    spec.in_channels = 3;
    spec.in_height = 32;
    spec.in_width = 32;
    spec.conv_channels = {16, 16, 32, 32};
    spec.dense_units = {128};
    NamedModel m{nn::build_convnet(spec, rng), "convnet_32x32",
                 cov::CoverageConfig{}};
    Rng data_rng(3);
    std::vector<Tensor> pool;
    for (int i = 0; i < count; ++i) {
      pool.push_back(
          Tensor::rand_uniform(Shape{3, 32, 32}, data_rng, 0.0f, 1.0f));
    }
    bench_masks(m, pool);
  }
  std::cout << "  pool-wide total: per-item " << g_item_total_s
            << " s, batched " << g_batched_total_s << " s, speedup "
            << g_item_total_s / g_batched_total_s << "x\n";
  if (g_mismatches > 0) {
    std::cerr << "FAIL: " << g_mismatches
              << " batched mask(s) differ from the per-item pipeline\n";
    return 1;
  }
  return 0;
}
