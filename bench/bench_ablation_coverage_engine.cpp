// Ablation — coverage engines: the absolute-sensitivity single pass
// (cov::ParameterCoverage) vs the exact per-class k-pass oracle of
// tests/coverage_oracles.h. Checks mask equality and measures the speedup.
#include <iostream>

#include "bench/bench_common.h"
#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "coverage/parameter_coverage.h"
#include "tensor/batch.h"
#include "tests/coverage_oracles.h"
#include "util/stopwatch.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"images", "paper-scale", "retrain"});
  const int count = args.get_int("images", 40);
  bench::banner("bench_ablation_coverage_engine",
                "paper Eq. 2 — abs-sensitivity pass vs exact per-class pass");

  const auto options = bench::zoo_options(args);
  for (const bool use_cifar : {false, true}) {
    auto trained = use_cifar ? exp::cifar_relu(options) : exp::mnist_tanh(options);
    const auto pool = use_cifar
                          ? exp::shapes_train(count)
                          : exp::digits_train(count);

    const cov::CoverageConfig abs_config = trained.coverage;
    auto model_a = trained.model.clone();
    auto model_b = trained.model.clone();
    cov::ParameterCoverage abs_engine(model_a, abs_config);

    Stopwatch timer;
    std::vector<DynamicBitset> abs_masks;
    for (const auto& image : pool.images) {
      abs_masks.push_back(abs_engine.activation_mask(image));
    }
    const double abs_time = timer.elapsed_seconds();

    timer.reset();
    std::vector<DynamicBitset> exact_masks;
    for (const auto& image : pool.images) {
      exact_masks.push_back(coverage_oracles::per_class_exact_mask(
          model_b, image, trained.coverage.epsilon));
    }
    const double exact_time = timer.elapsed_seconds();

    int equal = 0;
    std::size_t abs_bits = 0;
    std::size_t exact_bits = 0;
    for (int i = 0; i < count; ++i) {
      if (abs_masks[static_cast<std::size_t>(i)] ==
          exact_masks[static_cast<std::size_t>(i)]) {
        ++equal;
      }
      abs_bits += abs_masks[static_cast<std::size_t>(i)].count();
      exact_bits += exact_masks[static_cast<std::size_t>(i)].count();
    }

    std::cout << "\n" << trained.name << " (" << count << " images):\n";
    TablePrinter table({"engine", "total time", "ms/image", "mean activated"});
    table.add_row({"abs-sensitivity (1 pass)", format_double(abs_time, 3) + "s",
                   format_double(abs_time / count * 1e3, 2),
                   std::to_string(abs_bits / static_cast<std::size_t>(count))});
    table.add_row({"per-class exact (k passes)",
                   format_double(exact_time, 3) + "s",
                   format_double(exact_time / count * 1e3, 2),
                   std::to_string(exact_bits / static_cast<std::size_t>(count))});
    table.print(std::cout);
    std::cout << "identical masks: " << equal << "/" << count
              << "  speedup: " << format_double(exact_time / abs_time, 2)
              << "x\n";
    if (trained.coverage.epsilon > 0.0) {
      std::cout << "(epsilon-thresholded Tanh model: engines may differ "
                   "slightly — the abs pass bounds the per-class gradients)\n";
    }

    // Criterion measure path: batched sweeps through Criterion::measure into
    // reused mask storage, unioned into a CoverageAccumulator. Pass 1 warms
    // the storage; pass 2 is the steady state the generator loops run in —
    // it must not be slower than pass 1.
    cov::CriterionContext ctx;
    ctx.model = &trained.model;
    ctx.item_shape = trained.item_shape;
    cov::CriterionConfig criterion_config;
    criterion_config.parameter = abs_config;
    const auto criterion =
        cov::make_criterion("parameter", ctx, criterion_config);
    constexpr std::size_t kBatch = 16;  // Criterion::measure_pool's width
    Tensor batch;
    std::vector<DynamicBitset> masks;
    cov::CoverageAccumulator accumulator(criterion->total_points());
    double measure_times[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      accumulator = cov::CoverageAccumulator(criterion->total_points());
      timer.reset();
      for (std::size_t begin = 0; begin < pool.images.size(); begin += kBatch) {
        const std::size_t end = std::min(pool.images.size(), begin + kBatch);
        stack_batch_range(pool.images, begin, end, batch);
        criterion->measure(batch, masks);
        for (const auto& mask : masks) accumulator.add(mask);
      }
      measure_times[pass] = timer.elapsed_seconds();
    }
    std::cout << "criterion measure (batched): cold "
              << format_double(measure_times[0] / count * 1e3, 2)
              << " ms/image, warmed (reused mask storage) "
              << format_double(measure_times[1] / count * 1e3, 2)
              << " ms/image, final coverage "
              << format_percent(accumulator.coverage()) << "\n";
  }
  return 0;
}
