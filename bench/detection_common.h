// Shared implementation of the Tables II/III detection-rate experiments.
#ifndef DNNV_BENCH_DETECTION_COMMON_H_
#define DNNV_BENCH_DETECTION_COMMON_H_

#include <iostream>
#include <string>
#include <vector>

#include "attack/gda.h"
#include "attack/random_perturbation.h"
#include "attack/sba.h"
#include "bench/bench_common.h"
#include "coverage/criterion.h"
#include "testgen/generator.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "validate/backend.h"
#include "validate/detection.h"
#include "validate/test_suite.h"

namespace dnnv::bench {

/// The two compared criteria, by generator-registry name: the
/// neuron-coverage baseline ([11]-style) and the paper's proposed combined
/// parameter-coverage method (§IV-D).
inline constexpr const char* kBaselineMethod = "neuron";
inline constexpr const char* kProposedMethod = "combined";

/// Generator config shared by every method in the detection tables.
inline testgen::GeneratorConfig detection_table_config(
    const exp::TrainedModel& trained, int max_tests) {
  testgen::GeneratorConfig config;
  config.max_tests = max_tests;
  config.coverage = trained.coverage;
  config.gradient.steps = 25;
  return config;
}

/// Builds one method's qualified suite through make_generator. The baseline
/// selects by neuron coverage, the proposed method by parameter coverage;
/// `coverage_out` receives that metric's final coverage.
inline validate::TestSuite build_method_suite(
    const std::string& method, const exp::TrainedModel& trained,
    const data::MaterializedData& pool, int max_tests, double* coverage_out) {
  const testgen::GeneratorConfig config =
      detection_table_config(trained, max_tests);
  cov::CriterionContext criterion_ctx;
  criterion_ctx.model = &trained.model;
  criterion_ctx.item_shape = trained.item_shape;
  const auto criterion =
      method == kBaselineMethod
          ? cov::make_criterion("neuron", criterion_ctx)
          : cov::make_parameter_criterion(trained.model, config.coverage);
  cov::CoverageAccumulator accumulator(criterion->total_points());
  testgen::GenContext ctx;
  ctx.model = &trained.model;
  ctx.pool = &pool.images;
  ctx.item_shape = trained.item_shape;
  ctx.num_classes = trained.num_classes;
  ctx.criterion = criterion.get();
  ctx.accumulator = &accumulator;
  const auto result = testgen::make_generator(method, config)->generate(ctx);
  if (coverage_out != nullptr) *coverage_out = result.final_coverage;
  auto vendor_model = trained.model.clone();
  return validate::TestSuite::create(vendor_model, result.tests);
}

/// Runs one full detection table (paper Table II or III): builds the
/// neuron-coverage baseline suite and the proposed parameter-coverage suite
/// (both 50 tests, nested) via the generator registry, runs SBA / GDA /
/// random perturbation campaigns on the float execution backend, and prints
/// detection rates for N in {10..50}.
inline int run_detection_table(exp::TrainedModel& trained,
                               const data::MaterializedData& pool,
                               const data::MaterializedData& victims,
                               const CliArgs& args, const char* paper_rows) {
  const int trials = args.get_int("trials", 600);
  const int max_tests = 50;
  std::cout << "model: " << trained.name << ", trials per attack: " << trials
            << " (paper: 10000), suites: " << max_tests << " tests\n\n";

  Stopwatch timer;

  // Proposed suite: combined parameter-coverage generation (paper §IV-D).
  double proposed_coverage = 0.0;
  const validate::TestSuite proposed_suite = build_method_suite(
      kProposedMethod, trained, pool, max_tests, &proposed_coverage);
  std::cout << "proposed suite: VC = " << format_percent(proposed_coverage)
            << " (" << timer.elapsed_seconds() << "s)\n";

  // Baseline suite: neuron-coverage selection ([11]-style).
  timer.reset();
  double neuron_coverage = 0.0;
  const validate::TestSuite neuron_suite = build_method_suite(
      kBaselineMethod, trained, pool, max_tests, &neuron_coverage);
  std::cout << "baseline suite: neuron coverage = "
            << format_percent(neuron_coverage) << " ("
            << timer.elapsed_seconds() << "s)\n\n";

  // Attacks (Liu et al. ICCAD'17 + random corruption).
  attack::SingleBiasAttack sba;
  attack::GradientDescentAttack gda;
  attack::RandomPerturbation random_attack;

  validate::DetectionConfig config;
  config.trials = trials;
  config.test_counts = {10, 20, 30, 40, 50};
  config.seed = 20230517;

  // The deployed target: both suites replay on the same float reference
  // backend (bench_table* measure the paper's float setting; swap in
  // validate::Int8Backend to reproduce the tables on the integer engine).
  validate::FloatReferenceBackend backend(trained.model);

  struct Cell {
    validate::DetectionOutcome neuron;
    validate::DetectionOutcome proposed;
  };
  std::vector<std::pair<std::string, Cell>> columns;
  for (const auto* atk :
       std::initializer_list<const attack::Attack*>{&sba, &gda, &random_attack}) {
    timer.reset();
    Cell cell;
    // Victims come from HELD-OUT data: an attacker targets fielded inputs,
    // not the vendor's test-generation pool (and baseline tests must not
    // accidentally contain the victim itself).
    cell.neuron = run_detection(trained.model, neuron_suite, backend, *atk,
                                victims.images, config);
    cell.proposed = run_detection(trained.model, proposed_suite, backend, *atk,
                                  victims.images, config);
    std::cout << "attack " << atk->name() << ": " << timer.elapsed_seconds()
              << "s (dropped trials: neuron " << cell.neuron.dropped_trials
              << ", proposed " << cell.proposed.dropped_trials << ")\n";
    columns.emplace_back(atk->name(), std::move(cell));
  }

  std::cout << "\n";
  TablePrinter table({"Tests", "SBA (neuron)", "GDA (neuron)", "Rand (neuron)",
                      "SBA (proposed)", "GDA (proposed)", "Rand (proposed)"});
  for (std::size_t row = 0; row < config.test_counts.size(); ++row) {
    std::vector<std::string> cells;
    cells.push_back("N=" + std::to_string(config.test_counts[row]));
    for (const auto& [name, cell] : columns) {
      cells.push_back(format_percent(cell.neuron.rate_per_count[row]));
    }
    for (const auto& [name, cell] : columns) {
      cells.push_back(format_percent(cell.proposed.rate_per_count[row]));
    }
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  std::cout << "\npaper reference rows:\n" << paper_rows;

  // Shape check: proposed beats baseline at every N for every attack.
  bool proposed_wins = true;
  for (std::size_t row = 0; row < config.test_counts.size(); ++row) {
    for (const auto& [name, cell] : columns) {
      if (cell.proposed.rate_per_count[row] + 1e-9 <
          cell.neuron.rate_per_count[row]) {
        proposed_wins = false;
      }
    }
  }
  std::cout << "\nproposed >= neuron baseline at every cell: "
            << (proposed_wins ? "YES" : "NO") << "\n";
  return 0;
}

}  // namespace dnnv::bench

#endif  // DNNV_BENCH_DETECTION_COMMON_H_
