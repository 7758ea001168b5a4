// Coverage explorer — inspect WHERE coverage comes from under any
// registered criterion: per-tensor activation fractions for single images
// from different pools ("parameter" criterion), how the covered set grows
// as tests accumulate, and a summary table comparing every registered
// criterion on the same images.
//
// Usage: ./build/coverage_explorer [--model mnist|cifar]
//                                  [--criterion parameter|neuron|ksection|
//                                               boundary|topk]
#include <iostream>

#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "coverage/report.h"
#include "exp/model_zoo.h"
#include "tensor/batch.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"model", "criterion"});
  const std::string which = args.get_string("model", "cifar");
  const std::string criterion_name = args.get_string("criterion", "parameter");

  exp::ZooOptions options;
  options.verbose = true;
  auto trained =
      which == "mnist" ? exp::mnist_tanh(options) : exp::cifar_relu(options);
  std::cout << "=== coverage explorer: " << trained.name << " ===\n";
  std::cout << trained.model.summary() << "\n\n";

  const auto train = which == "mnist" ? exp::digits_train(10) : exp::shapes_train(10);
  const auto noise = exp::noise_pool(trained, 10);

  // One context/config serves every criterion: the parameter knobs come
  // from the zoo model's recommended criterion, and the range criteria
  // calibrate on the training images.
  cov::CriterionContext ctx;
  ctx.model = &trained.model;
  ctx.item_shape = trained.item_shape;
  ctx.calibration = &train.images;
  cov::CriterionConfig config;
  config.parameter = trained.coverage;
  const auto criterion = cov::make_criterion(criterion_name, ctx, config);
  std::cout << "criterion: " << criterion->describe() << "\n";

  // Per-tensor view of one training image vs one noise image — parameter
  // points map 1:1 onto the model's tensors, so only that criterion gets
  // the per-tensor breakdown.
  if (criterion->parameter_indexed()) {
    const auto train_mask =
        criterion->measure(stack_batch({train.images.front()})).front();
    const auto noise_mask =
        criterion->measure(stack_batch({noise.images.front()})).front();
    TablePrinter per_tensor({"parameter tensor", "train image", "noise image"});
    const auto train_report = cov::per_layer_coverage(trained.model, train_mask);
    const auto noise_report = cov::per_layer_coverage(trained.model, noise_mask);
    for (std::size_t i = 0; i < train_report.size(); ++i) {
      per_tensor.add_row({train_report[i].name,
                          format_percent(train_report[i].fraction()),
                          format_percent(noise_report[i].fraction())});
    }
    std::cout << "\nsingle-image activation by tensor:\n";
    per_tensor.print(std::cout);
  }

  // Union growth: how much NEW coverage each extra training image brings
  // under the selected criterion.
  std::cout << "\nunion growth over 10 training images ('" << criterion_name
            << "'):\n";
  TablePrinter growth({"after image", "coverage", "new points added"});
  cov::CoverageAccumulator accumulator(criterion->total_points());
  const auto masks = criterion->measure(stack_batch(train.images));
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const std::size_t gained = accumulator.marginal_gain(masks[i]);
    accumulator.add(masks[i]);
    growth.add_row({std::to_string(i + 1),
                    format_percent(accumulator.coverage()),
                    std::to_string(gained)});
  }
  growth.print(std::cout);

  // Every registered criterion on the same 10 images, side by side.
  std::cout << "\nall registered criteria over the same 10 training images:\n";
  TablePrinter summary({"criterion", "points", "covered", "coverage"});
  for (const auto& row :
       cov::criteria_report(cov::criterion_names(), ctx, config,
                            train.images)) {
    summary.add_row({row.name, std::to_string(row.total_points),
                     std::to_string(row.covered),
                     format_percent(row.fraction())});
  }
  summary.print(std::cout);
  std::cout << "\nthe shrinking marginal gains are why Algorithm 1 saturates "
               "and the paper switches to gradient-based synthesis.\n";
  return 0;
}
