// Attack demo — the threat model in action: craft SBA and GDA perturbations
// against a trained model (Liu et al., ICCAD 2017), show what they do to the
// victim input and to overall accuracy, and how many functional tests are
// needed to expose each.
//
// Usage: ./build/examples/attack_demo [--model mnist|cifar]
#include <iostream>

#include "attack/gda.h"
#include "attack/random_perturbation.h"
#include "attack/sba.h"
#include "coverage/criterion.h"
#include "exp/model_zoo.h"
#include "ip/reference_ip.h"
#include "nn/trainer.h"
#include "testgen/generator.h"
#include "util/cli.h"
#include "util/table.h"
#include "validate/test_suite.h"
#include "validate/validator.h"

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"model"});
  const std::string which = args.get_string("model", "mnist");

  exp::ZooOptions options;
  options.verbose = true;
  auto trained =
      which == "mnist" ? exp::mnist_tanh(options) : exp::cifar_relu(options);
  auto test_data = which == "mnist" ? exp::digits_test(400) : exp::shapes_test(400);
  auto pool = which == "mnist" ? exp::digits_train(400) : exp::shapes_train(400);

  std::cout << "=== fault-injection attacks on " << trained.name << " ===\n";
  const double clean_accuracy = nn::evaluate_accuracy(
      trained.model, test_data.images, test_data.labels);
  std::cout << "clean test accuracy: " << format_percent(clean_accuracy) << "\n\n";

  // Functional-test suite for detection checks.
  const auto criterion =
      cov::make_parameter_criterion(trained.model, trained.coverage);
  testgen::GeneratorConfig gen_config;
  gen_config.max_tests = 50;
  gen_config.gradient.steps = 50;
  testgen::GenContext gen_ctx;
  gen_ctx.model = &trained.model;
  gen_ctx.pool = &pool.images;
  gen_ctx.item_shape = trained.item_shape;
  gen_ctx.num_classes = trained.num_classes;
  gen_ctx.criterion = criterion.get();
  const auto tests =
      testgen::make_generator("combined", gen_config)->generate(gen_ctx);
  auto suite = validate::TestSuite::create(trained.model, tests.tests);

  attack::SingleBiasAttack sba;
  attack::GradientDescentAttack gda;
  attack::RandomPerturbation random_attack;

  TablePrinter table({"attack", "params changed", "max |delta|",
                      "victim flipped", "accuracy after", "first detecting test"});
  Rng rng(99);
  for (const attack::Attack* atk :
       {static_cast<const attack::Attack*>(&sba),
        static_cast<const attack::Attack*>(&gda),
        static_cast<const attack::Attack*>(&random_attack)}) {
    // Find a victim that the attack can compromise.
    attack::Perturbation payload;
    int victim_label_before = -1;
    int victim_label_after = -1;
    for (std::size_t v = 0; v < pool.images.size() && payload.empty(); ++v) {
      payload = atk->craft(trained.model, pool.images[v], rng);
      if (!payload.empty()) {
        victim_label_before = trained.model.predict_label(pool.images[v]);
        payload.apply(trained.model);
        victim_label_after = trained.model.predict_label(pool.images[v]);
        payload.revert(trained.model);
      }
    }
    if (payload.empty()) {
      table.add_row({atk->name(), "-", "-", "craft failed", "-", "-"});
      continue;
    }
    payload.apply(trained.model);
    const double attacked_accuracy = nn::evaluate_accuracy(
        trained.model, test_data.images, test_data.labels);
    // Which functional test exposes the perturbation first?
    ip::ReferenceIp ip(trained.model, trained.item_shape);
    const auto verdict = validate::validate_ip(ip, suite);
    payload.revert(trained.model);

    table.add_row(
        {atk->name(), std::to_string(payload.deltas.size()),
         format_double(payload.max_magnitude(), 3),
         std::to_string(victim_label_before) + " -> " +
             std::to_string(victim_label_after),
         format_percent(attacked_accuracy),
         verdict.passed ? "UNDETECTED" : "#" + std::to_string(verdict.first_failure)});
  }
  table.print(std::cout);
  std::cout << "\nnote how GDA stays stealthy (small deltas, accuracy barely "
               "moves) yet the parameter-coverage tests still catch it.\n";
  return 0;
}
