// Quickstart — the whole library in one file:
//   train a DNN, generate functional tests with the paper's combined method,
//   ship them as an encrypted package, validate the black-box IP, then show
//   whether a fault-injection attack is caught.
//
// Build & run:  ./build/quickstart
// Exits 1 when the generator yields no tests or the intact IP is not SECURE.
#include <filesystem>
#include <iostream>

#include "attack/sba.h"
#include "coverage/criterion.h"
#include "exp/model_zoo.h"
#include "ip/reference_ip.h"
#include "testgen/generator.h"
#include "validate/test_suite.h"
#include "validate/validator.h"

int main() {
  using namespace dnnv;

  // 1. The vendor trains a model (tiny zoo entry: trains in seconds and is
  //    cached under .cache/dnnv afterwards).
  std::cout << "[1] training / loading the vendor model...\n";
  exp::ZooOptions options;
  options.tiny = true;
  auto trained = exp::cifar_relu(options);
  std::cout << "    " << trained.name << ": "
            << trained.model.param_count() << " parameters, test accuracy "
            << trained.test_accuracy * 100 << "%\n";

  // 2. Generate functional tests: greedy training-set selection first, then
  //    gradient-based synthesis once selection saturates (paper §IV), both
  //    scored by parameter-activation coverage (Eq. 2/3).
  std::cout << "[2] generating functional tests (combined method)...\n";
  const auto pool = exp::shapes_train(150);
  const auto criterion =
      cov::make_parameter_criterion(trained.model, trained.coverage);
  cov::CoverageAccumulator coverage(criterion->total_points());
  testgen::GeneratorConfig gen_config;
  gen_config.max_tests = 20;
  gen_config.gradient.steps = 40;
  testgen::GenContext gen_ctx;
  gen_ctx.model = &trained.model;
  gen_ctx.pool = &pool.images;
  gen_ctx.item_shape = trained.item_shape;
  gen_ctx.num_classes = trained.num_classes;
  gen_ctx.criterion = criterion.get();
  gen_ctx.accumulator = &coverage;
  const auto tests =
      testgen::make_generator("combined", gen_config)->generate(gen_ctx);
  std::cout << "    " << tests.tests.size() << " tests activate "
            << coverage.coverage() * 100 << "% of all parameters\n";
  if (tests.tests.empty()) {
    std::cerr << "the generator produced no tests\n";
    return 1;
  }

  // 3. Package (X, Y) for release: golden outputs + keyed obfuscation + CRC.
  std::cout << "[3] packaging tests with golden outputs...\n";
  auto suite = validate::TestSuite::create(trained.model, tests.tests);
  const std::string package = "quickstart_suite.pkg";
  suite.save_package(package, /*key=*/0x5EC0DE);

  // 4. The user receives the package and the black-box IP (labels only) and
  //    validates it: intact IP -> every golden answer matches.
  std::cout << "[4] user-side validation of the intact IP...\n";
  const auto received = validate::TestSuite::load_package(package, 0x5EC0DE);
  ip::ReferenceIp ip(trained.model, trained.item_shape);
  auto verdict = validate::validate_ip(ip, received);
  std::cout << "    verdict: " << (verdict.passed ? "SECURE" : "TAMPERED")
            << " (" << verdict.tests_run << " tests)\n";
  if (!verdict.passed) {
    std::filesystem::remove(package);
    std::cerr << "the intact IP failed its own suite\n";
    return 1;
  }

  // 5. An attacker flips the IP's behaviour with a single-bias fault
  //    injection (Liu et al., ICCAD'17); re-validation shows whether the
  //    suite catches it.
  std::cout << "[5] injecting a single-bias attack into the deployed IP...\n";
  Rng rng(7);
  attack::SingleBiasAttack sba;
  attack::Perturbation attack_payload;
  for (std::size_t v = 0; v < pool.images.size() && attack_payload.empty(); ++v) {
    attack_payload = sba.craft(ip.compromised_model(), pool.images[v], rng);
  }
  attack_payload.apply(ip.compromised_model());
  verdict = validate::validate_ip(ip, received);
  std::cout << "    verdict after attack: "
            << (verdict.passed ? "SECURE (attack escaped!)" : "TAMPERED")
            << (verdict.passed ? "" : " — first failing test #" +
                                          std::to_string(verdict.first_failure))
            << "\n";

  std::filesystem::remove(package);
  std::cout << "done.\n";
  return 0;
}
