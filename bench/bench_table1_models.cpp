// Table I — the two evaluation models and their accuracy.
//
// Paper: MNIST/Tanh CNN at 98.9% and CIFAR-10/ReLU CNN at 84.26% accuracy.
// Here: the same topologies (conv-conv-pool ×2 -> dense -> logits) trained on
// the synthetic stand-in datasets (src/data/shapes.h, src/data/digits.h);
// channel counts are CPU-scaled by default (--paper-scale builds Table I's
// exact widths).
#include <iostream>

#include "bench/bench_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"paper-scale", "retrain"});
  bench::banner("bench_table1_models", "Table I — model architectures & accuracy");

  const auto options = bench::zoo_options(args);
  auto mnist = exp::mnist_tanh(options);
  auto cifar = exp::cifar_relu(options);

  TablePrinter table({"model", "dataset (substitute)", "activation",
                      "parameters", "train acc", "test acc", "paper test acc"});
  table.add_row({mnist.name, "DigitsDataset (MNIST)", "tanh",
                 std::to_string(mnist.model.param_count()),
                 format_percent(mnist.train_accuracy),
                 format_percent(mnist.test_accuracy), "98.9%"});
  table.add_row({cifar.name, "ShapesDataset (CIFAR-10)", "relu",
                 std::to_string(cifar.model.param_count()),
                 format_percent(cifar.train_accuracy),
                 format_percent(cifar.test_accuracy), "84.26%"});
  table.print(std::cout);

  std::cout << "\narchitectures:\n";
  std::cout << "  " << mnist.name << ": " << mnist.model.summary() << "\n";
  std::cout << "  " << cifar.name << ": " << cifar.model.summary() << "\n";
  return 0;
}
