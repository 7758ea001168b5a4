// perfbench — one end-to-end benchmark of the vendor→user path.
//
// Every workload runs the product path of the paper's Fig. 1 through the
// library's public façades: a vendor release of both tiny zoo models
// (int8 artifact, "full" fault model, default VendorOptions otherwise), the
// user-side check of the shipped bundles, and a serving pass of both
// bundles over a loopback net::ValidationServer. A workload decides which
// part carries the statistical weight:
//
//   release       fault budget 2048; two release + user-check rounds, so
//                 the bundle bytes of the rounds are compared and the
//                 timings are medians. Time goes to generation and range
//                 analysis.
//   qualify-full  fault budget 0 (the whole universe); one round, the user
//                 side checking mnist-tiny's bundle. Time goes to fault
//                 simulation, on both the vendor and the user side.
//   serve         fault budget 2048, one round with two user checks;
//                 serving passes repeat for --seconds. Time goes to the
//                 wire, the service scheduler and whole-network int8
//                 inference.
//
// The untraced run (--trace 0) prints the end-to-end metrics. The traced run
// (--trace 1) records spans around the calls into each layer, replays the
// vendor stages through the public kept-path functions (VendorPipeline::run
// is one opaque call) and prints the per-layer metrics. Every run checks its
// outputs and exits 1 when a check fails. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload release|qualify-full|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--quick]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/range_analysis.h"
#include "analysis/testability.h"
#include "analysis/verifier.h"
#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "data/digits.h"
#include "data/shapes.h"
#include "exp/model_zoo.h"
#include "fault/collapse.h"
#include "fault/fault_model.h"
#include "fault/simulator.h"
#include "ip/quantized_ip.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/service.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/quantize.h"
#include "tensor/batch.h"
#include "testgen/generator.h"
#include "trace.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/rng.h"
#include "validate/backend.h"
#include "validate/validator.h"

namespace {

using namespace dnnv;
using perfbench::Clock;
using perfbench::Recorder;
using perfbench::Scope;

constexpr std::uint64_t kKey = 0x5EEDB0A7;
constexpr std::int64_t kPoolSize = 300;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Whether a repeated part should run again: after `done` repetitions that
/// took `elapsed` seconds, one more must end within half a repetition of
/// the `seconds` budget.
bool another_fits(double elapsed, int done, double seconds) {
  return elapsed + 0.5 * elapsed / done < seconds;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::int64_t fault_budget = 2048;
  int release_rounds = 1;  ///< release + user-check rounds
  /// User checks per round; user_check_s is their median. One check of
  /// cifar-tiny's bundle swings by a fifth between runs.
  int user_checks = 1;
  bool repeat_serve = false;  ///< serving passes fill --seconds
  /// Bundles the user side checks: 2 = both, 1 = mnist-tiny's only.
  std::size_t user_bundles = 2;
};

Workload workload_named(const std::string& name, bool quick) {
  if (name == "release") return {name, 2048, 2, 1, false, 2};
  // The user re-measure of cifar-tiny's whole universe repeats its ~25 s
  // simulation; checking only mnist-tiny's bundle keeps a run inside the
  // benchmark's time budget. The short mode caps the universe.
  if (name == "qualify-full") {
    return {name, quick ? 16384 : 0, 1, 1, false, 1};
  }
  if (name == "serve") return {name, 2048, 1, 2, true, 2};
  DNNV_CHECK(false, "unknown workload '" << name
                                         << "' (release|qualify-full|serve)");
  return {};
}

/// Shape of one serving pass. Requests are split evenly over `connections`
/// client threads (one connection each). The mix is synthetic: no measured
/// device population or request trace stands behind its proportions, which
/// are set so that every pass yields enough samples of both request kinds
/// (see perfbench/README.md for what it cannot support).
struct ServePlan {
  int connections = 1;
  /// Closed-loop capacity phases per pass; serve_rps is their median.
  int closed_phases = 2;
  int closed_per_conn = 500;  ///< requests per connection in each
  int open_requests = 2000;   ///< open loop, after the closed phases
  /// Open-loop rate as a share of the pass's own closed-loop capacity, so
  /// the load is the same fraction of what the server sustains on any host.
  double load_share = 0.5;
  /// Open-loop requests per serve_p99_ms window. A window's p99 has ten
  /// samples beyond it; serve_p99_ms is the median window, so one stall of
  /// the host moves one window instead of the whole run's tail.
  int p99_window = 1000;
  /// Share of tampered-device requests: 40 tampered samples per open loop,
  /// enough for a p50, while clean requests stay the bulk of the traffic.
  double tamper_share = 0.02;
  /// Tampered requests target cifar-tiny, whose inference dominates a
  /// request: a mix over both models would make tamper_p50_ms the boundary
  /// between two latency modes.
  std::size_t tamper_bundle = 1;
  int tamper_cases = 32;      ///< distinct seeded tampered devices
  /// Sign bits flipped per tampered device: enough that the first suite
  /// chunk exposes the device, so early exit bounds a tampered request.
  int flips_per_case = 1024;
};

ServePlan serve_plan(bool quick) {
  ServePlan plan;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  plan.connections = static_cast<int>(std::min(4u, hw));
  if (quick) {
    plan.open_requests = 200;
    plan.p99_window = 100;
    plan.closed_phases = 2;
    plan.closed_per_conn = 25;
    plan.tamper_cases = 4;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Statistics and reporting
// ---------------------------------------------------------------------------

/// Nearest-rank quantile (p in [0, 1]).
double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Sample median; the mean of the middle two for an even count.
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// One printed metric: its JSON value plus the sample it came from.
struct Row {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> sample;  ///< empty for exact counts and ratios
  bool exact = false;
};

class Report {
 public:
  /// A timing or rate: the value is the sample median.
  void timing(const std::string& name, const std::string& unit,
              std::vector<double> sample) {
    const double value = median(sample);
    rows_.push_back({name, unit, value, std::move(sample), false});
  }
  /// A value derived from a sample other than by its median (a percentile).
  void derived(const std::string& name, const std::string& unit, double value,
               std::vector<double> sample) {
    rows_.push_back({name, unit, value, std::move(sample), false});
  }
  /// A deterministic count or ratio of counts: equal on every host.
  void exact(const std::string& name, const std::string& unit, double value) {
    rows_.push_back({name, unit, value, {}, true});
  }

  /// The human-readable table: unit, sample count, median and the highest
  /// percentile with at least ten samples beyond it.
  void print(std::ostream& out) const {
    out << std::left << std::setw(28) << "metric" << std::setw(8) << "unit"
        << std::right << std::setw(7) << "n" << std::setw(16) << "value"
        << std::setw(14) << "median" << std::setw(20) << "percentile"
        << "\n";
    for (const Row& row : rows_) {
      out << std::left << std::setw(28) << row.name << std::setw(8) << row.unit
          << std::right;
      if (row.exact) {
        out << std::setw(7) << "exact" << std::setw(16) << format(row.value)
            << "\n";
        continue;
      }
      out << std::setw(7) << row.sample.size() << std::setw(16)
          << format(row.value) << std::setw(14)
          << (row.sample.empty() ? "-" : format(median(row.sample)));
      const auto [label, p] = supported_percentile(row.sample.size());
      if (p > 0.0) {
        out << std::setw(20)
            << (label + "=" + format(quantile(row.sample, p)));
      } else {
        out << std::setw(20) << "-";
      }
      out << "\n";
    }
  }

  /// The result line: every metric in `names`, nothing else.
  std::string json(bool correct, std::int64_t attempted, std::int64_t failed,
                   const std::vector<std::string>& names) const {
    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : names) {
      const Row* row = find(name);
      DNNV_CHECK(row != nullptr, "metric '" << name << "' was not measured");
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << row->value << ", \"unit\": \"" << row->unit << "\"}";
      first = false;
    }
    out << "}}";
    return out.str();
  }

 private:
  const Row* find(const std::string& name) const {
    for (const Row& row : rows_) {
      if (row.name == name) return &row;
    }
    return nullptr;
  }

  static std::pair<std::string, double> supported_percentile(std::size_t n) {
    for (const auto& [label, p] :
         {std::pair<std::string, double>{"p99.9", 0.999}, {"p99", 0.99},
          {"p90", 0.9}}) {
      if (static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-9) {
        return {label, p};
      }
    }
    return {"", 0.0};
  }

  static std::string format(double value) {
    std::ostringstream out;
    out << std::setprecision(6) << value;
    return out.str();
  }

  std::vector<Row> rows_;
};

/// Correctness checks: every failure is printed and fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  /// Records an operation that threw instead of producing a result.
  void error(const std::string& what) {
    ++attempted_;
    ++failed_;
    std::cerr << "OPERATION FAILED: " << what << "\n";
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up: zoo models and seeded candidate pools
// ---------------------------------------------------------------------------

struct ModelCase {
  exp::TrainedModel trained;
  data::MaterializedData pool;
};

exp::ZooOptions zoo_options(const std::string& work_dir, bool verbose) {
  exp::ZooOptions zoo;
  zoo.tiny = true;
  zoo.cache_dir = work_dir + "/zoo";
  zoo.verbose = verbose;
  return zoo;
}

/// Candidate-pool dataset seeds: a function of the workload seed only, and
/// disjoint from the zoo's training/test seeds (101/102, 201/202).
std::uint64_t pool_seed(std::uint64_t seed, int model) {
  return 1'000'003ull * (seed + 1) + static_cast<std::uint64_t>(model);
}

struct SetupTimes {
  double zoo_s = 0.0;
  double pool_s = 0.0;
};

std::vector<ModelCase> set_up(const std::string& work_dir, std::uint64_t seed,
                              std::int64_t pool_size, SetupTimes& times) {
  const exp::ZooOptions zoo = zoo_options(work_dir, false);
  std::vector<ModelCase> cases(2);
  auto t0 = Clock::now();
  cases[0].trained = exp::mnist_tanh(zoo);
  cases[1].trained = exp::cifar_relu(zoo);
  times.zoo_s = since(t0);
  t0 = Clock::now();
  cases[0].pool = data::materialize(
      data::DigitsDataset(pool_seed(seed, 0), pool_size), pool_size);
  cases[1].pool = data::materialize(
      data::ShapesDataset(pool_seed(seed, 1), pool_size), pool_size);
  times.pool_s = since(t0);
  return cases;
}

// ---------------------------------------------------------------------------
// Vendor side
// ---------------------------------------------------------------------------

pipeline::VendorOptions vendor_options(const exp::TrainedModel& trained,
                                       std::int64_t fault_budget,
                                       bool quick) {
  pipeline::VendorOptions options;
  options.backend = "int8";
  options.fault_model = "full";
  options.fault_budget = fault_budget;
  options.model_name = trained.name;
  options.generator.coverage = trained.coverage;
  if (quick) options.num_tests = 10;
  return options;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One shipped release of one model, as the vendor façade produced it.
struct Release {
  std::string path;
  pipeline::Deliverable bundle;
  pipeline::VendorReport report;
  std::string bytes;
};

/// Fault counts of one qualification, printed side by side.
struct FaultCounts {
  std::int64_t enumerated = 0, untestable = 0, dominated = 0, scored = 0,
               detected = 0;
};

FaultCounts counts_of(const fault::FaultQualification& q) {
  return {q.enumerated, q.untestable, q.dominated, q.scored, q.detected};
}

/// Replays the vendor stages through the public kept-path functions with a
/// span around each call, and checks the replica's suite and golden labels
/// against the façade's bundle. Uses only the interval range analysis and
/// no calibrated conditioning: the stages the façade adds on top of these
/// show up as pipeline.unattributed_s.
FaultCounts replay_vendor(const ModelCase& model,
                          const pipeline::VendorOptions& options,
                          const Release& release, const std::string& path,
                          Recorder& rec, Checks& checks) {
  const std::uint64_t op = rec.next_op();
  Scope root(rec, "pipeline.replica", -1, op);
  const std::int64_t parent = root.index();
  const auto& trained = model.trained;
  const auto& pool = model.pool.images;

  quant::QuantModel qmodel;
  {
    Scope s(rec, "quant.quantize", parent, op);
    qmodel = quant::QuantModel::quantize(trained.model, pool, options.quant);
  }
  {
    Scope s(rec, "analysis.verify", parent, op);
    analysis::require_valid(analysis::verify_model(qmodel),
                            "replica pre-qualification");
  }
  testgen::GeneratorConfig config = options.generator;
  config.max_tests = options.num_tests;
  cov::CriterionConfig criterion_config = options.criterion_config;
  criterion_config.parameter = config.coverage;
  std::unique_ptr<cov::Criterion> criterion;
  {
    Scope s(rec, "coverage.criterion", parent, op);
    cov::CriterionContext ctx;
    ctx.model = &trained.model;
    ctx.qmodel = &qmodel;
    ctx.item_shape = trained.item_shape;
    ctx.calibration = &pool;
    criterion = cov::make_criterion(options.criterion, ctx, criterion_config);
  }
  std::vector<Tensor> inputs;
  {
    Scope s(rec, "testgen.generate", parent, op);
    const auto generator = testgen::make_generator(options.method, config);
    cov::CoverageAccumulator accumulator(criterion->total_points());
    testgen::GenContext ctx;
    ctx.model = &trained.model;
    ctx.pool = &pool;
    ctx.item_shape = trained.item_shape;
    ctx.num_classes = trained.num_classes;
    ctx.criterion = criterion.get();
    ctx.accumulator = &accumulator;
    const testgen::GenerationResult generation = generator->generate(ctx);
    for (const auto& test : generation.tests) inputs.push_back(test.input);
  }
  std::vector<int> golden;
  {
    Scope s(rec, "validate.label", parent, op);
    validate::Int8Backend backend(qmodel);
    golden = backend.predict_clean(stack_batch(inputs));
  }

  const validate::TestSuite& shipped = release.bundle.suite;
  bool same_suite = inputs.size() == shipped.size();
  for (std::size_t i = 0; same_suite && i < inputs.size(); ++i) {
    const Tensor& a = inputs[i];
    const Tensor& b = shipped.inputs()[i];
    same_suite = a.same_shape(b) &&
                 std::equal(a.data(), a.data() + a.numel(), b.data());
  }
  checks.expect(same_suite, trained.name + ": replica suite == facade suite");
  checks.expect(golden == shipped.golden_labels(),
                trained.name + ": replica golden labels == facade labels");

  FaultCounts counts;
  fault::UniverseConfig universe_config = fault::universe_config("full");
  universe_config.max_faults = options.fault_budget;
  fault::FaultUniverse universe;
  {
    Scope s(rec, "fault.enumerate", parent, op);
    universe = fault::FaultUniverse::enumerate(qmodel, universe_config);
  }
  counts.enumerated = static_cast<std::int64_t>(universe.size());
  analysis::ModelRange range;
  {
    Scope s(rec, "analysis.ranges", parent, op);
    range = analysis::analyze_ranges(qmodel);
  }
  {
    Scope s(rec, "analysis.classify", parent, op);
    const auto report = analysis::classify_universe(qmodel, range, universe);
    universe = analysis::prune_untestable(universe, report);
    counts.untestable = static_cast<std::int64_t>(report.untestable);
  }
  {
    Scope s(rec, "analysis.dominance", parent, op);
    const auto dom = analysis::analyze_dominance(qmodel, range, universe);
    universe = analysis::prune_dominated(universe, dom);
    counts.dominated = static_cast<std::int64_t>(dom.count);
  }
  {
    Scope s(rec, "fault.collapse", parent, op);
    universe = fault::collapse_structural(universe, qmodel);
  }
  counts.scored = static_cast<std::int64_t>(universe.size());
  fault::SimResult result;
  {
    Scope s(rec, "fault.simulate", parent, op);
    const validate::TestSuite suite =
        validate::TestSuite::from_labels(inputs, golden);
    fault::FaultSimulator simulator(qmodel, suite);
    fault::SimOptions sim_options;
    sim_options.mode = fault::SimMode::kFullMatrix;
    result = simulator.run_batched(universe, sim_options);
  }
  counts.detected = static_cast<std::int64_t>(result.detected);
  {
    Scope s(rec, "fault.matrix", parent, op);
    (void)fault::analyze_matrix(result.rows);
  }
  {
    Scope s(rec, "analysis.verify", parent, op);
    checks.expect(!analysis::has_errors(
                      analysis::verify_deliverable(release.bundle)),
                  trained.name + ": shipped bundle verifies clean");
  }
  {
    Scope s(rec, "pipeline.save", parent, op);
    release.bundle.save_file(path, kKey);
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

struct Served {
  std::string path;
  const pipeline::Deliverable* bundle = nullptr;
  std::uint32_t wire_id = 0;
};

struct TamperCase {
  std::size_t bundle = 0;
  std::vector<validate::CodeFault> faults;
  validate::Verdict expected;  ///< in-process validate_ip reference
};

/// One request of the mix: a clean validation on a persistent session, or a
/// tampered-device validation on a fresh session carrying `tamper`'s faults.
struct Request {
  std::size_t bundle = 0;
  int tamper = -1;
};

struct Outcome {
  double latency_s = 0.0;  ///< from the scheduled send time
  double late_s = 0.0;     ///< how late the generator sent it
  bool tampered = false;
  bool ok = false;
  std::size_t slot = 0;    ///< position in the phase's send order
};

bool same_verdict(const validate::Verdict& a, const validate::Verdict& b) {
  return a.passed == b.passed && a.first_failure == b.first_failure &&
         a.num_failures == b.num_failures && a.tests_run == b.tests_run;
}

bool secure(const validate::Verdict& v, const pipeline::Deliverable& bundle) {
  return v.passed && v.num_failures == 0 &&
         v.tests_run == static_cast<int>(bundle.suite.size());
}

/// Seeded tampered devices of the tampered-request bundle plus their
/// in-process validate_ip references. Records the quant.forward (both
/// bundles) and ip.make_device timings on the way.
std::vector<TamperCase> make_tamper_cases(const std::vector<Served>& served,
                                          const ServePlan& plan,
                                          std::uint64_t seed,
                                          std::vector<double>& make_device_s,
                                          std::vector<double>& forward_s,
                                          Checks& checks) {
  for (const Served& s : served) {
    // Whole-suite clean forward of the shipped artifact: the inference a
    // tampered request runs on its private device.
    validate::Int8Backend backend(s.bundle->qmodel);
    const Tensor batch = stack_batch(s.bundle->suite.inputs());
    std::vector<double> reps;
    for (int r = 0; r < 9; ++r) {
      const auto t0 = Clock::now();
      const std::vector<int> labels = backend.predict_clean(batch);
      reps.push_back(since(t0));
      if (r == 0) {
        checks.expect(labels == s.bundle->suite.golden_labels(),
                      s.path + ": clean forward == golden labels");
      }
    }
    forward_s.push_back(median(reps));
  }
  Rng rng(seed * 7919 + 17);
  const pipeline::Deliverable& bundle = *served[plan.tamper_bundle].bundle;
  std::vector<TamperCase> cases;
  for (int c = 0; c < plan.tamper_cases; ++c) {
    TamperCase tc;
    tc.bundle = plan.tamper_bundle;
    const auto t0 = Clock::now();
    auto device = pipeline::make_device(bundle, pipeline::BackendKind::kInt8);
    make_device_s.push_back(since(t0));
    auto* quantized = dynamic_cast<ip::QuantizedIp*>(device.get());
    DNNV_CHECK(quantized != nullptr, "int8 device is not a QuantizedIp");
    const auto memory = static_cast<std::uint64_t>(quantized->memory_size());
    for (int f = 0; f < plan.flips_per_case; ++f) {
      validate::CodeFault fault;
      fault.address = static_cast<std::size_t>(rng.uniform_u64(memory));
      fault.bit = 7;
      tc.faults.push_back(fault);
      quantized->flip_bit(fault.address, fault.bit);
    }
    tc.expected = validate::validate_ip(*device, bundle.suite,
                                        /*early_exit=*/true);
    cases.push_back(std::move(tc));
  }
  return cases;
}

/// Per-connection request sequences of one phase. Every connection gets the
/// same exact proportions (tampered share, clean requests split evenly over
/// the bundles) in a seeded order, so the cost of a phase does not depend on
/// how a draw happened to fall.
std::vector<std::vector<Request>> draw_mix(Rng& rng, const ServePlan& plan,
                                           int per_conn,
                                           std::size_t num_bundles) {
  const int tampered =
      static_cast<int>(std::lround(per_conn * plan.tamper_share));
  std::vector<std::vector<Request>> mix(
      static_cast<std::size_t>(plan.connections));
  for (auto& conn : mix) {
    for (int k = 0; k < per_conn; ++k) {
      Request r;
      if (k < tampered) {
        r.bundle = plan.tamper_bundle;
        r.tamper = static_cast<int>(rng.uniform_u64(
            static_cast<std::uint64_t>(plan.tamper_cases)));
      } else {
        r.bundle = static_cast<std::size_t>(k) % num_bundles;
      }
      conn.push_back(r);
    }
    for (std::size_t k = conn.size(); k > 1; --k) {
      std::swap(conn[k - 1], conn[rng.uniform_u64(k)]);
    }
  }
  return mix;
}

/// Releases all client threads at one instant (after their set-up).
class StartGate {
 public:
  explicit StartGate(std::size_t expected) : expected_(expected) {}

  Clock::time_point arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++ready_ == expected_) {
      start_ = Clock::now() + std::chrono::milliseconds(5);
      released_ = true;
      cv_.notify_all();
    }
    cv_.wait(lock, [this] { return released_; });
    return start_;
  }

  /// The release instant (valid once every thread has arrived).
  Clock::time_point start() {
    std::lock_guard<std::mutex> lock(mutex_);
    return start_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t expected_;
  std::size_t ready_ = 0;           // guarded by mutex_
  bool released_ = false;           // guarded by mutex_
  Clock::time_point start_;         // guarded by mutex_
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double seconds = 0.0;  ///< gate release to last completion
  std::vector<double> open_s;  ///< tampered-session open round trips
};

/// Drives one phase over TCP: `mix[c]` on connection c. rate > 0 is an open
/// loop (request k of connection c due at start + (k * C + c) / rate, timed
/// from that due time); rate == 0 is a closed loop.
PhaseResult run_tcp_phase(std::uint16_t port, const std::vector<Served>& served,
                          const std::vector<TamperCase>& cases,
                          const std::vector<std::vector<Request>>& mix,
                          double rate, Recorder& rec) {
  const std::size_t conns = mix.size();
  std::vector<std::vector<Outcome>> outcomes(conns);
  std::vector<std::vector<double>> open_s(conns);
  std::vector<Clock::time_point> finished(conns, Clock::now());
  StartGate gate(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      bool arrived = false;
      std::vector<Outcome>& out = outcomes[c];
      try {
        auto client = net::ValidationClient::connect("127.0.0.1", port);
        std::vector<std::uint32_t> sessions;
        for (const Served& s : served) {
          sessions.push_back(client.open(s.wire_id).session_id);
        }
        const Clock::time_point t0 = gate.arrive_and_wait();
        arrived = true;
        const auto& requests = mix[c];
        for (std::size_t k = 0; k < requests.size(); ++k) {
          const Request& r = requests[k];
          Clock::time_point due = Clock::now();
          if (rate > 0.0) {
            due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(k * conns + c) / rate));
            std::this_thread::sleep_until(due);
          }
          Outcome o;
          o.tampered = r.tamper >= 0;
          o.slot = k * conns + c;
          o.late_s = std::chrono::duration<double>(Clock::now() - due).count();
          const std::uint64_t op = rec.next_op();
          Scope req(rec, "serve.request", -1, op);
          try {
            const pipeline::Deliverable& bundle = *served[r.bundle].bundle;
            if (!o.tampered) {
              Scope s(rec, "net.submit", req.index(), op);
              o.ok = secure(client.validate(sessions[r.bundle]), bundle);
            } else {
              const TamperCase& tc = cases[static_cast<std::size_t>(r.tamper)];
              pipeline::SessionConfig config;
              config.backend = pipeline::BackendKind::kInt8;
              config.policy = pipeline::StreamPolicy::kEarlyExit;
              config.faults = tc.faults;
              std::uint32_t id = 0;
              {
                Scope s(rec, "net.open", req.index(), op);
                const auto t_open = Clock::now();
                id = client.open(served[r.bundle].wire_id, config).session_id;
                open_s[c].push_back(since(t_open));
              }
              validate::Verdict v;
              {
                Scope s(rec, "net.submit", req.index(), op);
                v = client.validate(id);
              }
              {
                Scope s(rec, "net.close", req.index(), op);
                client.close_session(id);
              }
              o.ok = same_verdict(v, tc.expected);
            }
          } catch (const std::exception& e) {
            std::cerr << "request failed: " << e.what() << "\n";
            o.ok = false;
          }
          o.latency_s =
              std::chrono::duration<double>(Clock::now() - due).count();
          out.push_back(o);
        }
        finished[c] = Clock::now();
        client.goodbye();
      } catch (const std::exception& e) {
        std::cerr << "connection " << c << " failed: " << e.what() << "\n";
        if (!arrived) (void)gate.arrive_and_wait();
        finished[c] = Clock::now();
      }
      // Requests never sent on a failed connection count as failed.
      for (std::size_t k = out.size(); k < mix[c].size(); ++k) {
        out.push_back({0.0, 0.0, mix[c][k].tamper >= 0, false, k * conns + c});
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult result;
  const Clock::time_point start = gate.start();
  Clock::time_point end = start;
  for (std::size_t c = 0; c < conns; ++c) {
    end = std::max(end, finished[c]);
    result.outcomes.insert(result.outcomes.end(), outcomes[c].begin(),
                           outcomes[c].end());
    result.open_s.insert(result.open_s.end(), open_s[c].begin(),
                         open_s[c].end());
  }
  result.seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

/// The closed-loop mix again, in-process on the server's own service (no
/// TCP): the baseline net.wire_p50_ms is measured against.
std::vector<double> run_inprocess_phase(
    pipeline::ValidationService& service, const std::vector<Served>& served,
    const std::vector<TamperCase>& cases,
    const std::vector<std::vector<Request>>& mix, Recorder& rec,
    Checks& checks) {
  std::vector<pipeline::DeliverableHandle> handles;
  for (const Served& s : served) handles.push_back(service.load_file(s.path, kKey));
  const std::size_t conns = mix.size();
  std::vector<std::vector<double>> latencies(conns);
  std::vector<int> wrong(conns, 0);
  StartGate gate(conns);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      bool arrived = false;
      try {
        std::vector<std::shared_ptr<pipeline::Session>> sessions;
        for (const auto& h : handles) {
          sessions.push_back(service.open_session(h));
          (void)sessions.back()->submit().get();
        }
        (void)gate.arrive_and_wait();
        arrived = true;
        for (const Request& r : mix[c]) {
          const std::uint64_t op = rec.next_op();
          const auto t0 = Clock::now();
          Scope s(rec, "service.submit", -1, op);
          bool ok = false;
          if (r.tamper < 0) {
            ok = secure(sessions[r.bundle]->submit().get(),
                        *served[r.bundle].bundle);
          } else {
            const TamperCase& tc = cases[static_cast<std::size_t>(r.tamper)];
            pipeline::SessionConfig config;
            config.backend = pipeline::BackendKind::kInt8;
            config.policy = pipeline::StreamPolicy::kEarlyExit;
            config.faults = tc.faults;
            auto session = service.open_session(handles[r.bundle], config);
            ok = same_verdict(session->submit().get(), tc.expected);
          }
          latencies[c].push_back(since(t0));
          wrong[c] += ok ? 0 : 1;
        }
      } catch (const std::exception& e) {
        std::cerr << "in-process client " << c << " failed: " << e.what()
                  << "\n";
        if (!arrived) (void)gate.arrive_and_wait();
        wrong[c] += 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<double> all;
  for (std::size_t c = 0; c < conns; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    checks.expect(wrong[c] == 0, "in-process verdicts on client " +
                                     std::to_string(c) + " all correct");
  }
  return all;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

const std::vector<std::string> kEndToEnd = {
    "setup_s", "vendor_s", "user_check_s", "coverage_pct", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "exp.zoo_load_s",       "data.pool_s",
    "quant.quantize_s",     "coverage.criterion_s",
    "testgen.generate_s",   "validate.label_s",
    "fault.enumerate_s",    "analysis.ranges_s",
    "analysis.classify_s",  "analysis.dominance_s",
    "fault.collapse_s",     "fault.simulate_s",
    "fault.matrix_s",       "analysis.verify_s",
    "pipeline.save_s",      "pipeline.unattributed_s",
    "fault.fault_tests_per_s",
    "pipeline.load_s",      "pipeline.validate_s",
    "coverage.remeasure_s", "pipeline.fault_coverage_s",
    "quant.forward_ms",     "ip.make_device_ms",
    "service.submit_p50_ms", "service.batches",
    "service.cache_hit_pct", "net.open_ms",
    "net.wire_p50_ms",      "net.rejected_busy",
    "net.peak_inflight",    "load.late_p99_ms",
    "serve_p50_ms",         "serve_p99_ms",
    "serve_rps",            "tamper_p50_ms",
    "testgen.tests",        "analysis.untestable",
    "analysis.dominated",   "analysis.pruned_pct",
    "fault.enumerated",     "fault.scored",
    "fault.detected",       "pipeline.bundle_bytes",
    "service.predicted",    "service.cache_served",
    "net.frames",           "detect_pct",
    "fail_pct",
    "trace.overhead_ms"};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Cost of one span open/close pair on this host, for the overhead estimate.
double span_cost_s() {
  Recorder scratch(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Scope s(scratch, "calibrate", -1, 0);
  return since(t0) / kSpans;
}

/// Loads (on a cold cache: trains) both zoo models once before set-up, so
/// training never lands in a measured set-up.
void prepare_zoo(const std::string& work_dir) {
  const auto t0 = Clock::now();
  const exp::ZooOptions zoo = zoo_options(work_dir, true);
  (void)exp::mnist_tanh(zoo);
  (void)exp::cifar_relu(zoo);
  std::cout << "zoo ready in " << since(t0) << " s (outside setup_s)\n";
}

int run(const CliArgs& args) {
  const bool quick = args.get_bool("quick", false);
  const Workload workload =
      workload_named(args.get_string("workload", ""), quick);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string work_dir = args.get_string("work-dir", ".bench_build/run");
  const std::string out_dir = work_dir + "/out";
  std::filesystem::create_directories(out_dir);
  const std::string tag = workload.name + "-" + std::to_string(seed);

  Recorder rec(traced);
  Checks checks;
  Report report;
  std::cout << "perfbench workload=" << workload.name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << (traced ? 1 : 0)
            << (quick ? " quick" : "") << "\n";

  prepare_zoo(work_dir);

  // ---- Set-up, several times; the last one's models and pools are used.
  const int setups = quick ? 1 : 3;
  const std::int64_t pool_size = quick ? 60 : kPoolSize;
  std::vector<double> setup_s, zoo_s, pool_s;
  std::vector<ModelCase> models;
  for (int i = 0; i < setups; ++i) {
    SetupTimes times;
    models = set_up(work_dir, seed, pool_size, times);
    zoo_s.push_back(times.zoo_s);
    pool_s.push_back(times.pool_s);
    setup_s.push_back(times.zoo_s + times.pool_s);
  }

  // ---- Vendor release + user check rounds.
  std::vector<double> vendor_s, user_s, load_s, validate_s, remeasure_s,
      fault_cov_s;
  std::vector<Release> releases(models.size());
  std::vector<FaultCounts> replica_counts(models.size());
  double detected = 0.0, scored = 0.0, covered = 0.0, points = 0.0;
  int identical_rounds = 0;
  for (int round = 0; round < workload.release_rounds; ++round) {
    double vendor_round = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      const ModelCase& model = models[m];
      const auto options =
          vendor_options(model.trained, workload.fault_budget, quick);
      Release release;
      release.path = out_dir + "/" + tag + "-" + model.trained.name + ".bin";
      try {
        const auto t0 = Clock::now();
        release.bundle = pipeline::VendorPipeline(options).run(
            model.trained.model, model.trained.item_shape,
            model.trained.num_classes, model.pool.images, &release.report);
        release.bundle.save_file(release.path, kKey);
        vendor_round += since(t0);
        checks.expect(true, "vendor release");
      } catch (const std::exception& e) {
        checks.error(model.trained.name + " vendor release (ship gate): " +
                     e.what());
        return 1;
      }
      release.bytes = read_bytes(release.path);
      if (round > 0) {
        const bool identical = release.bytes == releases[m].bytes;
        identical_rounds += identical ? 1 : 0;
        checks.expect(identical, model.trained.name +
                                     ": bundle bytes identical across rounds");
      }
      if (traced && round == 0) {
        replica_counts[m] =
            replay_vendor(model, options, release,
                          out_dir + "/" + tag + "-replica.bin", rec, checks);
      }
      releases[m] = std::move(release);
    }
    vendor_s.push_back(vendor_round);
    std::cout << "round " << round << ": vendor " << vendor_round << " s\n";

    for (int check = 0; check < workload.user_checks; ++check) {
      double user_round = 0.0;
      for (std::size_t m = 0; m < workload.user_bundles; ++m) {
        const Release& release = releases[m];
        const std::string& name = release.bundle.manifest.model_name;
        try {
          const std::uint64_t op = rec.next_op();
          Scope root(rec, "pipeline.user_check", -1, op);
          const auto t0 = Clock::now();
          auto t = Clock::now();
          std::unique_ptr<pipeline::UserValidator> user;
          {
            Scope s(rec, "pipeline.load", root.index(), op);
            user = std::make_unique<pipeline::UserValidator>(
                pipeline::UserValidator::load_file(release.path, kKey));
          }
          load_s.push_back(since(t));
          t = Clock::now();
          validate::Verdict verdict;
          {
            Scope s(rec, "pipeline.validate", root.index(), op);
            verdict = user->validate();
          }
          validate_s.push_back(since(t));
          t = Clock::now();
          pipeline::SuiteCoverage coverage;
          {
            Scope s(rec, "coverage.remeasure", root.index(), op);
            coverage = user->suite_coverage();
          }
          remeasure_s.push_back(since(t));
          t = Clock::now();
          fault::FaultQualification remeasured;
          {
            Scope s(rec, "pipeline.fault_coverage", root.index(), op);
            remeasured = user->fault_coverage();
          }
          fault_cov_s.push_back(since(t));
          user_round += since(t0);

          const auto& manifest = user->deliverable().manifest;
          checks.expect(secure(verdict, user->deliverable()),
                        name + ": intact device validates SECURE");
          checks.expect(remeasured.scored == manifest.fault_universe &&
                            remeasured.detected == manifest.fault_detected,
                        name + ": user re-measure reproduces the manifest's "
                               "fault_universe/fault_detected");
          const auto& vendor = release.report.fault_stats;
          checks.expect(remeasured.enumerated == vendor.enumerated &&
                            remeasured.untestable == vendor.untestable &&
                            remeasured.dominated == vendor.dominated,
                        name + ": user fault counts == vendor fault counts");
          checks.expect(coverage.map.bits() == release.report.covered,
                        name + ": user coverage re-measure == vendor coverage");
        } catch (const std::exception& e) {
          checks.error(name + " user check: " + e.what());
        }
      }
      user_s.push_back(user_round);
      std::cout << "  user check " << check << ": " << user_round << " s\n";
    }
    detected = scored = covered = points = 0.0;
    for (const Release& release : releases) {
      detected += static_cast<double>(release.bundle.manifest.fault_detected);
      scored += static_cast<double>(release.bundle.manifest.fault_universe);
      covered += static_cast<double>(release.report.covered.count());
      points += static_cast<double>(release.report.covered.size());
    }
  }
  if (workload.release_rounds > 1) {
    std::cout << "bundle bytes: " << identical_rounds << " of "
              << (workload.release_rounds - 1) * models.size()
              << " later-round bundles identical to round 0\n";
  }

  // ---- Serving pass(es) over loopback TCP.
  const ServePlan plan = serve_plan(quick);
  std::vector<Served> served;
  for (const Release& r : releases) served.push_back({r.path, &r.bundle, 0});
  std::vector<double> make_device_s, forward_s;
  const std::vector<TamperCase> cases = make_tamper_cases(
      served, plan, seed, make_device_s, forward_s, checks);
  int tampered_detected = 0, tampered_tests = 0;
  for (const TamperCase& tc : cases) {
    tampered_detected += tc.expected.passed ? 0 : 1;
    tampered_tests += tc.expected.tests_run;
  }
  std::cout << "tampered devices: " << cases.size() << ", "
            << tampered_detected << " detected, " << tampered_tests
            << " tests replayed by the early-exit references\n";

  net::ServerConfig server_config;
  server_config.max_connections = static_cast<std::size_t>(plan.connections) + 2;
  net::ValidationServer server(server_config);
  for (Served& s : served) s.wire_id = server.preload(s.path, kKey);
  {
    // Fill both bundles' shared lane label caches once, so every measured
    // clean request is served from the cache and the exact counts never
    // depend on which connection asked first.
    auto client = net::ValidationClient::connect("127.0.0.1", server.port());
    for (const Served& s : served) {
      checks.expect(
          secure(client.validate(client.open(s.wire_id).session_id), *s.bundle),
          s.path + ": warm-up validation SECURE");
    }
    client.goodbye();
  }

  std::vector<Outcome> open_outcomes;
  // Open-loop p50s per pass: the reported p50s are their medians, so a
  // pass that meets a stall of the host does not set them.
  std::vector<double> window_p99_ms, pass_p50_ms, pass_tamper_p50_ms;
  std::vector<double> rps, open_s, closed_latency;
  std::uint64_t predicted = 0, cache_served = 0, batches = 0, frames = 0;
  const auto serve_start = Clock::now();
  std::vector<std::vector<Request>> last_closed_mix;
  for (int pass = 0;; ++pass) {
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(pass));
    const auto vs0 = server.service().stats();
    const auto ns0 = server.stats();
    // Closed-loop phases first: their median throughput sets the rate of
    // the open loop that follows.
    std::vector<PhaseResult> closed;
    std::vector<double> pass_rps;
    std::cout << "pass " << pass << ": closed-loop rps";
    for (int k = 0; k < plan.closed_phases; ++k) {
      last_closed_mix =
          draw_mix(rng, plan, plan.closed_per_conn, served.size());
      closed.push_back(run_tcp_phase(server.port(), served, cases,
                                     last_closed_mix, 0.0, rec));
      pass_rps.push_back(static_cast<double>(closed.back().outcomes.size()) /
                         closed.back().seconds);
      std::cout << " " << pass_rps.back();
    }
    rps.insert(rps.end(), pass_rps.begin(), pass_rps.end());
    const double rate = plan.load_share * median(pass_rps);
    std::cout << "; open loop at " << rate << " req/s\n";
    std::vector<PhaseResult> phases;
    phases.push_back(run_tcp_phase(
        server.port(), served, cases,
        draw_mix(rng, plan, plan.open_requests / plan.connections,
                 served.size()),
        rate, rec));
    for (PhaseResult& phase : closed) phases.push_back(std::move(phase));
    const auto vs1 = server.service().stats();
    const auto ns1 = server.stats();
    if (pass == 0) {
      predicted = vs1.predicted - vs0.predicted;
      cache_served = vs1.cache_served - vs0.cache_served;
      batches = vs1.batches - vs0.batches;
      frames = ns1.requests - ns0.requests;
    }
    std::vector<std::vector<double>> windows(static_cast<std::size_t>(
        (plan.open_requests + plan.p99_window - 1) / plan.p99_window));
    for (const Outcome& o : phases[0].outcomes) {
      windows[o.slot / static_cast<std::size_t>(plan.p99_window)].push_back(
          o.latency_s * 1e3);
    }
    for (const auto& window : windows) {
      window_p99_ms.push_back(quantile(window, 0.99));
    }
    std::vector<double> pass_ms, pass_tamper_ms;
    for (const Outcome& o : phases[0].outcomes) {
      pass_ms.push_back(o.latency_s * 1e3);
      if (o.tampered) pass_tamper_ms.push_back(o.latency_s * 1e3);
    }
    pass_p50_ms.push_back(median(pass_ms));
    pass_tamper_p50_ms.push_back(median(pass_tamper_ms));
    for (std::size_t p = 0; p < phases.size(); ++p) {
      for (const Outcome& o : phases[p].outcomes) {
        checks.expect(o.ok, std::string(o.tampered ? "tampered" : "clean") +
                                " request verdict");
        if (p == 0) {
          open_outcomes.push_back(o);
        } else {
          closed_latency.push_back(o.latency_s);
        }
      }
      open_s.insert(open_s.end(), phases[p].open_s.begin(),
                    phases[p].open_s.end());
    }
    if (traced || !workload.repeat_serve ||
        !another_fits(since(serve_start), pass + 1, seconds)) {
      break;
    }
  }
  std::vector<double> inprocess_latency;
  if (traced) {
    inprocess_latency = run_inprocess_phase(server.service(), served, cases,
                                            last_closed_mix, rec, checks);
  }
  const auto final_net = server.stats();
  server.stop();

  // ---- End-to-end metrics.
  std::vector<double> latency_ms, tamper_ms, late_ms;
  for (const Outcome& o : open_outcomes) {
    latency_ms.push_back(o.latency_s * 1e3);
    late_ms.push_back(o.late_s * 1e3);
    if (o.tampered) tamper_ms.push_back(o.latency_s * 1e3);
  }
  report.timing("setup_s", "s", setup_s);
  report.timing("vendor_s", "s", vendor_s);
  report.timing("user_check_s", "s", user_s);
  report.exact("detect_pct", "%", scored > 0 ? 100.0 * detected / scored : 0.0);
  report.exact("coverage_pct", "%", points > 0 ? 100.0 * covered / points : 0.0);
  report.timing("serve_rps", "1/s", rps);
  report.derived("serve_p50_ms", "ms", median(pass_p50_ms), latency_ms);
  report.timing("serve_p99_ms", "ms", window_p99_ms);
  report.derived("tamper_p50_ms", "ms", median(pass_tamper_p50_ms),
                 tamper_ms);
  report.timing("peak_rss_mb", "MB", {peak_rss_mb()});

  // ---- Per-layer metrics (traced run).
  if (traced) {
    const auto spans = rec.spans();
    auto self = perfbench::self_by_name(spans);
    auto to_ms = [](std::vector<double> v) {
      for (double& x : v) x *= 1e3;
      return v;
    };
    report.timing("exp.zoo_load_s", "s", zoo_s);
    report.timing("data.pool_s", "s", pool_s);
    double stages = 0.0;
    for (const auto& [span, metric] :
         std::vector<std::pair<std::string, std::string>>{
             {"quant.quantize", "quant.quantize_s"},
             {"coverage.criterion", "coverage.criterion_s"},
             {"testgen.generate", "testgen.generate_s"},
             {"validate.label", "validate.label_s"},
             {"fault.enumerate", "fault.enumerate_s"},
             {"analysis.ranges", "analysis.ranges_s"},
             {"analysis.classify", "analysis.classify_s"},
             {"analysis.dominance", "analysis.dominance_s"},
             {"fault.collapse", "fault.collapse_s"},
             {"fault.simulate", "fault.simulate_s"},
             {"fault.matrix", "fault.matrix_s"},
             {"analysis.verify", "analysis.verify_s"},
             {"pipeline.save", "pipeline.save_s"}}) {
      stages += self[span];
      report.derived(metric, "s", self[span], perfbench::durations(spans, span));
    }
    report.derived("pipeline.unattributed_s", "s", vendor_s.front() - stages,
                   {});
    double fault_tests = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      fault_tests += static_cast<double>(replica_counts[m].scored) *
                     static_cast<double>(releases[m].bundle.suite.size());
    }
    report.derived("fault.fault_tests_per_s", "1/s",
                   fault_tests / self["fault.simulate"], {});
    // User-side spans: self time per user check (summed over the bundles).
    const double rounds = workload.release_rounds * workload.user_checks;
    report.derived("pipeline.load_s", "s", self["pipeline.load"] / rounds,
                   load_s);
    report.derived("pipeline.validate_s", "s",
                   self["pipeline.validate"] / rounds, validate_s);
    report.derived("coverage.remeasure_s", "s",
                   self["coverage.remeasure"] / rounds, remeasure_s);
    report.derived("pipeline.fault_coverage_s", "s",
                   self["pipeline.fault_coverage"] / rounds, fault_cov_s);
    report.derived("quant.forward_ms", "ms", sum(to_ms(forward_s)), {});
    report.timing("ip.make_device_ms", "ms", to_ms(make_device_s));
    report.timing("service.submit_p50_ms", "ms", to_ms(inprocess_latency));
    report.exact("service.batches", "count", static_cast<double>(batches));
    report.exact("service.cache_hit_pct", "%",
                 100.0 * static_cast<double>(cache_served) /
                     static_cast<double>(cache_served + predicted));
    report.timing("net.open_ms", "ms", to_ms(open_s));
    report.derived("net.wire_p50_ms", "ms",
                   (median(closed_latency) - median(inprocess_latency)) * 1e3,
                   {});
    report.exact("net.rejected_busy", "count",
                 static_cast<double>(final_net.rejected_busy));
    // A gauge, not an exact count: a pipelined submit can race the
    // server's accounting of the previous verdict.
    report.derived("net.peak_inflight", "count",
                   static_cast<double>(final_net.peak_inflight_submits), {});
    report.derived("load.late_p99_ms", "ms", quantile(late_ms, 0.99), late_ms);

    double tests = 0, untestable = 0, dominated = 0, enumerated = 0,
           fscored = 0, fdetected = 0, bytes = 0;
    std::cout << "\nfault counts, facade (shipped) | replica (interval):\n";
    for (std::size_t m = 0; m < models.size(); ++m) {
      const Release& r = releases[m];
      const FaultCounts f = counts_of(r.report.fault_stats);
      const FaultCounts& p = replica_counts[m];
      std::cout << "  " << r.bundle.manifest.model_name << ": enumerated "
                << f.enumerated << " | " << p.enumerated << ", untestable "
                << f.untestable << " | " << p.untestable << ", dominated "
                << f.dominated << " | " << p.dominated << ", scored "
                << f.scored << " | " << p.scored << ", detected "
                << f.detected << " | " << p.detected << "\n";
      tests += static_cast<double>(r.bundle.suite.size());
      untestable += static_cast<double>(f.untestable);
      dominated += static_cast<double>(f.dominated);
      enumerated += static_cast<double>(f.enumerated);
      fscored += static_cast<double>(f.scored);
      fdetected += static_cast<double>(f.detected);
      bytes += static_cast<double>(r.bytes.size());
    }
    report.exact("testgen.tests", "count", tests);
    report.exact("analysis.untestable", "count", untestable);
    report.exact("analysis.dominated", "count", dominated);
    report.exact("analysis.pruned_pct", "%",
                 100.0 * (untestable + dominated) / enumerated);
    report.exact("fault.enumerated", "count", enumerated);
    report.exact("fault.scored", "count", fscored);
    report.exact("fault.detected", "count", fdetected);
    report.exact("pipeline.bundle_bytes", "B", bytes);
    report.exact("service.predicted", "count", static_cast<double>(predicted));
    report.exact("service.cache_served", "count",
                 static_cast<double>(cache_served));
    report.exact("net.frames", "count", static_cast<double>(frames));
    report.exact("fail_pct", "%",
                 100.0 * static_cast<double>(checks.failed()) /
                     static_cast<double>(std::max<std::int64_t>(
                         1, checks.attempted())));
    const std::string spans_path = out_dir + "/spans-" + tag + ".jsonl";
    checks.expect(rec.write_jsonl(spans_path), "spans written to " + spans_path);
    report.derived("trace.overhead_ms", "ms",
                   static_cast<double>(rec.size()) * span_cost_s() * 1e3, {});
  }
  // The bundles are rebuilt by every run; only the span file is kept.
  std::filesystem::remove(out_dir + "/" + tag + "-replica.bin");
  for (const Release& r : releases) std::filesystem::remove(r.path);

  std::cout << "\n";
  report.print(std::cout);
  std::cout << "\nchecks: " << checks.attempted() << " attempted, "
            << checks.failed() << " failed\n";
  const bool correct = checks.failed() == 0;
  std::cout << report.json(correct, checks.attempted(), checks.failed(),
                           traced ? kPerLayer : kEndToEnd)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"workload", "seed", "seconds", "trace", "work-dir",
                        "quick"});
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
