// The single-file vendor→user bundle of paper Fig 1.
//
// Everything the IP vendor releases travels in one protected container: the
// model (the IP itself), the int8 artifact when the suite was qualified on
// the integer engine, the functional-test suite (X, Y), and a manifest
// recording how the suite was produced. The byte stream is obfuscated with
// the release key and CRC-32-footed, so in-transit corruption is detected
// before any validation runs and the tests are not readable without the key
// (paper: "X and Y are encrypted").
#ifndef DNNV_PIPELINE_DELIVERABLE_H_
#define DNNV_PIPELINE_DELIVERABLE_H_

#include <cstdint>
#include <string>

#include "coverage/criterion.h"
#include "fault/qualify.h"
#include "nn/sequential.h"
#include "quant/quant_model.h"
#include "util/serialize.h"
#include "validate/test_suite.h"

namespace dnnv::pipeline {

/// Provenance record shipped with the bundle.
struct Manifest {
  std::string model_name;  ///< vendor's model identifier
  std::string method;      ///< testgen registry name that generated X
  std::string backend;     ///< validate backend name Y was qualified on
  /// Coverage registry name the suite was selected/measured under, plus the
  /// criterion's effective knobs (calibrated ranges materialised) — enough
  /// for the user side to rebuild the EXACT criterion without the vendor's
  /// pool and re-measure the shipped suite.
  std::string criterion = "parameter";
  cov::CriterionConfig criterion_config;
  std::int64_t num_tests = 0;
  double coverage = 0.0;   ///< criterion coverage at generation time

  /// Fault-qualification provenance (manifest v3). fault_model is the
  /// universe preset the vendor scored under ("" = no fault stage); the
  /// effective UniverseConfig ships alongside so the user side regenerates
  /// the IDENTICAL fault list from the shipped artifact and re-measures the
  /// detection numbers below.
  std::string fault_model;
  fault::UniverseConfig fault_config;
  std::int64_t fault_universe = 0;  ///< collapsed universe size scored
  std::int64_t fault_detected = 0;  ///< faults the shipped suite detects

  /// Static-analysis provenance (manifest v4, kept in v5): faults dropped
  /// before simulation because a kept representative provably detects them.
  /// The user side re-runs the same interval analysis, so fault_coverage
  /// reproduces this count exactly.
  std::int64_t fault_dominated = 0;

  void save(ByteWriter& writer) const;
  static Manifest load(ByteReader& reader);

  /// "mnist: 50 'combined' tests qualified on 'int8', 'parameter' coverage
  /// 93.1%" one-liner.
  std::string summary() const;
};

/// The release bundle (move-only: it owns a Sequential).
class Deliverable {
 public:
  nn::Sequential model;         ///< the shipped IP (float master)
  bool has_quant = false;       ///< int8 artifact present
  quant::QuantModel qmodel;     ///< valid iff has_quant
  validate::TestSuite suite;    ///< (X, Y) qualified on manifest.backend
  Manifest manifest;

  void save(ByteWriter& writer) const;
  static Deliverable load(ByteReader& reader);

  /// Serialises, obfuscates with `key`, appends a CRC-32 footer over the
  /// obfuscated payload and writes one file.
  void save_file(const std::string& path, std::uint64_t key) const;

  /// Verifies magic/version/CRC, de-obfuscates, parses, and (by default)
  /// runs the IR verifier over the parsed bundle; throws dnnv::Error on
  /// corruption, truncation, a wrong key, or verifier errors. `verify =
  /// false` skips the semantic gate — the --lint path, which wants the
  /// findings list instead of an exception.
  static Deliverable load_file(const std::string& path, std::uint64_t key,
                               bool verify = true);
};

/// Per-criterion coverage of a shipped suite, re-measured on the user side.
struct SuiteCoverage {
  std::string criterion;    ///< manifest criterion name
  std::string description;  ///< rebuilt criterion's describe()
  cov::CoverageMap map;     ///< points the suite covers

  double fraction() const { return map.fraction(); }
};

/// Rebuilds the manifest's criterion (name + effective config) against the
/// shipped artifact — the int8 model's dequantized reference when one was
/// shipped, the float master otherwise — and measures the bundled suite
/// under it. This is how UserValidator / ValidationService report what a
/// received suite actually exercises, without the vendor's pool.
SuiteCoverage suite_coverage(const Deliverable& deliverable);

/// Re-runs the manifest's fault qualification on the user side: regenerates
/// the universe from the shipped int8 artifact + UniverseConfig (bit-for-bit
/// the vendor's list — enumeration is deterministic) and scores the bundled
/// suite with the batched simulator. An intact bundle reproduces the
/// manifest's fault_universe/fault_detected exactly; requires
/// manifest.fault_model to be set.
fault::FaultQualification fault_coverage(const Deliverable& deliverable);

}  // namespace dnnv::pipeline

#endif  // DNNV_PIPELINE_DELIVERABLE_H_
