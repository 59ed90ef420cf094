// Differential fuzzing harness: run Scenario recipes through the optimized
// kernels and their src/ref oracles, diff the results, and greedily shrink
// any divergence to a minimal committed repro.
//
// The three layers compose:
//   run_scenario   -- one scenario, one verdict (list of divergences);
//   shrink_scenario-- divergence-preserving minimization of one scenario;
//   run_fuzz       -- a seeded campaign of random scenarios, shrinking and
//                     serializing each failure to a corpus directory.
// run_self_test proves the harness end to end by injecting known bugs into
// the optimized side and checking each is caught and shrunk to a tiny repro.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "ref/atpg_check.h"
#include "ref/compare.h"
#include "ref/scenario.h"
#include "soc/generator.h"

namespace scap::ref {

/// The materialized front half of run_scenario: the SOC, test context and
/// pattern list a Scenario recipe decodes to. Exported so other harnesses
/// (the dataflow calibration tests, notably) can replay corpus scenarios
/// against different engines without duplicating the recipe decoding.
struct ScenarioSetup {
  TechLibrary lib;
  SocDesign soc;
  TestContext ctx;
  std::vector<Pattern> patterns;
};

ScenarioSetup materialize_scenario(const Scenario& sc);

/// Deliberate defects injected into the *optimized* side of the comparison
/// (never into the references), used by the self-test to prove the harness
/// detects and shrinks real bugs.
enum class InjectedBug : std::uint8_t {
  kNone,
  kStwWindowOffByOne,  ///< SCAP switching window stretched by ~one gate delay
  kDropLastToggle,     ///< trace loses its final toggle
  kGradeOffByOne,      ///< every first-detect pattern index shifted by one
};

const char* injected_bug_name(InjectedBug b);

struct ScenarioResult {
  std::vector<Divergence> divergences;  ///< empty = all enabled oracles agree
  AtpgCoverage atpg;  ///< all zero when check_atpg is off
  bool ok() const { return divergences.empty(); }
};

/// Run one scenario end to end: build the SOC, run every enabled
/// optimized-vs-reference pair, and collect divergences (engine exceptions
/// are reported as an "exception" divergence rather than thrown).
ScenarioResult run_scenario(const Scenario& sc,
                            InjectedBug inject = InjectedBug::kNone);

struct ShrinkResult {
  Scenario minimal;
  Divergence divergence;  ///< first divergence of the minimal scenario
  std::size_t runs = 0;   ///< scenario executions spent
};

/// Greedy divergence-preserving minimization: repeatedly try to disable
/// checks, drop patterns, zero the droop, and halve the SOC / mesh / fault
/// sample, keeping each mutation only if the scenario still diverges.
ShrinkResult shrink_scenario(const Scenario& sc,
                             InjectedBug inject = InjectedBug::kNone);

struct FuzzOptions {
  std::size_t iterations = 100;
  std::uint64_t seed = 1;
  std::string corpus_dir;  ///< where shrunk repros land; empty = don't write
  bool shrink = true;
  std::size_t max_failures = 1;  ///< stop the campaign after this many
};

struct FailureReport {
  Scenario scenario;  ///< shrunk (original when shrinking is disabled)
  Divergence divergence;
  std::uint64_t seed = 0;    ///< fuzz seed that produced the failure
  std::string corpus_path;   ///< repro file written, if any
};

struct FuzzStats {
  std::size_t executed = 0;  ///< scenarios run (shrinking excluded)
  AtpgCoverage atpg;         ///< summed over the executed scenarios
  std::vector<FailureReport> failures;
  bool ok() const { return failures.empty(); }
};

/// Seeded fuzz campaign over Scenario::random(seed + i).
FuzzStats run_fuzz(const FuzzOptions& opt, std::ostream* log = nullptr,
                   InjectedBug inject = InjectedBug::kNone);

/// Harness self-test: for each InjectedBug, find a scenario that is clean
/// without the bug, diverges with it, and shrinks to a repro of at most
/// `max_repro_patterns` patterns. Returns true when every bug passes.
bool run_self_test(std::ostream* log = nullptr,
                   std::size_t max_repro_patterns = 3);

}  // namespace scap::ref
