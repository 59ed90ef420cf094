// Pattern validation (paper Section 3.2).
//
// Two services:
//  - scap_profile: the bulk screen -- per-pattern SCAP reports for a whole
//    pattern set (the data behind Figures 2 and 6).
//  - validate_pattern_ir: the expensive two-simulation debug flow for one
//    suspect pattern -- nominal timing simulation, dynamic IR-drop analysis
//    of its toggle trace, then a re-simulation with every cell delay scaled
//    by its local droop (ScaledCellDelay = Delay * (1 + k_volt * dV)) and
//    clock-buffer delays scaled the same way, producing the per-endpoint
//    delay comparison of Figure 7.
#pragma once

#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/engine.h"
#include "core/thresholds.h"
#include "atpg/pattern.h"
#include "core/pattern_sim.h"
#include "netlist/tech_library.h"
#include "power/dynamic_ir.h"
#include "power/power_grid.h"
#include "soc/generator.h"

namespace scap {

/// Per-pattern SCAP reports for the whole set (in pattern order).
std::vector<ScapReport> scap_profile(const SocDesign& soc,
                                     const TechLibrary& lib,
                                     const TestContext& ctx,
                                     const PatternSet& patterns);

/// Span form of scap_profile, shared with the repair flow: analyzes every
/// pattern (timing sim -> toggle trace -> SCAP) fanned out across the rt
/// pool, one shard of patterns per task with a shard-private PatternAnalyzer.
/// Report i depends only on pattern i, so the output is bit-identical at any
/// SCAP_THREADS.
std::vector<ScapReport> scap_profile_patterns(const SocDesign& soc,
                                              const TechLibrary& lib,
                                              const TestContext& ctx,
                                              std::span<const Pattern> patterns);

/// Two-tier threshold screen. Tier 1 bounds every pattern's hot-block SCAP
/// statically (PatternAnalyzer::screen_static -- no event simulation); only
/// patterns whose *bound* exceeds the threshold are event-simulated for the
/// exact verdict. Because the bound is sound (bound <= threshold implies
/// exact <= threshold), the verdicts are identical to exactly screening every
/// pattern, and bit-identical at any SCAP_THREADS; the patterns the bound
/// clears just never pay for a simulation. How many it clears depends on the
/// fill: about half of a quiet-filled set (0.54 of paper_flow's power-aware
/// set and 0.42 of repair_retrofit's repaired set in scapbench at seed 2007),
/// none of a random-fill set.
struct ScapScreenResult {
  std::vector<std::uint8_t> violates;  ///< exact per-pattern verdicts
  std::size_t statically_clean = 0;    ///< tier-1 proven clean (sim skipped)
  std::size_t event_simmed = 0;        ///< tier-2 exact screens run

  std::size_t count_violations() const {
    std::size_t n = 0;
    for (auto v : violates) n += v;
    return n;
  }
};

ScapScreenResult scap_screen_patterns(const SocDesign& soc,
                                      const TechLibrary& lib,
                                      const TestContext& ctx,
                                      std::span<const Pattern> patterns,
                                      const ScapThresholds& thresholds,
                                      std::size_t hot_block);

struct IrValidationResult {
  PatternAnalysis nominal;
  DynamicIrReport ir;
  PatternAnalysis scaled;
  std::vector<double> nominal_arrival_ns;  ///< per-flop clock arrivals
  std::vector<double> scaled_arrival_ns;
  std::vector<double> nominal_endpoint_ns;  ///< per-flop path delays
  std::vector<double> scaled_endpoint_ns;
};

IrValidationResult validate_pattern_ir(const SocDesign& soc,
                                       const TechLibrary& lib,
                                       const PowerGrid& grid,
                                       const TestContext& ctx,
                                       const Pattern& pattern);

/// Identify-and-replace repair loop: drop every pattern whose SCAP violates
/// the hot block's threshold, then regenerate coverage for the faults those
/// patterns uniquely detected using a throttled, quiet-filled ATPG pass.
/// Tightens the care budget each round until the set is clean or
/// `max_rounds` is exhausted (reference [18]'s verify-and-fix flow, closed
/// into a loop).
struct RepairResult {
  PatternSet patterns;
  std::size_t patterns_before = 0;
  std::size_t patterns_after = 0;
  std::size_t violations_before = 0;
  std::size_t violations_after = 0;
  std::size_t detected_before = 0;
  std::size_t detected_after = 0;
  std::size_t rounds = 0;
};

RepairResult repair_scap_violations(const SocDesign& soc,
                                    const TechLibrary& lib,
                                    const TestContext& ctx,
                                    std::span<const TdfFault> faults,
                                    const PatternSet& patterns,
                                    const ScapThresholds& thresholds,
                                    std::size_t hot_block, AtpgOptions opt,
                                    std::size_t max_rounds = 3);

}  // namespace scap
