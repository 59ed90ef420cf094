// ATPG oracle: checks PODEM's verdicts against fault simulation.
//
// Every fault is run through Podem::generate, and each verdict is checked by
// a simulator that shares no code with PODEM's implication:
//  - kDetected: the cube must detect its target under fill-0, fill-1 and two
//    random fills, each graded by the one-fault-at-a-time fault_grade_ref.
//    A cube that needs its don't-care bits filled a particular way is wrong.
//  - kUntestable: on a design with at most kExhaustiveVars test variables,
//    every S1 is enumerated through FaultSimulator::grade, and no S1 may
//    detect the fault. Larger designs get a spot check with kSpotPatterns
//    random S1s instead -- a test that can miss, not a proof.
// kAborted makes no claim.
// Every kReplayStride-th verdict is also replayed on a second Podem whose
// history differs (extends and other generates in between): generate() is
// pure, so status and cube must come out identical. The ATPG engine's
// speculative parallel search relies on that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/fault.h"
#include "netlist/netlist.h"
#include "ref/compare.h"

namespace scap::ref {

inline constexpr std::size_t kExhaustiveVars = 16;
inline constexpr std::size_t kSpotPatterns = 1024;
inline constexpr std::size_t kReplayStride = 4;

/// What the oracle checked.
struct AtpgCoverage {
  std::size_t cubes = 0;       ///< detected cubes checked under four fills
  std::size_t untestable = 0;  ///< untestable claims checked
  std::size_t untestable_exhaustive = 0;  ///< ... of them against every S1
  std::size_t replays = 0;     ///< verdicts replayed on a dirty Podem

  void add(const AtpgCoverage& o) {
    cubes += o.cubes;
    untestable += o.untestable;
    untestable_exhaustive += o.untestable_exhaustive;
    replays += o.replays;
  }
};

struct AtpgCheck {
  AtpgCoverage coverage;
  std::vector<Divergence> divergences;  ///< oracle "atpg"
};

/// Run PODEM (default options) on every fault and check each verdict.
/// `seed` drives the random fills and the spot-check S1s.
AtpgCheck check_atpg(const Netlist& nl, const TestContext& ctx,
                     std::span<const TdfFault> faults, std::uint64_t seed);

}  // namespace scap::ref
