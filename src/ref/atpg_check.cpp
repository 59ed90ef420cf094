#include "ref/atpg_check.h"

#include <string>

#include "atpg/fault_sim.h"
#include "atpg/pattern.h"
#include "atpg/podem.h"
#include "ref/ref_models.h"
#include "util/rng.h"

namespace scap::ref {

namespace {

constexpr std::size_t kNoPattern = static_cast<std::size_t>(-1);

/// Every S1 of a small design, or kSpotPatterns random ones.
std::vector<Pattern> untestable_probes(std::size_t num_vars, Rng& rng,
                                       bool exhaustive) {
  std::vector<Pattern> out;
  if (exhaustive) {
    out.resize(std::size_t{1} << num_vars);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].s1.resize(num_vars);
      for (std::size_t v = 0; v < num_vars; ++v) {
        out[i].s1[v] = static_cast<std::uint8_t>((i >> v) & 1);
      }
    }
    return out;
  }
  out.resize(kSpotPatterns);
  for (Pattern& p : out) {
    p.s1.resize(num_vars);
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  }
  return out;
}

}  // namespace

AtpgCheck check_atpg(const Netlist& nl, const TestContext& ctx,
                     std::span<const TdfFault> faults, std::uint64_t seed) {
  AtpgCheck out;
  Rng rng(seed);
  Podem podem(nl, ctx);
  Podem dirty(nl, ctx);
  std::vector<TdfFault> untestable;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TdfFault& f = faults[i];
    TestCube cube;
    const PodemStatus st = podem.generate(f, cube);
    if (i % kReplayStride == 0) {
      ++out.coverage.replays;
      TestCube again;
      const PodemStatus st2 = dirty.generate(f, again);
      if (st2 != st || (st == PodemStatus::kDetected && again.s1 != cube.s1)) {
        out.divergences.push_back(
            {"atpg",
             "generate is not pure: " + describe_fault(nl, f) +
                 (st2 != st ? " gets another status"
                            : " gets another cube") +
                 " on a Podem with another history",
             kNoPattern});
      }
      // Leave assignments, extension attempts and backtracks behind for the
      // next replay.
      for (std::size_t k = 1; k <= 2 && i + k < faults.size(); ++k) {
        dirty.extend(faults[i + k], again);
      }
    }
    switch (st) {
      case PodemStatus::kAborted:
        continue;
      case PodemStatus::kUntestable:
        untestable.push_back(f);
        continue;
      case PodemStatus::kDetected:
        break;
    }
    ++out.coverage.cubes;
    constexpr FillMode kFills[] = {FillMode::kFill0, FillMode::kFill1,
                                   FillMode::kRandom, FillMode::kRandom};
    constexpr const char* kFillNames[] = {"fill-0", "fill-1", "random fill 1",
                                          "random fill 2"};
    for (std::size_t k = 0; k < 4; ++k) {
      const Pattern p = apply_fill(cube, kFills[k], rng);
      if (fault_grade_ref(nl, ctx, {&p, 1}, {&f, 1})[0] == kRefUndetected) {
        out.divergences.push_back(
            {"atpg",
             "cube for " + describe_fault(nl, f) + " (" +
                 std::to_string(cube.care_bits()) +
                 " care bits) misses it under " + kFillNames[k],
             kNoPattern});
        break;
      }
    }
  }

  if (untestable.empty()) return out;
  const bool exhaustive = ctx.num_vars() <= kExhaustiveVars;
  out.coverage.untestable = untestable.size();
  out.coverage.untestable_exhaustive = exhaustive ? untestable.size() : 0;
  const std::vector<Pattern> probes =
      untestable_probes(ctx.num_vars(), rng, exhaustive);
  FaultSimulator fsim(nl, ctx);
  const std::vector<std::size_t> first = fsim.grade(probes, untestable);
  for (std::size_t i = 0; i < untestable.size(); ++i) {
    if (first[i] == FaultSimulator::kUndetected) continue;
    out.divergences.push_back(
        {"atpg",
         "false untestable: " + describe_fault(nl, untestable[i]) +
             " is detected by S1 #" + std::to_string(first[i]) +
             (exhaustive ? " of the exhaustive set" : " of the spot check"),
         first[i]});
  }
  return out;
}

}  // namespace scap::ref
