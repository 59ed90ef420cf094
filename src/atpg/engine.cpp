#include "atpg/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <mutex>
#include <optional>

#include "atpg/quiet_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/parallel.h"

namespace scap {

AtpgResult AtpgEngine::run(std::span<const TdfFault> faults,
                           const AtpgOptions& opt,
                           std::vector<FaultStatus>* status) {
  SCAP_TRACE_SCOPE("atpg.run");
  // This run's own outcomes (status may arrive pre-seeded by earlier steps).
  std::uint64_t run_detected = 0, run_aborted = 0, run_untestable = 0;
  std::uint64_t run_merges = 0;
  const Netlist& nl = *nl_;
  AtpgResult result;
  result.patterns.domain = ctx_->domain;

  std::vector<FaultStatus> local_status;
  std::vector<FaultStatus>& st = status ? *status : local_status;
  if (st.size() != faults.size()) {
    st.assign(faults.size(), FaultStatus::kUndetected);
  }

  // Which faults may serve as primary PODEM targets this run.
  std::vector<std::uint8_t> targetable(faults.size(), 1);
  if (!opt.target_blocks.empty()) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const BlockId b = fault_block(nl, faults[i]);
      targetable[i] =
          b < opt.target_blocks.size() ? opt.target_blocks[b] : 0;
    }
  }
  // A fault already tried as a primary target this run (avoid rework while
  // its pattern sits in the unsimulated buffer). With n-detect the flag is
  // re-armed after each simulated batch until the count is satisfied.
  std::vector<std::uint8_t> tried(faults.size(), 0);
  std::vector<std::uint32_t> detect_count(faults.size(), 0);

  const PodemOptions podem_opt{opt.backtrack_limit, opt.seed};
  Podem podem(nl, *ctx_, podem_opt);
  FaultSimulator fsim(nl, *ctx_);
  Rng rng(opt.seed);

  std::span<const std::vector<FlopId>> chains;
  if (opt.chains) chains = *opt.chains;

  // Quiet-state fill needs the idle state; compute it once if any mode asks.
  std::vector<std::uint8_t> quiet;
  bool wants_quiet = opt.fill == FillMode::kQuiet;
  for (FillMode m : opt.per_block_fill) wants_quiet |= (m == FillMode::kQuiet);
  if (wants_quiet) {
    quiet = compute_quiet_state(nl, *ctx_).s1;
    quiet.resize(ctx_->num_vars(), 0);  // LOS scan-in bits idle at 0
  }

  auto fill_cube = [&](const TestCube& cube) -> Pattern {
    Pattern p;
    if (!opt.per_block_fill.empty()) {
      // Per-block fill covers the flop bits; LOS scan-in tail handled below.
      TestCube flop_part;
      flop_part.s1.assign(cube.s1.begin(),
                          cube.s1.begin() + static_cast<std::ptrdiff_t>(
                                                nl.num_flops()));
      p = apply_fill_per_block(nl, flop_part, opt.per_block_fill, rng, chains,
                               quiet);
      p.s1.insert(p.s1.end(),
                  cube.s1.begin() + static_cast<std::ptrdiff_t>(nl.num_flops()),
                  cube.s1.end());
    } else {
      p = apply_fill(cube, opt.fill, rng, chains, quiet);
    }
    // LOS scan-in bits: quiet/adjacent have no defined source; use 0 (the
    // conventional scan-in idle value) unless randomized.
    for (std::size_t v = nl.num_flops(); v < p.s1.size(); ++v) {
      if (p.s1[v] != kBitX) continue;
      p.s1[v] = opt.fill == FillMode::kRandom
                    ? static_cast<std::uint8_t>(rng.below(2))
                    : (opt.fill == FillMode::kFill1 ? 1 : 0);
    }
    return p;
  };

  // Per-block care-bit budget for dynamic compaction.
  std::vector<std::size_t> block_flops(nl.block_count(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) ++block_flops[nl.flop(f).block];
  auto within_care_budget = [&](const TestCube& c) {
    if (opt.max_block_care_fraction >= 1.0) return true;
    std::vector<std::size_t> care(nl.block_count(), 0);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (c.s1[f] != kBitX) ++care[nl.flop(f).block];
    }
    for (BlockId b = 0; b < nl.block_count(); ++b) {
      if (block_flops[b] == 0) continue;
      const double frac = static_cast<double>(care[b]) /
                          static_cast<double>(block_flops[b]);
      if (frac > opt.max_block_care_fraction) return false;
    }
    return true;
  };

  // Speculative target searches. With a multi-threaded pool, a target with
  // no cached verdict starts a parallel batch of generate() calls on the
  // next eligible faults in cursor order, each on a worker Podem from a free
  // list. generate() is pure, so a cached verdict is exactly what the
  // engine's own Podem would return: thread count and batch boundaries only
  // change how much speculative work goes unused. A detected verdict keeps
  // its cube's care bits (variable << 1 | value) and the search's final
  // backtrace rotation, which is all Podem::adopt() needs to leave the
  // engine's Podem as its own generate() would.
  struct SpecVerdict {
    PodemStatus status{};
    std::size_t salt = 0;
    std::vector<std::uint32_t> care;
  };
  const std::size_t threads = rt::concurrency();
  const bool speculate = threads > 1 && !rt::ThreadPool::on_worker_thread();
  const std::size_t spec_batch = 32 * threads;
  std::vector<std::optional<SpecVerdict>> spec(speculate ? faults.size() : 0);
  std::vector<std::unique_ptr<Podem>> spare_podems;
  std::mutex spare_mu;
  obs::Counter& spec_generates_ctr =
      obs::Registry::global().counter("atpg.spec_generates");
  obs::Counter& spec_unused_ctr =
      obs::Registry::global().counter("atpg.spec_unused");

  auto speculate_from = [&](std::size_t target) {
    SCAP_TRACE_SCOPE("atpg.speculate");
    std::vector<std::size_t> batch;
    for (std::size_t k = 0, i = target;
         k < faults.size() && batch.size() < spec_batch; ++k) {
      if (targetable[i] && !tried[i] && st[i] == FaultStatus::kUndetected &&
          !spec[i]) {
        batch.push_back(i);
      }
      if (++i == faults.size()) i = 0;
    }
    rt::parallel_for(
        batch.size(),
        [&](std::size_t begin, std::size_t end) {
          std::unique_ptr<Podem> p;
          {
            const std::lock_guard<std::mutex> lock(spare_mu);
            if (!spare_podems.empty()) {
              p = std::move(spare_podems.back());
              spare_podems.pop_back();
            }
          }
          if (!p) p = std::make_unique<Podem>(nl, *ctx_, podem_opt);
          for (std::size_t k = begin; k < end; ++k) {
            TestCube cube;
            SpecVerdict v;
            v.status = p->generate(faults[batch[k]], cube);
            if (v.status == PodemStatus::kDetected) {
              v.salt = p->backtrace_salt();
              for (std::uint32_t b = 0; b < cube.s1.size(); ++b) {
                if (cube.s1[b] == kBitX) continue;
                v.care.push_back((b << 1) | cube.s1[b]);
              }
            }
            spec[batch[k]] = std::move(v);
          }
          const std::lock_guard<std::mutex> lock(spare_mu);
          spare_podems.push_back(std::move(p));
        },
        rt::ForOptions{1});
    if (obs::metrics_enabled()) spec_generates_ctr.add(batch.size());
  };

  std::vector<Pattern> buffer;
  std::vector<std::size_t> buffer_care_bits;

  auto flush_buffer = [&]() {
    if (buffer.empty()) return;
    fsim.load_batch(buffer);
    const std::size_t base = result.patterns.patterns.size();
    result.new_detects_per_pattern.resize(base + buffer.size(), 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (st[i] == FaultStatus::kDetected ||
          st[i] == FaultStatus::kUntestable) {
        continue;
      }
      const std::uint64_t mask = fsim.detect_mask(faults[i]);
      if (mask == 0) continue;
      if (detect_count[i] == 0) {
        // Coverage credit goes to the first detecting pattern ever.
        const std::size_t idx =
            base + static_cast<std::size_t>(std::countr_zero(mask));
        ++result.new_detects_per_pattern[idx];
      }
      detect_count[i] += static_cast<std::uint32_t>(std::popcount(mask));
      if (detect_count[i] >= opt.n_detect) {
        st[i] = FaultStatus::kDetected;
        ++run_detected;
      } else {
        tried[i] = 0;  // re-arm as a primary target for another detection
      }
    }
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      result.patterns.patterns.push_back(std::move(buffer[i]));
      result.care_bits_per_pattern.push_back(buffer_care_bits[i]);
    }
    buffer.clear();
    buffer_care_bits.clear();
  };

  // Main loop: sweep the fault list, generating one pattern per remaining
  // primary target; simulate in batches of 64 with dropping.
  std::size_t cursor = 0;
  std::size_t remaining_scan = faults.size();
  while (remaining_scan > 0) {
    // Find the next primary target.
    std::size_t target = faults.size();
    while (remaining_scan > 0) {
      if (cursor == faults.size()) cursor = 0;
      const std::size_t i = cursor++;
      --remaining_scan;
      if (targetable[i] && !tried[i] && st[i] == FaultStatus::kUndetected) {
        target = i;
        break;
      }
    }
    if (target == faults.size()) break;

    // A speculative verdict stands as is; a detected one's cube is adopted
    // by the engine's own Podem, which extend() then builds on.
    TestCube cube;
    PodemStatus ps;
    if (speculate) {
      if (!spec[target]) speculate_from(target);
      const SpecVerdict& v = *spec[target];
      ps = v.status;
      if (ps == PodemStatus::kDetected) {
        cube.s1.assign(ctx_->num_vars(), kBitX);
        for (std::uint32_t c : v.care) {
          cube.s1[c >> 1] = static_cast<std::uint8_t>(c & 1);
        }
        podem.adopt(cube, v.salt);
      }
      spec[target].reset();
    } else {
      ps = podem.generate(faults[target], cube);
    }
    tried[target] = 1;
    if (ps == PodemStatus::kUntestable) {
      st[target] = FaultStatus::kUntestable;
      ++run_untestable;
      continue;
    }
    if (ps == PodemStatus::kAborted) {
      st[target] = FaultStatus::kAborted;
      ++run_aborted;
      continue;
    }

    // Dynamic compaction: try to pack nearby undetected targets in as well,
    // under the per-block care-bit budget (re-checked only when a merge
    // grows the cube).
    std::uint32_t merged = 0;
    std::uint32_t scanned = 0;
    bool in_budget = within_care_budget(cube);
    for (std::size_t j = target + 1;
         j < faults.size() && merged < opt.compaction_limit &&
         scanned < opt.compaction_scan && in_budget;
         ++j) {
      if (!targetable[j] || tried[j] || st[j] != FaultStatus::kUndetected) {
        continue;
      }
      ++scanned;
      TestCube merged_cube;
      if (podem.extend(faults[j], merged_cube) == PodemStatus::kDetected) {
        cube = std::move(merged_cube);
        tried[j] = 1;
        ++merged;
        ++run_merges;
        in_budget = within_care_budget(cube);
      }
    }

    buffer_care_bits.push_back(cube.care_bits());
    buffer.push_back(fill_cube(cube));
    // Every targeted fault whose fill already covers it will drop at flush.
    if (buffer.size() == 64) flush_buffer();

    // After a flush the dropped faults free up the scan; rescan the list.
    remaining_scan = faults.size();
  }
  flush_buffer();

  // Partially-counted faults (detected at least once but short of n_detect
  // when targets ran dry) still count as detected for coverage.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (st[i] != FaultStatus::kUntestable && detect_count[i] > 0) {
      run_detected += (st[i] != FaultStatus::kDetected);
      st[i] = FaultStatus::kDetected;
    }
  }
  result.stats.total_faults = faults.size();
  for (FaultStatus s : st) {
    switch (s) {
      case FaultStatus::kDetected:
        ++result.stats.detected;
        break;
      case FaultStatus::kUntestable:
        ++result.stats.untestable;
        break;
      case FaultStatus::kAborted:
        ++result.stats.aborted;
        break;
      case FaultStatus::kUndetected:
        break;
    }
  }
  if (obs::metrics_enabled()) {
    spec_unused_ctr.add(static_cast<std::uint64_t>(
        std::count_if(spec.begin(), spec.end(),
                      [](const auto& v) { return v.has_value(); })));
  }
  obs::count("atpg.runs");
  obs::count("atpg.patterns", result.patterns.size());
  obs::count("atpg.compaction_merges", run_merges);
  obs::count("atpg.detected_faults", run_detected);
  obs::count("atpg.aborted_faults", run_aborted);
  obs::count("atpg.untestable_faults", run_untestable);
  return result;
}

}  // namespace scap
