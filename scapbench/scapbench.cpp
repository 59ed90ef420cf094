// scapgen benchmark: runs one named workload of the paper's pipeline in
// a single process, times it from outside the library, checks its outputs and
// prints one JSON result line last on stdout.
//
//   scapbench --workload paper_flow|screen_bulk|repair_retrofit
//             [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//
// The rt pool takes its size from SCAP_THREADS (default: hardware threads).
// The exit code is 1 when an output check failed; the result line is printed
// either way.
//
// The design and its collapsed fault list are fixed per workload (the
// canonical SOC at the workload's scale, design seed 2007), and so is the
// conventional set that repair_retrofit repairs (random fill, seed 2007).
// --seed drives what is generated on top of them: the ATPG seed (paper_flow's
// conventional random fill, the repair rounds), the bulk random pattern set
// and the samples the checks draw. A seeded design, fault order or repair
// input would make the pattern counts and ATPG or repair times differ by
// 10-20% from seed to seed, which on top of the host's own noise is more than
// the benchmark's bounds allow.
//
// --trace 0 measures the end-to-end metrics with the program's obs layer off.
// --trace 1 makes a warm-up iteration with obs off, then one traced iteration
// (obs metrics, trace and scheduler profiler on) between two untraced ones,
// then replays single layers (PODEM, fault grading, event simulation, static
// screen, grid solve, statistical analysis, the rt pool) under the
// benchmark's own spans and reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atpg/fault_sim.h"
#include "atpg/podem.h"
#include "core/experiment.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "ref/compare.h"
#include "ref/ref_models.h"
#include "rt/thread_pool.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace scap::bench {
namespace {

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written at the end of
// the run. All spans are opened on the main thread, so they nest strictly.

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;
};

class Spans {
 public:
  int begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_us(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[id].end_us = now_us();
    stack_.pop_back();
  }
  std::size_t size() const { return spans_.size(); }

  /// Durations [ms] of the spans called `name` recorded at index >= from.
  std::vector<double> durations_ms(std::string_view name, std::size_t from = 0) const {
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (name == spans_[i].name) out.push_back((spans_[i].end_us - spans_[i].start_us) / 1e3);
    }
    return out;
  }
  double total_ms(std::string_view name, std::size_t from = 0) const {
    double t = 0.0;
    for (double d : durations_ms(name, from)) t += d;
    return t;
  }

  /// Write every span with its self time (duration minus its children's).
  bool write_json(const std::string& path, const std::string& run_id) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::ofstream os(path);
    if (!os) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
    os << "{\"run_id\":\"" << run_id << "\",\"spans\":[";
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof line,
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"self_us\":%.3f}",
                    i ? "," : "", i, s.name, s.parent, s.start_us - t0, s.end_us - t0,
                    s.end_us - s.start_us - child_us[i]);
      os << line;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_spans.begin(name)) {}
  ~SpanScope() { g_spans.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Workloads.

enum class Workload { kPaperFlow, kScreenBulk, kRepairRetrofit };

struct WorkloadSpec {
  Workload id;
  const char* name;
  double scale;            ///< SOC scale (Experiment::standard)
  int setup_reps;          ///< set-ups per iteration; setup_s is their median
};

// Why these sizes: paper_flow at scale 0.01 runs both ATPG flows in ~5 s, so
// a run repeats it; screen_bulk uses the 8x larger design so the event sim,
// the static bound, the rt fan-out and the grid carry a real load with no
// ATPG at all; repair_retrofit repairs the scale-0.01 conventional set.
constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kPaperFlow, "paper_flow", 0.01, 20},
    {Workload::kScreenBulk, "screen_bulk", 0.08, 10},
    {Workload::kRepairRetrofit, "repair_retrofit", 0.01, 1},
};

constexpr std::uint64_t kDesignSeed = 2007;
constexpr std::uint32_t kBacktrackLimit = 32;  // as the repo's paper benches
constexpr std::size_t kBulkPatterns = 4096;
constexpr std::size_t kBulkIrPatterns = 64;
constexpr std::size_t kScapRefSample = 8;
constexpr std::size_t kGradeRefFaults = 32;
constexpr std::size_t kGradeRefPatterns = 64;
constexpr std::size_t kReplayPatterns = 1024;
constexpr double kRateSecondsPerIteration = 1.0;
constexpr std::size_t kHot = Experiment::kHotBlock;

/// Everything the program is handed: the design plus the seeded inputs.
struct Inputs {
  std::unique_ptr<Experiment> exp;
  AtpgOptions atpg;
  PatternSet bulk;      ///< screen_bulk: random patterns
  PatternSet retrofit;  ///< repair_retrofit: the conventional random-fill set
};

std::unique_ptr<Inputs> build_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  SpanScope setup("setup");
  auto in = std::make_unique<Inputs>();
  {
    SpanScope s("core.experiment_build");
    in->exp = std::make_unique<Experiment>(Experiment::standard(w.scale, kDesignSeed));
  }
  const Experiment& exp = *in->exp;
  in->atpg.seed = seed;
  in->atpg.backtrack_limit = kBacktrackLimit;
  in->atpg.chains = &exp.soc.scan.chains;
  if (w.id == Workload::kScreenBulk) {
    in->bulk = random_pattern_set(kBulkPatterns, exp.ctx.num_vars(), seed);
  }
  if (w.id == Workload::kRepairRetrofit) {
    SpanScope s("core.conventional_atpg");
    AtpgOptions opt = in->atpg;
    opt.fill = FillMode::kRandom;
    opt.seed = kDesignSeed;
    in->retrofit =
        run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt).patterns;
  }
  return in;
}

/// One output pattern set with everything the run derived from it.
struct SetResult {
  std::string label;
  PatternSet patterns;
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  std::vector<ScapReport> profile;
  std::optional<ScapScreenResult> screen;
  std::vector<double> ir_summary;  ///< per validated pattern: index + results
};

struct Outcome {
  std::vector<SetResult> sets;  ///< back() is the workload's final set
  std::vector<std::size_t> first_detect;  ///< screen_bulk: the timed grade
  std::optional<RepairResult> repair;
  double flow_ms = 0.0;
  double final_profile_ms = 0.0;
  double final_screen_ms = 0.0;
  const SetResult& final_set() const { return sets.back(); }
};

SetResult from_flow(std::string label, FlowResult&& f) {
  SetResult s;
  s.label = std::move(label);
  s.patterns = std::move(f.patterns);
  s.total_faults = f.stats.total_faults;
  s.detected = f.stats.detected;
  s.untestable = f.stats.untestable;
  s.aborted = f.stats.aborted;
  return s;
}

double b5_ratio(const Experiment& exp, const ScapReport& r) {
  return ScapThresholds::block_scap_mw(r, kHot) / exp.thresholds.block_mw[kHot];
}

/// Indices of the `n` patterns with the highest hot-block SCAP (ties: lower
/// index first).
std::vector<std::size_t> hottest(const Experiment& exp,
                                 const std::vector<ScapReport>& prof, std::size_t n) {
  std::vector<std::size_t> idx(prof.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return b5_ratio(exp, prof[a]) > b5_ratio(exp, prof[b]);
  });
  idx.resize(std::min(n, idx.size()));
  return idx;
}

void validate_ir(const Experiment& exp, SetResult& s, std::size_t n) {
  for (std::size_t i : hottest(exp, s.profile, n)) {
    SpanScope span("core.validate_ir");
    const IrValidationResult r =
        validate_pattern_ir(exp.soc, *exp.lib, exp.grid, exp.ctx, s.patterns.patterns[i]);
    s.ir_summary.push_back(static_cast<double>(i));
    s.ir_summary.push_back(r.ir.worst_vdd_v);
    s.ir_summary.push_back(r.ir.worst_vss_v);
    s.ir_summary.insert(s.ir_summary.end(), r.scaled_endpoint_ns.begin(),
                        r.scaled_endpoint_ns.end());
  }
}

void profile_set(const Experiment& exp, SetResult& s) {
  SpanScope span("core.scap_profile");
  s.profile = scap_profile(exp.soc, *exp.lib, exp.ctx, s.patterns);
}

void screen_set(const Experiment& exp, SetResult& s) {
  SpanScope span("core.screen");
  s.screen = scap_screen_patterns(exp.soc, *exp.lib, exp.ctx, s.patterns.patterns,
                                  exp.thresholds, kHot);
}

/// One iteration of the workload. The "flow" span is the timed region; the
/// profile and screen of sets the flow itself does not screen follow it.
Outcome iterate(const WorkloadSpec& w, const Inputs& in) {
  const Experiment& exp = *in.exp;
  Outcome out;
  const std::size_t mark = g_spans.size();
  {
    SpanScope flow("flow");
    switch (w.id) {
      case Workload::kPaperFlow: {
        AtpgOptions conv_opt = in.atpg;
        conv_opt.fill = FillMode::kRandom;
        AtpgOptions pa_opt = in.atpg;
        pa_opt.fill = FillMode::kQuiet;
        {
          SpanScope s("core.conventional_atpg");
          out.sets.push_back(from_flow(
              "conventional",
              run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, conv_opt)));
        }
        {
          SpanScope s("core.power_aware_atpg");
          out.sets.push_back(from_flow(
              "power_aware",
              run_power_aware_atpg(exp.soc.netlist, exp.ctx, exp.faults,
                                   StepPlan::paper_default(exp.soc.netlist.block_count()),
                                   pa_opt)));
        }
        for (SetResult& s : out.sets) profile_set(exp, s);
        for (SetResult& s : out.sets) validate_ir(exp, s, 1);
        break;
      }
      case Workload::kScreenBulk: {
        SetResult s;
        s.label = "bulk";
        s.patterns = in.bulk;
        s.total_faults = exp.faults.size();
        profile_set(exp, s);
        screen_set(exp, s);
        {
          SpanScope g("core.grade");
          FaultSimulator fsim(exp.soc.netlist, exp.ctx);
          out.first_detect = fsim.grade(s.patterns.patterns, exp.faults);
        }
        for (std::size_t idx : out.first_detect) s.detected += idx != FaultSimulator::kUndetected;
        validate_ir(exp, s, kBulkIrPatterns);
        out.sets.push_back(std::move(s));
        break;
      }
      case Workload::kRepairRetrofit: {
        SpanScope s("core.repair");
        out.repair = repair_scap_violations(exp.soc, *exp.lib, exp.ctx, exp.faults,
                                            in.retrofit, exp.thresholds, kHot, in.atpg);
        SetResult r;
        r.label = "repaired";
        r.patterns = out.repair->patterns;
        r.total_faults = exp.faults.size();
        r.detected = out.repair->detected_after;
        out.sets.push_back(std::move(r));
        break;
      }
    }
  }
  for (SetResult& s : out.sets) {
    if (s.profile.empty() && s.patterns.size() > 0) profile_set(exp, s);
    if (!s.screen) screen_set(exp, s);
  }
  out.flow_ms = g_spans.durations_ms("flow", mark).at(0);
  const std::vector<double> prof_ms = g_spans.durations_ms("core.scap_profile", mark);
  const std::vector<double> screen_ms = g_spans.durations_ms("core.screen", mark);
  out.final_profile_ms = prof_ms.empty() ? 0.0 : prof_ms.back();
  out.final_screen_ms = screen_ms.empty() ? 0.0 : screen_ms.back();
  return out;
}

/// FNV-1a over the outputs' bytes; digests are only compared for equality.
std::string digest(const Outcome& o) {
  serve::WireWriter h;
  const auto f64s = [&h](const std::vector<double>& v) {
    h.u64(v.size());
    for (double x : v) h.f64(x);
  };
  for (const SetResult& s : o.sets) {
    h.str32(s.label);
    h.u64(s.patterns.size());
    for (const Pattern& p : s.patterns.patterns) {
      h.u64(p.s1.size());
      h.bytes(p.s1);
    }
    h.u64(s.total_faults);
    h.u64(s.detected);
    h.u64(s.untestable);
    h.u64(s.aborted);
    for (const ScapReport& r : s.profile) {
      h.u64(r.num_toggles);
      h.f64(r.stw_ns);
      h.f64(r.period_ns);
      f64s(r.vdd_energy_pj);
      f64s(r.vss_energy_pj);
    }
    if (s.screen) h.bytes(s.screen->violates);
    f64s(s.ir_summary);
  }
  for (std::size_t idx : o.first_detect) h.u64(idx);
  if (o.repair) {
    h.u64(o.repair->patterns_before);
    h.u64(o.repair->violations_before);
    h.u64(o.repair->violations_after);
    h.u64(o.repair->detected_before);
    h.u64(o.repair->rounds);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(serve::fnv1a64(h.data())));
  return hex;
}

// ---------------------------------------------------------------------------
// Output checks. Each evaluation is one attempted operation.

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what, const std::string& detail = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check FAIL %s%s%s\n", what.c_str(), detail.empty() ? "" : ": ",
                  detail.c_str());
    }
  }
};

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k, std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  Rng rng(seed);
  rng.shuffle(idx);
  idx.resize(std::min(k, n));
  std::sort(idx.begin(), idx.end());
  return idx;
}

void check_outcome(const Inputs& in, const Outcome& o, std::uint64_t seed, Checks& c) {
  const Experiment& exp = *in.exp;
  const Netlist& nl = exp.soc.netlist;
  for (const SetResult& s : o.sets) {
    const std::string& L = s.label;
    c.expect(s.total_faults == exp.faults.size(), L + ".total_faults",
             std::to_string(s.total_faults) + " vs " + std::to_string(exp.faults.size()));
    c.expect(s.detected + s.untestable + s.aborted <= s.total_faults, L + ".stats_sum",
             std::to_string(s.detected) + "+" + std::to_string(s.untestable) + "+" +
                 std::to_string(s.aborted) + " > " + std::to_string(s.total_faults));

    // A fresh grade of the set reproduces the detections the flow reported.
    FaultSimulator fsim(nl, exp.ctx);
    fsim.set_batch_words(1);
    const std::vector<std::size_t> first = fsim.grade(s.patterns.patterns, exp.faults);
    std::size_t detected = 0;
    for (std::size_t idx : first) detected += idx != FaultSimulator::kUndetected;
    c.expect(detected == s.detected, L + ".regrade_detected",
             std::to_string(detected) + " vs reported " + std::to_string(s.detected));
    if (!o.first_detect.empty()) {
      std::string why;
      c.expect(ref::compare_grade(o.first_detect, first, &why), L + ".regrade_first_detect",
               why);
    }

    // The reference grader agrees on a sample of faults and patterns.
    {
      const auto fi = sample_indices(exp.faults.size(), kGradeRefFaults, seed ^ 0x9e3779b9u);
      std::vector<TdfFault> faults;
      for (std::size_t i : fi) faults.push_back(exp.faults[i]);
      const std::size_t np = std::min(kGradeRefPatterns, s.patterns.size());
      const std::span<const Pattern> pats(s.patterns.patterns.data(), np);
      FaultSimulator fs(nl, exp.ctx);
      const auto got = fs.grade(pats, faults);
      const auto want = ref::fault_grade_ref(nl, exp.ctx, pats, faults);
      std::string why;
      c.expect(ref::compare_grade(got, want, &why), L + ".grade_vs_ref", why);
    }

    // The two-tier screen's verdicts equal the exact verdicts of the profile.
    c.expect(s.profile.size() == s.patterns.size() && s.screen &&
                 s.screen->violates.size() == s.patterns.size(),
             L + ".sizes");
    if (s.screen && s.profile.size() == s.patterns.size()) {
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < s.profile.size(); ++i) {
        const bool exact = exp.thresholds.violates(s.profile[i], kHot);
        mismatches += exact != (s.screen->violates[i] != 0);
      }
      c.expect(mismatches == 0, L + ".screen_vs_profile",
               std::to_string(mismatches) + " verdicts differ");

      // Bulk SCAP reports match the reference SCAP of the same simulation.
      PatternAnalyzer pa(exp.soc, *exp.lib);
      for (std::size_t i : sample_indices(s.patterns.size(), kScapRefSample, seed)) {
        const PatternAnalysis an = pa.analyze(exp.ctx, s.patterns.patterns[i]);
        const ScapReport want = ref::scap_ref(nl, exp.soc.parasitics, *exp.lib, an.trace,
                                              s.profile[i].period_ns);
        std::string why;
        c.expect(ref::compare_scap(s.profile[i], want, &why),
                 L + ".scap_vs_ref[" + std::to_string(i) + "]", why);
      }
    }
    for (double v : s.ir_summary) {
      if (!std::isfinite(v)) {
        c.expect(false, L + ".ir_finite");
        break;
      }
    }
  }
  if (o.repair) {
    const RepairResult& r = *o.repair;
    const SetResult& s = o.final_set();
    c.expect(r.patterns_after == s.patterns.size(), "repair.patterns_after");
    c.expect(r.patterns_before == in.retrofit.size(), "repair.patterns_before");
    // The repair keeps only screened-clean patterns, so nothing may remain.
    c.expect(r.violations_after == 0 && s.screen && s.screen->count_violations() == 0,
             "repair.clean", std::to_string(r.violations_after) + " violations left");
    c.expect(r.detected_before <= s.total_faults, "repair.detected_before");
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void emit(const std::vector<Metric>& ms, const Checks& c) {
  for (const Metric& m : ms) std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              c.failed == 0 ? "true" : "false", c.attempted, c.failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Quality metrics of the final set; they are identical in every iteration.
void quality_metrics(const Inputs& in, const Outcome& o, std::vector<Metric>& ms) {
  const SetResult& s = o.final_set();
  std::vector<double> b5;
  for (const ScapReport& r : s.profile) b5.push_back(b5_ratio(*in.exp, r));
  ms.push_back({"fault_coverage_pct",
                100.0 * static_cast<double>(s.detected) / static_cast<double>(s.total_faults),
                "%"});
  ms.push_back({"pattern_count", static_cast<double>(s.patterns.size()), "count"});
  ms.push_back({"b5_scap_p90_ratio", percentile(b5, 0.9), "ratio"});
}

void set_obs(bool metrics, bool trace, bool prof) {
  obs::ObsConfig cfg;
  cfg.metrics = metrics;
  cfg.trace = trace;
  cfg.prof = prof;
  obs::configure(cfg);
}

std::uint64_t counter(const obs::Registry::Snapshot& s, std::string_view name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}
double timer_ms(const obs::Registry::Snapshot& s, std::string_view name) {
  for (const auto& t : s.timers) {
    if (t.name == name) return t.total_ms;
  }
  return 0.0;
}
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Traced run: per-layer metrics.
std::vector<Metric> traced_metrics(const WorkloadSpec& w, const Inputs& in,
                                   const Outcome& untraced, Checks& c, std::uint64_t seed) {
  const Experiment& exp = *in.exp;
  std::vector<Metric> ms;
  obs::Registry& reg = obs::Registry::global();

  set_obs(true, true, true);
  reg.reset();
  obs::trace_clear();
  obs::prof_reset();
  const std::size_t mark = g_spans.size();
  const Outcome o = iterate(w, in);
  const obs::Registry::Snapshot flow_snap = reg.snapshot_and_reset();
  check_outcome(in, o, seed, c);
  c.expect(digest(o) == digest(untraced), "traced_digest_equal");
  const SetResult& fin = o.final_set();

  const auto span_s = [&](const char* name) { return g_spans.total_ms(name, mark) / 1e3; };
  const std::vector<double> build_ms = g_spans.durations_ms("core.experiment_build");
  ms.push_back({"core.experiment_build_ms", median(build_ms), "ms"});
  // repair_retrofit runs its conventional ATPG in set-up: report that span.
  ms.push_back({"core.conventional_atpg_s",
                w.id == Workload::kRepairRetrofit
                    ? median(g_spans.durations_ms("core.conventional_atpg")) / 1e3
                    : span_s("core.conventional_atpg"),
                "s"});
  ms.push_back({"core.power_aware_atpg_s", span_s("core.power_aware_atpg"), "s"});
  ms.push_back({"core.scap_profile_ms", o.final_profile_ms, "ms"});
  ms.push_back({"core.screen_ms", o.final_screen_ms, "ms"});
  const std::vector<double> ir_ms = g_spans.durations_ms("core.validate_ir", mark);
  ms.push_back({"core.validate_ir_ms_p50", percentile(ir_ms, 0.5), "ms"});
  ms.push_back({"core.validate_ir_ms_p90", percentile(ir_ms, 0.9), "ms"});
  ms.push_back({"core.repair_s", span_s("core.repair"), "s"});
  ms.push_back({"core.aborted_faults", static_cast<double>(fin.aborted), "count"});
  ms.push_back({"core.scap_violations", static_cast<double>(fin.screen->count_violations()),
                "count"});

  // Existing program counters over the traced iteration.
  const double generates = static_cast<double>(counter(flow_snap, "atpg.podem_generates"));
  const double extends = static_cast<double>(counter(flow_snap, "atpg.podem_extends"));
  const double merges = static_cast<double>(counter(flow_snap, "atpg.compaction_merges"));
  ms.push_back({"atpg.implications",
                static_cast<double>(counter(flow_snap, "atpg.implications")), "count"});
  ms.push_back({"atpg.backtracks", static_cast<double>(counter(flow_snap, "atpg.backtracks")),
                "count"});
  ms.push_back({"atpg.podem_generates", generates, "count"});
  ms.push_back({"atpg.podem_extends", extends, "count"});
  ms.push_back({"atpg.compaction_merges", merges, "count"});
  ms.push_back({"atpg.merge_ratio", ratio(merges, extends), "ratio"});
  // atpg.aborted_faults counts abort events, not faults left aborted.
  ms.push_back({"atpg.abort_events",
                static_cast<double>(counter(flow_snap, "atpg.aborted_faults")), "count"});

  const double flow_ms = o.flow_ms;
  const double atpg_calls_ms = g_spans.total_ms("core.conventional_atpg", mark) +
                               g_spans.total_ms("core.power_aware_atpg", mark);
  ms.push_back({"trace.flow_s", flow_ms / 1e3, "s"});
  ms.push_back({"trace.atpg_share", ratio(atpg_calls_ms, flow_ms), "ratio"});
  ms.push_back({"trace.atpg_run_share", ratio(timer_ms(flow_snap, "atpg.run"), flow_ms),
                "ratio"});
  // The untraced reference brackets the traced iteration (one warm iteration
  // before, one after), so a drift in host speed cancels out.
  set_obs(false, false, false);
  const Outcome after = iterate(w, in);
  c.expect(digest(after) == digest(untraced), "repeatable_digest");
  ms.push_back({"trace.overhead_s", (flow_ms - 0.5 * (untraced.flow_ms + after.flow_ms)) / 1e3,
                "s"});
  set_obs(true, true, true);

  // rt: scheduler profile over the final set's profile and screen.
  {
    SetResult s = fin;
    obs::prof_reset();
    {
      SpanScope span("rt.profile_screen");
      profile_set(exp, s);
      screen_set(exp, s);
    }
    const obs::PoolProfile p = obs::collect_pool_profile();
    double busy = 0.0, park = 0.0;
    for (const obs::LaneProfile& l : p.lanes) {
      busy += l.busy_frac;
      park += l.park_frac;
    }
    const double lanes = static_cast<double>(std::max<std::size_t>(1, p.lanes.size()));
    ms.push_back({"rt.threads", static_cast<double>(rt::concurrency()), "count"});
    ms.push_back({"rt.busy_fraction", busy / lanes, "ratio"});
    ms.push_back({"rt.park_fraction", park / lanes, "ratio"});
    set_obs(true, false, false);
    reg.reset();
  }

  // atpg: PODEM replayed from a clean slate on every fault of the workload.
  {
    std::vector<double> us;
    std::size_t det = 0, unt = 0, abo = 0;
    double impl = 0.0, bt = 0.0;
    if (w.id != Workload::kScreenBulk) {
      Podem podem(exp.soc.netlist, exp.ctx, PodemOptions{kBacktrackLimit});
      TestCube cube;
      for (const TdfFault& f : exp.faults) {
        const std::size_t before = g_spans.size();
        PodemStatus st;
        {
          SpanScope s("atpg.podem.generate");
          st = podem.generate(f, cube);
        }
        us.push_back(g_spans.durations_ms("atpg.podem.generate", before).at(0) * 1e3);
        det += st == PodemStatus::kDetected;
        unt += st == PodemStatus::kUntestable;
        abo += st == PodemStatus::kAborted;
      }
      impl = static_cast<double>(podem.implications());
      bt = static_cast<double>(podem.backtracks());
    }
    const double calls = static_cast<double>(us.size());
    ms.push_back({"atpg.podem.calls", calls, "count"});
    ms.push_back({"atpg.podem.generate_us_p50", percentile(us, 0.5), "us"});
    ms.push_back({"atpg.podem.generate_us_p99", percentile(us, 0.99), "us"});
    ms.push_back({"atpg.podem.detected_ratio", ratio(static_cast<double>(det), calls), "ratio"});
    ms.push_back({"atpg.podem.untestable_ratio", ratio(static_cast<double>(unt), calls), "ratio"});
    ms.push_back({"atpg.podem.aborted_ratio", ratio(static_cast<double>(abo), calls), "ratio"});
    ms.push_back({"atpg.podem.implications_per_call", ratio(impl, calls), "count"});
    ms.push_back({"atpg.podem.backtracks_per_call", ratio(bt, calls), "count"});
    reg.reset();
  }

  // atpg/fault_sim: one grade of the final set.
  {
    const std::size_t before = g_spans.size();
    {
      SpanScope s("faultsim.grade");
      FaultSimulator fsim(exp.soc.netlist, exp.ctx);
      (void)fsim.grade(fin.patterns.patterns, exp.faults);
    }
    const obs::Registry::Snapshot snap = reg.snapshot_and_reset();
    ms.push_back({"faultsim.grade_ms", g_spans.total_ms("faultsim.grade", before), "ms"});
    ms.push_back({"faultsim.events", static_cast<double>(counter(snap, "faultsim.events")),
                  "count"});
    ms.push_back({"faultsim.detect_masks",
                  static_cast<double>(counter(snap, "faultsim.detect_masks")), "count"});
  }

  // sim and lint: per-pattern exact SCAP and static bound on one analyzer.
  {
    const std::size_t n = std::min(kReplayPatterns, fin.patterns.size());
    PatternAnalyzer pa(exp.soc, *exp.lib);
    (void)pa.static_model();  // build the lazy static model outside the spans
    const std::size_t before = g_spans.size();
    for (std::size_t i = 0; i < n; ++i) {
      SpanScope s("sim.analyze_scap");
      (void)pa.analyze_scap(exp.ctx, fin.patterns.patterns[i]);
    }
    const obs::Registry::Snapshot snap = reg.snapshot_and_reset();
    for (std::size_t i = 0; i < n; ++i) {
      SpanScope s("lint.screen_static");
      (void)pa.screen_static(exp.ctx, fin.patterns.patterns[i]);
    }
    std::vector<double> scap_us = g_spans.durations_ms("sim.analyze_scap", before);
    std::vector<double> static_us = g_spans.durations_ms("lint.screen_static", before);
    for (double& v : scap_us) v *= 1e3;
    for (double& v : static_us) v *= 1e3;
    ms.push_back({"sim.analyze_scap_us_p50", percentile(scap_us, 0.5), "us"});
    ms.push_back({"sim.analyze_scap_us_p99", percentile(scap_us, 0.99), "us"});
    ms.push_back({"sim.events_per_pattern",
                  ratio(static_cast<double>(counter(snap, "eventsim.events")),
                        static_cast<double>(n)),
                  "count"});
    ms.push_back({"lint.screen_static_us_p50", percentile(static_us, 0.5), "us"});
    ms.push_back({"lint.static_clean_ratio",
                  ratio(static_cast<double>(fin.screen->statically_clean),
                        static_cast<double>(fin.patterns.size())),
                  "ratio"});
  }

  // power: the experiment's grid and its Case2 statistical analysis.
  {
    const SocDesign& soc = exp.soc;
    std::vector<Point> where;
    for (GateId g = 0; g < soc.netlist.num_gates(); ++g) where.push_back(soc.placement.gate_pos(g));
    const std::vector<double> amps(where.size(), 1e-5);
    const std::size_t before = g_spans.size();
    for (int i = 0; i < 5; ++i) {
      SpanScope s("power.grid_solve");
      (void)exp.grid.solve(where, amps, true);
    }
    for (int i = 0; i < 3; ++i) {
      SpanScope s("power.statistical");
      (void)analyze_statistical(soc.netlist, soc.placement, soc.parasitics, *exp.lib,
                                soc.floorplan, exp.grid, soc.config.domain_freq_mhz,
                                &soc.clock_tree, exp.stat_case2.options);
    }
    ms.push_back({"power.grid_solve_ms", median(g_spans.durations_ms("power.grid_solve", before)),
                  "ms"});
    ms.push_back({"power.statistical_ms",
                  median(g_spans.durations_ms("power.statistical", before)), "ms"});
  }
  return ms;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2007;
  double seconds = 30.0;
  bool trace = false;
  std::string spans;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "scapbench: %s\nusage: scapbench --workload paper_flow|screen_bulk|"
               "repair_retrofit [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::string_view(v) == "1";
    else if (k == "--spans") a.spans = v;
    else return usage("unknown option");
  }
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (a.workload == s.name) w = &s;
  }
  if (w == nullptr) return usage("unknown workload");

  set_obs(false, false, false);
  std::printf("workload %s seed %llu threads %zu trace %d\n", w->name,
              static_cast<unsigned long long>(a.seed), rt::concurrency(), a.trace ? 1 : 0);

  // Set-up is repeated before every iteration, so its samples spread over
  // the run like the flow's; each set-up replaces the inputs.
  std::unique_ptr<Inputs> in;
  const auto set_up = [&] {
    for (int r = 0; r < w->setup_reps; ++r) {
      in.reset();
      in = build_inputs(*w, a.seed);
    }
  };

  Checks checks;
  std::vector<Metric> ms;
  if (!a.trace) {
    std::vector<double> flow_s, rate;
    std::string first_digest;
    std::optional<Outcome> last;
    const double started_us = now_us();
    const double deadline = started_us + a.seconds * 1e6;
    double per_iteration_us = 0.0;
    // Set-ups before the first flow run on a heap that has not yet grown to
    // the flow's size, and pay page faults the later ones do not: setup_s
    // leaves them out when a later iteration has set-ups of its own.
    std::size_t warm_mark = 0;
    do {
      last.reset();
      if (!flow_s.empty() && warm_mark == 0) warm_mark = g_spans.size();
      set_up();
      last = iterate(*w, *in);
      const std::string d = digest(*last);
      if (first_digest.empty()) first_digest = d;
      checks.expect(d == first_digest, "repeatable_digest");
      flow_s.push_back(last->flow_ms / 1e3);
      if (w->id == Workload::kScreenBulk) {
        rate.push_back(static_cast<double>(kBulkPatterns) /
                       ((last->final_profile_ms + last->final_screen_ms) / 1e3));
      } else {
        // The final set profiles and screens in a few ms, where waking the
        // pool's threads decides the time: measure the rate on the set cycled
        // to kBulkPatterns, repeated for kRateSecondsPerIteration, so the
        // median draws on samples spread over the whole run.
        const std::vector<Pattern>& fin = last->final_set().patterns.patterns;
        std::vector<Pattern> batch;
        for (std::size_t i = 0; i < kBulkPatterns && !fin.empty(); ++i) {
          batch.push_back(fin[i % fin.size()]);
        }
        const Experiment& exp = *in->exp;
        for (double measured = 0.0; measured < kRateSecondsPerIteration;) {
          const double t0 = now_us();
          {
            SpanScope span("rate.profile_screen");
            (void)scap_profile_patterns(exp.soc, *exp.lib, exp.ctx, batch);
            (void)scap_screen_patterns(exp.soc, *exp.lib, exp.ctx, batch, exp.thresholds, kHot);
          }
          const double dt = (now_us() - t0) / 1e6;
          measured += dt;
          rate.push_back(static_cast<double>(batch.size()) / dt);
        }
      }
      // Start another iteration only if it would end less than half an
      // iteration past the deadline, so a run measures close to --seconds.
      per_iteration_us = (now_us() - started_us) / static_cast<double>(flow_s.size());
    } while (now_us() + 0.5 * per_iteration_us < deadline);
    std::printf("digest %s\n", first_digest.c_str());
    std::printf("iterations %zu\n", flow_s.size());
    check_outcome(*in, *last, a.seed, checks);
    ms.push_back({"flow_s", median(flow_s), "s"});
    ms.push_back({"setup_s", median(g_spans.durations_ms("setup", warm_mark)) / 1e3, "s"});
    ms.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    ms.push_back({"screen_patterns_per_s", median(rate), "patterns/s"});
    quality_metrics(*in, *last, ms);
  } else {
    // The first iteration after set-up runs cold; the warm one after it is
    // the untraced reference before the traced iteration.
    set_up();
    const std::string cold_digest = digest(iterate(*w, *in));
    const Outcome untraced = iterate(*w, *in);
    std::printf("digest %s\n", cold_digest.c_str());
    checks.expect(digest(untraced) == cold_digest, "repeatable_digest");
    ms = traced_metrics(*w, *in, untraced, checks, a.seed);
  }
  if (!a.spans.empty() &&
      !g_spans.write_json(a.spans, std::string(w->name) + "-" + std::to_string(a.seed))) {
    std::fprintf(stderr, "scapbench: cannot write %s\n", a.spans.c_str());
    return 1;
  }
  emit(ms, checks);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace scap::bench

int main(int argc, char** argv) {
  try {
    return scap::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scapbench: %s\n", e.what());
    return 1;
  }
}
