// Differential-oracle regression suite.
//
// Every file under tests/corpus/ (compiled in as SCAP_CORPUS_DIR) is
// registered as its own test case and replayed through run_scenario,
// asserting zero divergence between the optimized kernels and the src/ref
// oracles. A divergent corpus entry is a regression in whichever kernel the
// entry's checks cover -- the failure message names the oracle and the
// mismatching quantity.
//
// The suite also runs a small in-process fuzz smoke, the shrinking
// self-test (injected bugs must be caught and minimized), the Scenario /
// KvDoc serialization round-trips the corpus format depends on, and targeted
// EventSim-vs-EventSimRef cases for the calendar queue's corner cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "core/pattern_sim.h"
#include "layout/parasitics.h"
#include "ref/compare.h"
#include "ref/fuzz.h"
#include "ref/ref_models.h"
#include "ref/scenario.h"
#include "sim/event_sim.h"
#include "sim/logic_sim.h"
#include "test_helpers.h"
#include "util/kv.h"
#include "util/rng.h"

namespace scap::ref {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir = SCAP_CORPUS_DIR;
  if (std::filesystem::is_directory(dir)) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".scenario") {
        files.push_back(e.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, NoDivergence) {
  const Scenario sc = Scenario::parse(slurp(GetParam()));
  ASSERT_GT(sc.enabled_checks(), 0u) << GetParam() << " checks nothing";
  const ScenarioResult r = run_scenario(sc);
  for (const Divergence& d : r.divergences) {
    ADD_FAILURE() << "[" << d.oracle << "] " << d.detail;
  }
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         ::testing::ValuesIn(corpus_files()), param_name);

TEST(CorpusDir, SeedCorpusPresent) {
  // The hand-picked seed corpus must never silently disappear.
  EXPECT_GE(corpus_files().size(), 5u);
}

TEST(FuzzSmoke, RandomScenariosAgree) {
  FuzzOptions opt;
  opt.iterations = 25;
  opt.seed = 0x5eed;
  opt.shrink = false;  // a failure here is reported, not minimized
  const FuzzStats st = run_fuzz(opt);
  EXPECT_EQ(st.executed, opt.iterations);
  for (const FailureReport& f : st.failures) {
    ADD_FAILURE() << "seed " << f.seed << ": [" << f.divergence.oracle << "] "
                  << f.divergence.detail;
  }
}

TEST(SelfTest, InjectedBugsAreCaughtAndShrunk) {
  std::ostringstream log;
  const bool ok = run_self_test(&log, /*max_repro_patterns=*/3);
  EXPECT_TRUE(ok) << log.str();
}

TEST(ScenarioSerialization, RoundTripsByteStable) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const Scenario sc = Scenario::random(seed);
    const std::string text = sc.serialize();
    const Scenario back = Scenario::parse(text);
    EXPECT_EQ(back.serialize(), text) << "seed " << seed;
  }
}

TEST(ScenarioSerialization, MissingKeysKeepDefaults) {
  const Scenario sc = Scenario::parse("num_patterns 7\n");
  const Scenario def;
  EXPECT_EQ(sc.num_patterns, 7u);
  EXPECT_EQ(sc.soc_seed, def.soc_seed);
  EXPECT_EQ(sc.check_grid, def.check_grid);
  EXPECT_EQ(sc.fill_mode, def.fill_mode);
}

TEST(KvDoc, RoundTripAndTypedAccess) {
  util::KvDoc doc;
  doc.comment("header");
  doc.set("name", "a value with spaces");
  doc.set_u64("n", 42);
  doc.set_f64("x", 0.1);
  doc.set_bool("flag", true);
  const std::string text = doc.to_string();

  const util::KvDoc back = util::KvDoc::parse(text);
  EXPECT_EQ(back.get("name"), "a value with spaces");
  EXPECT_EQ(back.get_u64("n", 0), 42u);
  EXPECT_DOUBLE_EQ(back.get_f64("x", 0.0), 0.1);
  EXPECT_TRUE(back.get_bool("flag", false));
  EXPECT_EQ(back.get_u64("missing", 7), 7u);
}

TEST(KvDoc, RejectsMalformedInput) {
  EXPECT_THROW(util::KvDoc::parse(std::string("orphan-key\n")),
               std::runtime_error);
  EXPECT_THROW(util::KvDoc::parse(std::string("k 1\nk 2\n")),
               std::runtime_error);
  const util::KvDoc doc = util::KvDoc::parse(std::string("k notanumber\n"));
  EXPECT_THROW(doc.get_u64("k", 0), std::runtime_error);
  EXPECT_THROW(doc.get_f64("k", 0.0), std::runtime_error);
  EXPECT_THROW(doc.get_bool("k", false), std::runtime_error);
}

// ---- EventSim's calendar queue against EventSimRef --------------------------

/// A placed netlist and its nominal delays. With zero wire cap, gates of one
/// type whose outputs feed the same pins get bit-identical delays.
struct TimedDesign {
  Netlist nl;
  Floorplan fp = Floorplan::turbo_eagle_like(100.0, 4);
  Placement pl;
  Parasitics par;
  DelayModel dm;

  TimedDesign(Netlist n, double wire_cap_pf_per_um)
      : nl(std::move(n)),
        pl([&] {
          Rng rng(1);
          return Placement::place(nl, fp, rng);
        }()),
        par(Parasitics::extract(nl, pl, TechLibrary::generic180(),
                                wire_cap_pf_per_um)),
        dm(nl, TechLibrary::generic180(), par) {}
};

/// Runs the stimuli through a warm workspace and through the trace overload
/// (fresh workspace); both must equal EventSimRef bit-for-bit. Returns the
/// reference trace.
SimTrace expect_matches_ref(const Netlist& nl, const DelayModel& dm,
                            EventSim::Workspace& ws,
                            std::span<const std::uint8_t> initial,
                            std::span<const Stimulus> stimuli) {
  const EventSim sim(nl, dm);
  TraceRecorder rec;
  sim.run(initial, stimuli, ws, rec);
  SimTrace ref = EventSimRef(nl, dm).run(initial, stimuli);
  std::string why;
  EXPECT_TRUE(compare_traces(rec.trace(), ref, &why)) << "warm: " << why;
  EXPECT_TRUE(compare_traces(sim.run(initial, stimuli), ref, &why))
      << "fresh: " << why;
  return ref;
}

// A lattice of identical gates with identical loads: every layer switches at
// one exact time, so commit order among equal times rests on the schedule
// order alone. A second stimulus wave lands exactly on the first layer's
// output events, and a duplicated stimulus is superseded at an equal time.
TEST(EventSimOracle, ExactTimeTiesFollowScheduleOrder) {
  constexpr std::size_t kWidth = 16;
  constexpr CellType kLayers[] = {CellType::kNand2, CellType::kXor2,
                                  CellType::kNor2,  CellType::kXnor2,
                                  CellType::kNand2, CellType::kXor2};
  Netlist nl;
  std::vector<NetId> q(kWidth), cur(kWidth);
  for (std::size_t j = 0; j < kWidth; ++j) cur[j] = q[j] = nl.add_net();
  for (const CellType type : kLayers) {
    std::vector<NetId> next(kWidth);
    for (std::size_t j = 0; j < kWidth; ++j) {
      next[j] = nl.add_net();
      const NetId ins[] = {cur[j], cur[(j + 1) % kWidth]};
      nl.add_gate(type, ins, next[j]);
    }
    cur = next;
  }
  for (std::size_t j = 0; j < kWidth; ++j) nl.add_flop(cur[j], q[j], 0, 0);
  nl.finalize();
  const TimedDesign d(std::move(nl), /*wire_cap_pf_per_um=*/0.0);
  ASSERT_EQ(d.dm.rise_ns(0), d.dm.rise_ns(kWidth - 1));

  LogicSim logic(d.nl);
  EventSim::Workspace ws;
  Rng rng(7);
  std::size_t ties = 0;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint8_t> bits(kWidth);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(2));
    std::vector<std::uint8_t> init;
    logic.eval_frame(bits, {}, init);

    std::vector<Stimulus> stims;
    const double t2 = d.dm.rise_ns(0);  // == a first-layer output event time
    for (std::size_t j = 0; j < kWidth; ++j) {
      if (rng.below(4) != 0) {
        stims.push_back({q[j], 0.0, static_cast<std::uint8_t>(!bits[j])});
      }
      if (rng.below(3) == 0) stims.push_back({q[j], t2, bits[j]});
    }
    stims.push_back(stims.front());  // equal-time duplicate supersedes

    const SimTrace ref = expect_matches_ref(d.nl, d.dm, ws, init, stims);
    EXPECT_GT(ref.num_events_cancelled, 0u);
    for (std::size_t i = 1; i < ref.toggles.size(); ++i) {
      ties += ref.toggles[i].t_ns == ref.toggles[i - 1].t_ns;
    }
  }
  EXPECT_GT(ties, 8 * kWidth) << "the lattice must produce exact-time ties";
}

// A pulse train into a chain of XORs that each reconverge with a buffered
// tap: each stage multiplies the glitches, so nets carry many in-flight
// pulses at once (far more than a small inline pending capacity).
TEST(EventSimOracle, DeepPendingListsFromReconvergentGlitchChains) {
  constexpr int kStages = 12;
  Netlist nl;
  const NetId q = nl.add_net("q");
  NetId tap = q;
  NetId x = q;
  for (int k = 0; k < kStages; ++k) {
    const NetId b = nl.add_net();
    const NetId bi[] = {tap};
    nl.add_gate(CellType::kBuf, bi, b);
    tap = b;
    const NetId y = nl.add_net();
    const NetId xi[] = {x, tap};
    nl.add_gate(CellType::kXor2, xi, y);
    x = y;
  }
  nl.add_flop(x, q, 0, 0);
  nl.finalize();
  const TimedDesign d(std::move(nl), /*wire_cap_pf_per_um=*/0.00018);

  // Pulses spaced wider than any rise/fall skew (so they survive) and far
  // narrower than a gate delay (so many are in flight per net).
  double skew = 0.0;
  for (GateId g = 0; g < d.nl.num_gates(); ++g) {
    skew = std::max(skew, std::abs(d.dm.rise_ns(g) - d.dm.fall_ns(g)));
  }
  const double spacing = 1.5 * skew;
  ASSERT_LT(spacing, d.dm.min_delay_ns() / 4.0);

  std::vector<std::uint8_t> init;
  LogicSim(d.nl).eval_frame(std::vector<std::uint8_t>{0}, {}, init);
  std::vector<Stimulus> stims;
  for (int i = 0; i < 40; ++i) {
    stims.push_back({q, i * spacing, static_cast<std::uint8_t>((i + 1) % 2)});
  }
  EventSim::Workspace ws;
  const SimTrace ref = expect_matches_ref(d.nl, d.dm, ws, init, stims);

  // Every toggle of a gate's output in (t, t + min delay] was scheduled by
  // time t, so the largest such window count bounds the pending depth.
  std::size_t depth = 0;
  for (GateId g = 0; g < d.nl.num_gates(); ++g) {
    const NetId out = d.nl.gate(g).out;
    const double dmin = std::min(d.dm.rise_ns(g), d.dm.fall_ns(g));
    std::vector<double> ts;
    for (const ToggleEvent& t : ref.toggles) {
      if (t.net == out) ts.push_back(t.t_ns);
    }
    for (std::size_t lo = 0, hi = 0; hi < ts.size(); ++hi) {
      while (ts[hi] - ts[lo] >= dmin) ++lo;
      depth = std::max(depth, hi - lo + 1);
    }
  }
  EXPECT_GE(depth, 16u) << "pending lists must run deep";

  // The same workspace serves a second, shifted train identically.
  for (Stimulus& s : stims) s.t_ns += 3.0;
  expect_matches_ref(d.nl, d.dm, ws, init, stims);
}

// One analyzer (one warm workspace) runs nominal -> derated -> nominal
// delays: the bucket geometry changes with the delay model, and every pass
// must equal a fresh workspace and the reference simulator.
TEST(EventSimOracle, WarmWorkspaceAcrossDeratingEqualsFresh) {
  const SocDesign& soc = test::small_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  const TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  const PatternSet pats = random_pattern_set(3, ctx.num_vars(), 9);
  PatternAnalyzer warm(soc, lib);
  const DelayModel& nominal = warm.nominal_delays();

  DelayModel derated = nominal;
  Rng rng(3);
  std::vector<double> droop(soc.netlist.num_gates());
  for (double& v : droop) v = rng.uniform(-0.5, 3.0);
  derated.set_droop(lib, droop);
  ASSERT_GT(derated.max_delay_ns(), nominal.max_delay_ns());
  ASSERT_LT(derated.min_delay_ns(), nominal.min_delay_ns());

  const DelayModel* const sequence[] = {&nominal, &derated, &nominal};
  for (const Pattern& p : pats.patterns) {
    for (const DelayModel* dm : sequence) {
      const PatternAnalysis a = warm.analyze(ctx, p, dm);
      PatternAnalyzer fresh(soc, lib);
      const PatternAnalysis b = fresh.analyze(ctx, p, dm);
      std::string why;
      EXPECT_TRUE(compare_traces(a.trace, b.trace, &why)) << why;
      EXPECT_EQ(a.scap.vdd_energy_total_pj, b.scap.vdd_energy_total_pj);
      EXPECT_EQ(a.scap.vss_energy_total_pj, b.scap.vss_energy_total_pj);
      EXPECT_EQ(a.scap.stw_ns, b.scap.stw_ns);
      const SimTrace ref =
          EventSimRef(soc.netlist, *dm).run(warm.frame1(), warm.stimuli());
      EXPECT_TRUE(compare_traces(a.trace, ref, &why)) << why;
    }
  }
  EXPECT_EQ(warm.workspace().runs(), 3 * pats.size());
}

}  // namespace
}  // namespace scap::ref
