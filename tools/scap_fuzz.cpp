// scap_fuzz: differential-oracle fuzzing driver.
//
// Runs randomized scenarios through the optimized kernels and the src/ref
// oracles, diffs every enabled pair, and shrinks any divergence to a minimal
// repro, optionally serialized to a corpus directory.
//
// Usage:
//   scap_fuzz [--iterations N] [--seed S] [--corpus-dir DIR] [--no-shrink]
//             [--max-failures N] [--replay FILE]... [--self-test]
//
// Exit codes: 0 = clean (or self-test passed), 1 = divergence found
// (or self-test failed), 2 = usage / I/O error.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ref/fuzz.h"
#include "util/version.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--iterations N] [--seed S] [--corpus-dir DIR] [--no-shrink]\n"
               "       [--max-failures N] [--replay FILE]... [--self-test]\n"
               "       [--print-scenario SEED]\n";
  return 2;
}

int replay_files(const std::vector<std::string>& files) {
  int rc = 0;
  for (const std::string& path : files) {
    std::ifstream is(path);
    if (!is) {
      std::cerr << "scap_fuzz: cannot open " << path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << is.rdbuf();
    scap::ref::Scenario sc;
    try {
      sc = scap::ref::Scenario::parse(text.str());
    } catch (const std::exception& e) {
      std::cerr << "scap_fuzz: " << path << ": " << e.what() << "\n";
      return 2;
    }
    const scap::ref::ScenarioResult r = scap::ref::run_scenario(sc);
    if (r.ok()) {
      std::cout << "[replay] " << path << ": clean (" << sc.enabled_checks()
                << " oracle(s))";
      if (sc.check_atpg) {
        std::cout << "; atpg: " << r.atpg.cubes << " cube(s), "
                  << r.atpg.untestable << " untestable claim(s), "
                  << r.atpg.untestable_exhaustive << " against every S1, "
                  << r.atpg.replays << " replayed on a dirty Podem";
      }
      std::cout << "\n";
    } else {
      rc = 1;
      std::cout << "[replay] " << path << ": " << r.divergences.size()
                << " divergence(s)\n";
      for (const scap::ref::Divergence& d : r.divergences) {
        std::cout << "  [" << d.oracle << "] " << d.detail << "\n";
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  scap::ref::FuzzOptions opt;
  opt.iterations = 100;
  std::vector<std::string> replay;
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "scap_fuzz: " << what << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--iterations") {
        const char* v = next("--iterations");
        if (!v) return 2;
        opt.iterations = std::stoull(v);
      } else if (arg == "--seed") {
        const char* v = next("--seed");
        if (!v) return 2;
        opt.seed = std::stoull(v);
      } else if (arg == "--corpus-dir") {
        const char* v = next("--corpus-dir");
        if (!v) return 2;
        opt.corpus_dir = v;
      } else if (arg == "--max-failures") {
        const char* v = next("--max-failures");
        if (!v) return 2;
        opt.max_failures = std::stoull(v);
      } else if (arg == "--no-shrink") {
        opt.shrink = false;
      } else if (arg == "--replay") {
        const char* v = next("--replay");
        if (!v) return 2;
        replay.push_back(v);
      } else if (arg == "--print-scenario") {
        const char* v = next("--print-scenario");
        if (!v) return 2;
        std::cout << scap::ref::Scenario::random(std::stoull(v)).serialize();
        return 0;
      } else if (arg == "--self-test") {
        self_test = true;
      } else if (arg == "--version") {
        std::cout << "scap_fuzz " << scap::kVersion << "\n";
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::cerr << "scap_fuzz: unknown option " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      std::cerr << "scap_fuzz: bad value for " << arg << "\n";
      return 2;
    }
  }

  if (self_test) {
    const bool ok = scap::ref::run_self_test(&std::cout);
    std::cout << (ok ? "[self-test] PASS\n" : "[self-test] FAIL\n");
    return ok ? 0 : 1;
  }
  if (!replay.empty()) return replay_files(replay);

  const scap::ref::FuzzStats st = scap::ref::run_fuzz(opt, &std::cout);
  std::cout << "[scap_fuzz] " << st.executed << " scenario(s), "
            << st.failures.size() << " failure(s)\n"
            << "[scap_fuzz] atpg oracle: " << st.atpg.cubes
            << " detected cube(s) under four fills, " << st.atpg.untestable
            << " untestable claim(s), " << st.atpg.untestable_exhaustive
            << " of them against every S1, " << st.atpg.replays
            << " verdict(s) replayed on a dirty Podem\n";
  return st.ok() ? 0 : 1;
}
