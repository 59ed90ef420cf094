// PODEM test generation for transition delay faults under launch-off-capture.
//
// The two-frame broadside model is simulated directly (no physically expanded
// netlist): frame 1 is the scanned-in state S1, frame 2 sees S2 = D(S1) on
// active-domain flops and S1 on held flops. Three 3-valued planes are kept:
// frame-1 good, frame-2 good, and frame-2 faulty (the gross-delay model's
// stuck-at-v1 in frame 2). Decision variables are the scan bits S1 only --
// exactly what a tester controls; primary inputs are constants.
//
// Implication is event-driven: changing one scan bit repropagates only the
// affected cone (across the frame boundary through active flops), which keeps
// dynamic compaction affordable. Undoing a decision does not re-imply: every
// plane write after the fault is installed is logged on a trail, and popping
// a decision restores the trail to the decision's mark. Searches that cannot
// succeed fail fast: when no X-path (frame-2 nets still undetermined or
// already carrying the effect) links the fault site or any D-frontier gate
// to an observed flop D, there is no objective and the search backtracks at
// once. extend() continues from the current assignments to target a second
// fault without disturbing bits already committed -- that is what lets the
// ATPG engine pack many faults per pattern the way the commercial greedy
// tools the paper wraps do. adopt() loads a cube that generate() found on
// another Podem, so extend() can build on it without searching again.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "atpg/context.h"
#include "atpg/fault.h"
#include "atpg/pattern.h"
#include "netlist/netlist.h"

namespace scap {

namespace obs {
class Counter;
}

enum class PodemStatus : std::uint8_t { kDetected, kUntestable, kAborted };

struct PodemOptions {
  std::uint32_t backtrack_limit = 64;
  /// Mixed with the fault into the backtrace rotation each generate() starts
  /// from, so a caller can search an aborted fault again from another
  /// rotation by changing the seed.
  std::uint64_t seed = 0;
};

class Podem {
 public:
  Podem(const Netlist& nl, const TestContext& ctx, PodemOptions opt = {});

  /// Generate a cube detecting the fault, starting from a clean slate. Pure:
  /// status and cube depend only on the netlist, context, options and
  /// fault, never on what this object ran before -- which is what lets the
  /// ATPG engine run target searches speculatively on other Podems.
  PodemStatus generate(const TdfFault& fault, TestCube& out);

  /// Dynamic compaction: keep current assignments fixed and try to extend
  /// them to also detect `fault`, within extend_backtrack_limit(). On
  /// success `out` holds the merged cube; on failure the pre-call
  /// assignments are restored. The backtrace rotation continues from the
  /// preceding generate() / adopt() / extend() calls.
  PodemStatus extend(const TdfFault& fault, TestCube& out);

  /// Backtrack limit of extend(): a quarter of the generate() limit. Merges
  /// almost never need more backtracks, while the extends that exhaust a
  /// full limit would dominate compaction time.
  std::uint32_t extend_backtrack_limit() const {
    return opt_.backtrack_limit / 4;
  }

  /// Take over the result of a detected generate() run on another Podem
  /// with the same netlist, context and options: assign `cube`, which that
  /// call returned, and continue the backtrace rotation from `salt`, its
  /// backtrace_salt() afterwards. Every later extend() then behaves exactly
  /// as it would on that Podem. Only the bits that differ from the current
  /// assignments are re-implied, in one batched propagation; no fault is
  /// left installed.
  void adopt(const TestCube& cube, std::size_t salt);

  /// Backtrace rotation the next extend() starts from.
  std::size_t backtrace_salt() const { return backtrace_salt_; }

  /// Drop all assignments (generate() does this implicitly).
  void clear_assignments();

  /// Current cube (assignments made so far).
  TestCube cube() const;

  /// White-box validation hook: install `fault`, assign every test variable
  /// from `s1` (0/1 per variable), and report whether the implication sees the
  /// fault detected. Under a full assignment the 3-valued planes are exact,
  /// so this must agree with the fault simulator -- tests rely on that.
  bool probe(const TdfFault& fault, std::span<const std::uint8_t> s1);

  /// White-box invariant check: recompute every plane from scratch for the
  /// current assignments and installed fault, and compare with the
  /// incrementally maintained planes, effect flags, observed-effect count
  /// and D-frontier coverage. Returns an empty string when consistent, else
  /// what differs first.
  std::string self_check() const;

  /// Forward implications (decisions and flips); trail undo re-implies
  /// nothing and is not counted.
  std::uint64_t implications() const { return implications_; }
  std::uint64_t backtracks() const { return backtracks_; }

 private:
  enum Frame : std::uint8_t { kF1 = 0, kF2 = 1 };

  struct Objective {
    Frame frame;
    NetId net;
    int value;
  };
  struct Decision {
    FlopId flop;
    std::uint8_t value;
    bool flipped;
    std::size_t mark;  ///< trail size before the decision was implied
  };
  /// One overwritten plane entry: the old frame-1 value in `a`, or the old
  /// frame-2 good/faulty values in `a`/`b` plus the old effect flag.
  struct TrailEntry {
    NetId net;
    Frame frame;
    V3 a, b;
    std::uint8_t had_effect;
  };

  // -- plane maintenance ----------------------------------------------------
  void compute_planes(std::vector<V3>& f1, std::vector<V3>& g2,
                      std::vector<V3>& x2, bool with_fault) const;
  void rebuild_planes();
  void write_s1(FlopId f, int v);  ///< v in {0,1} or kBitX; only enqueues
  void set_s1(FlopId f, int v);    ///< write_s1, then propagate
  void update_f1(NetId n, V3 v);
  void update_f2(NetId n, V3 good, V3 faulty);
  void enqueue(Frame fr, GateId g);
  void propagate();
  void eval_gate(Frame fr, GateId g);
  V3 faulty_input(GateId g, std::uint8_t pin, NetId net) const;

  // -- fault bookkeeping ------------------------------------------------------
  void install_fault(const TdfFault& f);
  void reset_fault_plane();
  bool detected() const;

  // -- search -----------------------------------------------------------------
  PodemStatus run(std::size_t baseline, std::uint32_t backtrack_limit,
                  TestCube& out);
  std::optional<Objective> objective();
  bool x_path(NetId start);
  std::optional<std::pair<FlopId, int>> backtrace(Objective obj) const;
  void decide(FlopId f, int v, bool flipped);
  void pop_decision();
  void pop_to(std::size_t baseline);
  void undo_to(std::size_t mark);

  const Netlist* nl_;
  const TestContext* ctx_;
  PodemOptions opt_;

  std::vector<std::uint8_t> s1_;       ///< 0/1/kBitX per test variable
  std::vector<FlopId> los_succ_;       ///< per variable: flop fed at launch
  std::vector<V3> f1_, g2_, x2_;
  std::vector<std::uint32_t> obs_weight_;   ///< active flop D loads per net
  std::vector<std::uint8_t> has_effect_;    ///< frame-2 fault effect per net
  std::vector<std::uint8_t> x2_touched_;
  std::vector<NetId> x2_touched_list_;
  std::int64_t effect_obs_ = 0;

  std::vector<GateId> dfrontier_;
  std::vector<std::uint8_t> in_dfrontier_;

  // X-path verdicts, valid while xpath_epoch_[net] == epoch_ (one
  // objective() call).
  struct XPathFrame {
    NetId net;
    std::size_t next;  ///< next fanout gate to explore
  };
  std::vector<std::uint32_t> xpath_epoch_;
  std::vector<std::uint8_t> xpath_ok_;
  std::uint32_t epoch_ = 0;
  std::vector<XPathFrame> xstack_;

  // Bucketed worklist ordered by (frame, level).
  std::vector<std::vector<GateId>> buckets_;
  std::vector<std::uint8_t> queued_;  ///< per frame*num_gates+gate
  std::uint32_t min_key_ = 0;
  std::uint32_t keys_per_frame_ = 0;

  TdfFault fault_{};
  bool fault_installed_ = false;
  V3 stuck_ = V3::x();

  std::vector<Decision> stack_;
  std::vector<TrailEntry> trail_;
  /// Decisions below this stack index predate the installed fault (or were
  /// adopted): their trail entries were cleared with the old fault, so they
  /// undo by propagation.
  std::size_t trail_floor_ = 0;
  std::uint64_t implications_ = 0;
  std::uint64_t backtracks_ = 0;
  /// Backtrace rotation (path diversification): reset from the seed and the
  /// fault by generate(), set by adopt(), advanced on every backtrack.
  std::size_t backtrace_salt_ = 0;

  obs::Counter* generates_ctr_ = nullptr;
  obs::Counter* extends_ctr_ = nullptr;
  obs::Counter* implications_ctr_ = nullptr;
  obs::Counter* backtracks_ctr_ = nullptr;
};

}  // namespace scap
