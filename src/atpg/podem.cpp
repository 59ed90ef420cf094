#include "atpg/podem.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

#include "obs/metrics.h"

namespace scap {

Podem::Podem(const Netlist& nl, const TestContext& ctx, PodemOptions opt)
    : nl_(&nl), ctx_(&ctx), opt_(opt) {
  obs::Registry& reg = obs::Registry::global();
  generates_ctr_ = &reg.counter("atpg.podem_generates");
  extends_ctr_ = &reg.counter("atpg.podem_extends");
  implications_ctr_ = &reg.counter("atpg.implications");
  backtracks_ctr_ = &reg.counter("atpg.backtracks");
  s1_.assign(ctx.num_vars(), kBitX);
  if (ctx.los()) {
    // Per variable: the flop it feeds at the launch shift (linear chains
    // give each variable at most one successor).
    los_succ_.assign(ctx.num_vars(), kNullId);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      los_succ_[ctx.los_pred[f]] = f;
    }
  }
  f1_.assign(nl.num_nets(), V3::x());
  g2_.assign(nl.num_nets(), V3::x());
  x2_.assign(nl.num_nets(), V3::x());
  has_effect_.assign(nl.num_nets(), 0);
  x2_touched_.assign(nl.num_nets(), 0);
  in_dfrontier_.assign(nl.num_gates(), 0);
  keys_per_frame_ = nl.max_level() + 1;
  buckets_.resize(2 * static_cast<std::size_t>(keys_per_frame_));
  queued_.assign(2 * nl.num_gates(), 0);
  min_key_ = static_cast<std::uint32_t>(buckets_.size());

  obs_weight_.assign(nl.num_nets(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (ctx.active[f]) ++obs_weight_[nl.flop(f).d];
  }
  xpath_epoch_.assign(nl.num_nets(), 0);
  xpath_ok_.assign(nl.num_nets(), 0);
  rebuild_planes();
}

void Podem::compute_planes(std::vector<V3>& f1, std::vector<V3>& g2,
                           std::vector<V3>& x2, bool with_fault) const {
  const Netlist& nl = *nl_;
  const bool stem = with_fault && fault_.site == FaultSite::kStem;
  const bool branch = with_fault && fault_.site == FaultSite::kGateBranch;
  auto bit = [&](std::uint32_t var) {
    return s1_[var] == kBitX ? V3::x() : V3::of(s1_[var]);
  };
  auto set2 = [&](NetId n, V3 good, V3 faulty) {
    g2[n] = good;
    x2[n] = stem && n == fault_.net ? stuck_ : faulty;
  };
  for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
    const NetId n = nl.primary_inputs()[i];
    f1[n] = V3::of(ctx_->pi_values[i]);
    set2(n, f1[n], f1[n]);
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) f1[nl.flop(f).q] = bit(f);
  std::array<V3, 4> ins{};
  std::array<V3, 4> fins{};
  for (GateId g : nl.topo_order()) {
    const auto in_nets = nl.gate_inputs(g);
    for (std::size_t i = 0; i < in_nets.size(); ++i) ins[i] = f1[in_nets[i]];
    f1[nl.gate(g).out] =
        eval_v3(nl.gate(g).type, std::span<const V3>(ins.data(), in_nets.size()));
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const V3 v = ctx_->los()        ? bit(ctx_->los_pred[f])
                 : ctx_->active[f] ? f1[nl.flop(f).d]
                                   : bit(f);
    set2(nl.flop(f).q, v, v);
  }
  for (GateId g : nl.topo_order()) {
    const auto in_nets = nl.gate_inputs(g);
    for (std::size_t i = 0; i < in_nets.size(); ++i) {
      ins[i] = g2[in_nets[i]];
      fins[i] = branch && g == fault_.load && i == fault_.pin
                    ? stuck_
                    : x2[in_nets[i]];
    }
    const CellType t = nl.gate(g).type;
    set2(nl.gate(g).out,
         eval_v3(t, std::span<const V3>(ins.data(), in_nets.size())),
         eval_v3(t, std::span<const V3>(fins.data(), in_nets.size())));
  }
}

void Podem::rebuild_planes() {
  compute_planes(f1_, g2_, x2_, false);
  std::fill(has_effect_.begin(), has_effect_.end(), 0);
  effect_obs_ = 0;
  x2_touched_list_.clear();
  std::fill(x2_touched_.begin(), x2_touched_.end(), 0);
  dfrontier_.clear();
  std::fill(in_dfrontier_.begin(), in_dfrontier_.end(), 0);
  fault_installed_ = false;
}

void Podem::enqueue(Frame fr, GateId g) {
  const std::size_t qi = static_cast<std::size_t>(fr) * nl_->num_gates() + g;
  if (queued_[qi]) return;
  queued_[qi] = 1;
  const std::uint32_t key =
      static_cast<std::uint32_t>(fr) * keys_per_frame_ + nl_->gate(g).level;
  buckets_[key].push_back(g);
  min_key_ = std::min(min_key_, key);
}

void Podem::update_f1(NetId n, V3 v) {
  if (f1_[n] == v) return;
  trail_.push_back(TrailEntry{n, kF1, f1_[n], V3::x(), 0});
  f1_[n] = v;
  for (GateId g : nl_->fanout_gates(n)) enqueue(kF1, g);
  if (ctx_->los()) return;  // LOS: the launch shift, not D capture, sets S2
  for (FlopId f : nl_->fanout_flops(n)) {
    if (ctx_->active[f]) update_f2(nl_->flop(f).q, v, v);
  }
}

void Podem::update_f2(NetId n, V3 good, V3 faulty) {
  if (fault_installed_ && fault_.site == FaultSite::kStem && n == fault_.net) {
    faulty = stuck_;
  }
  if (g2_[n] == good && x2_[n] == faulty) return;
  trail_.push_back(TrailEntry{n, kF2, g2_[n], x2_[n], has_effect_[n]});
  g2_[n] = good;
  x2_[n] = faulty;
  if (faulty != good && !x2_touched_[n]) {
    x2_touched_[n] = 1;
    x2_touched_list_.push_back(n);
  }
  const bool eff = !good.is_x() && !faulty.is_x() && good != faulty;
  if (eff != (has_effect_[n] != 0)) {
    has_effect_[n] = eff ? 1 : 0;
    effect_obs_ += (eff ? 1 : -1) * static_cast<std::int64_t>(obs_weight_[n]);
    if (eff) {
      for (GateId g : nl_->fanout_gates(n)) {
        if (!in_dfrontier_[g]) {
          in_dfrontier_[g] = 1;
          dfrontier_.push_back(g);
        }
      }
    }
  }
  for (GateId g : nl_->fanout_gates(n)) enqueue(kF2, g);
}

V3 Podem::faulty_input(GateId g, std::uint8_t pin, NetId net) const {
  if (fault_installed_ && fault_.site == FaultSite::kGateBranch &&
      fault_.load == g && fault_.pin == pin) {
    return stuck_;
  }
  return x2_[net];
}

void Podem::eval_gate(Frame fr, GateId g) {
  const auto in_nets = nl_->gate_inputs(g);
  std::array<V3, 4> ins{};
  if (fr == kF1) {
    for (std::size_t i = 0; i < in_nets.size(); ++i) ins[i] = f1_[in_nets[i]];
    update_f1(nl_->gate(g).out,
              eval_v3(nl_->gate(g).type,
                      std::span<const V3>(ins.data(), in_nets.size())));
    return;
  }
  std::array<V3, 4> fins{};
  for (std::size_t i = 0; i < in_nets.size(); ++i) {
    ins[i] = g2_[in_nets[i]];
    fins[i] = faulty_input(g, static_cast<std::uint8_t>(i), in_nets[i]);
  }
  const CellType t = nl_->gate(g).type;
  const V3 good =
      eval_v3(t, std::span<const V3>(ins.data(), in_nets.size()));
  const V3 faulty =
      eval_v3(t, std::span<const V3>(fins.data(), in_nets.size()));
  update_f2(nl_->gate(g).out, good, faulty);
}

void Podem::propagate() {
  for (std::uint32_t k = min_key_; k < buckets_.size(); ++k) {
    auto& bucket = buckets_[k];
    // Evaluation can only enqueue strictly later keys, so draining in key
    // order evaluates every gate at most once per propagate() call.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      const Frame fr = k < keys_per_frame_ ? kF1 : kF2;
      queued_[static_cast<std::size_t>(fr) * nl_->num_gates() + g] = 0;
      eval_gate(fr, g);
    }
    bucket.clear();
  }
  min_key_ = static_cast<std::uint32_t>(buckets_.size());
}

void Podem::write_s1(FlopId var, int v) {
  s1_[var] = static_cast<std::uint8_t>(v);
  const V3 val = v == kBitX ? V3::x() : V3::of(v);
  if (var < nl_->num_flops()) {
    const NetId q = nl_->flop(var).q;
    update_f1(q, val);
    if (!ctx_->los() && !ctx_->active[var]) update_f2(q, val, val);
  }
  if (ctx_->los()) {
    const FlopId succ = los_succ_[var];
    if (succ != kNullId) update_f2(nl_->flop(succ).q, val, val);
  }
}

void Podem::set_s1(FlopId var, int v) {
  write_s1(var, v);
  propagate();
  ++implications_;
}

void Podem::reset_fault_plane() {
  for (NetId n : x2_touched_list_) {
    x2_[n] = g2_[n];
    x2_touched_[n] = 0;
    if (has_effect_[n]) {
      has_effect_[n] = 0;
      effect_obs_ -= obs_weight_[n];
    }
  }
  x2_touched_list_.clear();
  for (GateId g : dfrontier_) in_dfrontier_[g] = 0;
  dfrontier_.clear();
  fault_installed_ = false;
}

void Podem::install_fault(const TdfFault& f) {
  reset_fault_plane();
  fault_ = f;
  stuck_ = V3::of(f.v1());
  fault_installed_ = true;
  switch (f.site) {
    case FaultSite::kStem:
      update_f2(f.net, g2_[f.net], stuck_);
      break;
    case FaultSite::kGateBranch:
      enqueue(kF2, f.load);
      if (!in_dfrontier_[f.load]) {
        in_dfrontier_[f.load] = 1;
        dfrontier_.push_back(f.load);
      }
      break;
    case FaultSite::kFlopBranch:
      break;  // captured directly; no propagation machinery needed
  }
  propagate();
  // The trail starts at the installed fault: older entries hold the previous
  // fault's frame-2 planes.
  trail_.clear();
  trail_floor_ = stack_.size();
}

bool Podem::detected() const {
  const V3 a1 = f1_[fault_.net];
  if (a1.is_x() || a1.value() != fault_.v1()) return false;
  if (fault_.site == FaultSite::kFlopBranch) {
    const V3 a2 = g2_[fault_.net];
    return !a2.is_x() && a2.value() == fault_.v2() &&
           ctx_->active[fault_.load] != 0;
  }
  return effect_obs_ > 0;
}

bool Podem::x_path(NetId start) {
  auto verdict = [&](NetId n, bool ok) {
    xpath_epoch_[n] = epoch_;
    xpath_ok_[n] = ok ? 1 : 0;
    return ok;
  };
  // A net can still carry the effect if it already does or either frame-2
  // value is open; known, equal values block for good.
  auto open = [&](NetId n) {
    return has_effect_[n] || g2_[n].is_x() || x2_[n].is_x();
  };
  if (xpath_epoch_[start] == epoch_) return xpath_ok_[start] != 0;
  if (!open(start)) return verdict(start, false);
  if (obs_weight_[start] > 0) return verdict(start, true);
  // Iterative DFS over fanout gates (frame 2 is acyclic). A net's verdict is
  // recorded only once its whole fanout is explored, or on reaching an
  // observed D, when every net on the stack has a path too.
  xstack_.clear();
  xstack_.push_back(XPathFrame{start, 0});
  while (!xstack_.empty()) {
    const NetId n = xstack_.back().net;
    const auto fo = nl_->fanout_gates(n);
    if (xstack_.back().next == fo.size()) {
      verdict(n, false);
      xstack_.pop_back();
      continue;
    }
    const NetId m = nl_->gate(fo[xstack_.back().next++]).out;
    bool reached;
    if (xpath_epoch_[m] == epoch_) {
      reached = xpath_ok_[m] != 0;
    } else if (!open(m)) {
      reached = verdict(m, false);
    } else if (obs_weight_[m] > 0) {
      reached = verdict(m, true);
    } else {
      xstack_.push_back(XPathFrame{m, 0});
      continue;
    }
    if (reached) {
      for (const XPathFrame& fr : xstack_) verdict(fr.net, true);
      return true;
    }
  }
  return false;
}

std::optional<Podem::Objective> Podem::objective() {
  const NetId site = fault_.net;
  const V3 a1 = f1_[site];
  if (!a1.is_x() && a1.value() != fault_.v1()) return std::nullopt;
  const V3 a2 = g2_[site];
  if (!a2.is_x() && a2.value() != fault_.v2()) return std::nullopt;
  if (fault_.site == FaultSite::kFlopBranch) {
    // Captured directly: activation is all there is; once complete and not
    // detected, the load flop is held.
    if (a1.is_x()) return Objective{kF1, site, fault_.v1()};
    if (a2.is_x()) return Objective{kF2, site, fault_.v2()};
    return std::nullopt;
  }
  // X-path check: the effect must still be able to reach an observed D from
  // the site (activation) or from a D-frontier gate (propagation). Verdicts
  // are memoised for this call only; the planes change between calls.
  if (++epoch_ == 0) {
    std::fill(xpath_epoch_.begin(), xpath_epoch_.end(), 0);
    epoch_ = 1;
  }
  if (a1.is_x() || a2.is_x()) {
    const NetId from = fault_.site == FaultSite::kGateBranch
                           ? nl_->gate(fault_.load).out
                           : site;
    if (!x_path(from)) return std::nullopt;
    if (a1.is_x()) return Objective{kF1, site, fault_.v1()};
    return Objective{kF2, site, fault_.v2()};
  }

  // Propagation phase: scan (and compact) the D-frontier, preferring gates
  // closest to the observation points.
  std::optional<Objective> best;
  std::uint32_t best_level = 0;
  std::size_t w = 0;
  // Pin-level fault effect: net-level difference, or the faulty pin of a
  // branch fault itself once the net carries the fault-free value.
  auto pin_has_effect = [&](GateId g, std::uint8_t pin, NetId in) {
    if (has_effect_[in]) return true;
    if (fault_installed_ && fault_.site == FaultSite::kGateBranch &&
        fault_.load == g && fault_.pin == pin) {
      const V3 gv = g2_[in];
      return !gv.is_x() && gv != stuck_;
    }
    return false;
  };
  for (std::size_t i = 0; i < dfrontier_.size(); ++i) {
    const GateId g = dfrontier_[i];
    const auto ins = nl_->gate_inputs(g);
    bool any_effect = false;
    for (std::size_t pin = 0; pin < ins.size(); ++pin) {
      if (pin_has_effect(g, static_cast<std::uint8_t>(pin), ins[pin])) {
        any_effect = true;
        break;
      }
    }
    if (fault_installed_ && fault_.site == FaultSite::kGateBranch &&
        fault_.load == g) {
      any_effect = true;  // keep the injection gate resident in the frontier
    }
    if (!any_effect) {
      in_dfrontier_[g] = 0;  // stale; drop from the list
      continue;
    }
    dfrontier_[w++] = g;
    const NetId out = nl_->gate(g).out;
    const bool undetermined = g2_[out].is_x() || x2_[out].is_x();
    if (!undetermined) continue;  // already propagated or blocked here
    if (best && nl_->gate(g).level <= best_level) continue;

    const CellType t = nl_->gate(g).type;
    std::optional<Objective> obj;
    switch (gate_class(t)) {
      case GateClass::kAndLike:
      case GateClass::kOrLike:
      case GateClass::kXorLike: {
        const int v = gate_class(t) == GateClass::kAndLike ? 1
                      : gate_class(t) == GateClass::kOrLike ? 0
                                                            : 0;
        for (NetId in : ins) {
          if (g2_[in].is_x()) {
            obj = Objective{kF2, in, v};
            break;
          }
        }
        break;
      }
      case GateClass::kMux: {
        const NetId s = ins[0], a = ins[1], b = ins[2];
        const bool eff_a = pin_has_effect(g, 1, a);
        const bool eff_b = pin_has_effect(g, 2, b);
        if (eff_a && g2_[s].is_x()) {
          obj = Objective{kF2, s, 0};
        } else if (eff_b && g2_[s].is_x()) {
          obj = Objective{kF2, s, 1};
        } else if (pin_has_effect(g, 0, s)) {
          // Effect on the select: data inputs must differ.
          if (g2_[a].is_x()) {
            obj = Objective{kF2, a, g2_[b].is_x() ? 0 : 1 - g2_[b].value()};
          } else if (g2_[b].is_x()) {
            obj = Objective{kF2, b, 1 - g2_[a].value()};
          }
        }
        break;
      }
      case GateClass::kBufLike:
      case GateClass::kTie:
        break;  // nothing to justify; output follows automatically
    }
    if (obj && x_path(out)) {
      best = obj;
      best_level = nl_->gate(g).level;
    }
  }
  dfrontier_.resize(w);
  return best;
}

std::optional<std::pair<FlopId, int>> Podem::backtrace(Objective obj) const {
  Frame frame = obj.frame;
  NetId net = obj.net;
  int v = obj.value;
  // Walk X-valued nets toward a controllable scan bit. Bounded by twice the
  // netlist depth (frame 2 crosses into frame 1 through active flops).
  for (;;) {
    const Net& nr = nl_->net(net);
    if (nr.driver_kind == DriverKind::kInput) return std::nullopt;
    if (nr.driver_kind == DriverKind::kFlop) {
      const FlopId f = nr.driver;
      if (frame == kF2) {
        if (ctx_->los()) {
          const std::uint32_t var = ctx_->los_pred[f];
          if (s1_[var] == kBitX) return std::make_pair(var, v);
          return std::nullopt;
        }
        if (ctx_->active[f]) {
          frame = kF1;
          net = nl_->flop(f).d;
          continue;
        }
      }
      if (s1_[f] == kBitX) return std::make_pair(f, v);
      return std::nullopt;  // defensively: assigned bit cannot be re-decided
    }
    const GateId g = nr.driver;
    const CellType t = nl_->gate(g).type;
    const auto ins = nl_->gate_inputs(g);
    auto known = [&](NetId m) {
      return frame == kF1 ? !f1_[m].is_x() : !g2_[m].is_x();
    };
    auto value_of = [&](NetId m) {
      return frame == kF1 ? f1_[m].value() : g2_[m].value();
    };
    const int vf = v ^ (is_inverting(t) ? 1 : 0);
    switch (gate_class(t)) {
      case GateClass::kTie:
        return std::nullopt;
      case GateClass::kBufLike:
        net = ins[0];
        v = vf;
        continue;
      case GateClass::kAndLike:
      case GateClass::kOrLike: {
        // Rotate which X input is followed so successive backtracks explore
        // different justification paths instead of re-treading the first one.
        NetId pick = kNullId;
        const std::size_t n = ins.size();
        for (std::size_t k = 0; k < n; ++k) {
          const NetId in = ins[(k + backtrace_salt_) % n];
          if (!known(in)) {
            pick = in;
            break;
          }
        }
        if (pick == kNullId) return std::nullopt;
        net = pick;
        v = vf;
        continue;
      }
      case GateClass::kXorLike: {
        const NetId a = ins[0], b = ins[1];
        if (!known(a)) {
          net = a;
          v = known(b) ? (vf ^ value_of(b)) : vf;
        } else if (!known(b)) {
          net = b;
          v = vf ^ value_of(a);
        } else {
          return std::nullopt;
        }
        continue;
      }
      case GateClass::kMux: {
        const NetId s = ins[0], a = ins[1], b = ins[2];
        if (known(s)) {
          net = value_of(s) ? b : a;
          // v unchanged (mux passes data through)
          continue;
        }
        if (known(a) || known(b)) {
          if (known(a) && value_of(a) == v) {
            net = s;
            v = 0;
          } else if (known(b) && value_of(b) == v) {
            net = s;
            v = 1;
          } else if (!known(a)) {
            net = a;  // aim the A path at the target value
          } else {
            net = b;
          }
          continue;
        }
        net = a;
        continue;
      }
    }
  }
}

void Podem::decide(FlopId f, int v, bool flipped) {
  stack_.push_back(
      Decision{f, static_cast<std::uint8_t>(v), flipped, trail_.size()});
  set_s1(f, v);
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    if (e.frame == kF1) {
      f1_[e.net] = e.a;
    } else {
      g2_[e.net] = e.a;
      x2_[e.net] = e.b;
      if (has_effect_[e.net] != e.had_effect) {
        has_effect_[e.net] = e.had_effect;
        effect_obs_ += (e.had_effect ? 1 : -1) *
                       static_cast<std::int64_t>(obs_weight_[e.net]);
      }
    }
    trail_.pop_back();
  }
}

// Undo never touches the D-frontier: un-assigning a bit can only turn values
// back into X, so no effect appears that the frontier lacks, and objective()
// drops entries that went stale.
void Podem::pop_decision() {
  const Decision& d = stack_.back();
  if (stack_.size() > trail_floor_) {
    undo_to(d.mark);
    s1_[d.flop] = kBitX;
  } else {
    set_s1(d.flop, kBitX);
  }
  stack_.pop_back();
}

void Podem::pop_to(std::size_t baseline) {
  while (stack_.size() > baseline) pop_decision();
}

TestCube Podem::cube() const {
  TestCube c;
  c.s1 = s1_;
  return c;
}

void Podem::clear_assignments() {
  pop_to(0);
  // Any non-decision residue (defensive): rebuild from scratch if some bit
  // is still assigned.
  for (auto b : s1_) {
    if (b != kBitX) {
      std::fill(s1_.begin(), s1_.end(), kBitX);
      rebuild_planes();
      break;
    }
  }
}

PodemStatus Podem::run(std::size_t baseline, std::uint32_t backtrack_limit,
                       TestCube& out) {
  std::uint32_t backtracks = 0;
  for (;;) {
    if (detected()) {
      out = cube();
      return PodemStatus::kDetected;
    }
    std::optional<Objective> obj = objective();
    std::optional<std::pair<FlopId, int>> dec;
    if (obj) dec = backtrace(*obj);
    if (dec) {
      decide(dec->first, dec->second, false);
      continue;
    }
    // Backtrack: flip the most recent unflipped decision.
    ++backtrace_salt_;
    bool flipped = false;
    while (stack_.size() > baseline) {
      Decision& d = stack_.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value ^= 1;
        set_s1(d.flop, d.value);
        flipped = true;
        break;
      }
      pop_decision();
    }
    if (!flipped) {
      return baseline == 0 ? PodemStatus::kUntestable : PodemStatus::kAborted;
    }
    ++backtracks_;
    if (++backtracks > backtrack_limit) {
      pop_to(baseline);
      return PodemStatus::kAborted;
    }
  }
}

bool Podem::probe(const TdfFault& fault, std::span<const std::uint8_t> s1) {
  pop_to(0);
  install_fault(fault);
  for (FlopId f = 0; f < s1.size(); ++f) decide(f, s1[f], true);
  const bool hit = detected();
  pop_to(0);
  reset_fault_plane();
  return hit;
}

std::string Podem::self_check() const {
  const std::size_t nn = nl_->num_nets();
  std::vector<V3> f1(nn), g2(nn), x2(nn);
  compute_planes(f1, g2, x2, fault_installed_);
  std::int64_t effect_obs = 0;
  for (NetId n = 0; n < nn; ++n) {
    const char* plane = f1[n] != f1_[n]   ? "frame-1"
                        : g2[n] != g2_[n] ? "frame-2 good"
                        : x2[n] != x2_[n] ? "frame-2 faulty"
                                          : nullptr;
    const std::string& name = nl_->net_name(n);
    if (plane) return std::string(plane) + " value of net " + name;
    const bool eff = !g2[n].is_x() && !x2[n].is_x() && g2[n] != x2[n];
    if (eff != (has_effect_[n] != 0)) return "effect flag of net " + name;
    if (!eff) continue;
    effect_obs += obs_weight_[n];
    // X-path soundness rests on every gate fed by an effect being in the
    // D-frontier.
    for (GateId g : nl_->fanout_gates(n)) {
      if (!in_dfrontier_[g]) return "D-frontier misses a load of net " + name;
    }
  }
  if (effect_obs != effect_obs_) return "observed-effect count";
  return {};
}

PodemStatus Podem::generate(const TdfFault& fault, TestCube& out) {
  const std::uint64_t impl0 = implications_, bt0 = backtracks_;
  pop_to(0);
  install_fault(fault);
  backtrace_salt_ = static_cast<std::size_t>(
      opt_.seed + fault.net + fault.pin + static_cast<std::uint64_t>(fault.type));
  const PodemStatus st = run(0, opt_.backtrack_limit, out);
  if (obs::metrics_enabled()) {
    generates_ctr_->add(1);
    implications_ctr_->add(implications_ - impl0);
    backtracks_ctr_->add(backtracks_ - bt0);
  }
  return st;
}

void Podem::adopt(const TestCube& cube, std::size_t salt) {
  // Back to the planes of the assignments below the trail floor, fault-free.
  pop_to(trail_floor_);
  reset_fault_plane();
  // Only the bits that differ from the new cube change; one propagation
  // then settles every cone they feed.
  stack_.clear();
  for (FlopId v = 0; v < s1_.size(); ++v) {
    if (s1_[v] != cube.s1[v]) write_s1(v, cube.s1[v]);
    if (cube.s1[v] != kBitX) stack_.push_back(Decision{v, cube.s1[v], true, 0});
  }
  propagate();
  // Every adopted decision undoes by propagation, like an extend()
  // baseline's.
  trail_.clear();
  trail_floor_ = stack_.size();
  backtrace_salt_ = salt;
}

PodemStatus Podem::extend(const TdfFault& fault, TestCube& out) {
  const std::uint64_t impl0 = implications_, bt0 = backtracks_;
  const std::size_t baseline = stack_.size();
  install_fault(fault);
  const PodemStatus st = run(baseline, extend_backtrack_limit(), out);
  if (st != PodemStatus::kDetected) pop_to(baseline);
  if (obs::metrics_enabled()) {
    extends_ctr_->add(1);
    implications_ctr_->add(implications_ - impl0);
    backtracks_ctr_->add(backtracks_ - bt0);
  }
  return st;
}

}  // namespace scap
