#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

namespace {

bool valid_delay(double d) { return std::isfinite(d) && d > 0.0; }

/// Calendar buckets per smallest gate delay. An evaluation at `now` lands at
/// least this many buckets later, so it never joins the bucket being drained
/// (any value >= 2 keeps the commit order exact). Narrower buckets hold fewer
/// events to sort, at the cost of more empty buckets to step over.
constexpr double kBucketsPerMinDelay = 16.0;

/// eventsim.* counter handles, resolved once (the registry never erases).
struct SimCounters {
  obs::Counter& runs;
  obs::Counter& toggles;
  obs::Counter& events;
  obs::Counter& reuse;
};

const SimCounters& sim_counters() {
  static const SimCounters counters = [] {
    obs::Registry& reg = obs::Registry::global();
    return SimCounters{reg.counter("eventsim.runs"),
                       reg.counter("eventsim.toggles"),
                       reg.counter("eventsim.events"),
                       reg.counter("eventsim.workspace.reuse")};
  }();
  return counters;
}

}  // namespace

DelayModel::DelayModel(const Netlist& nl, const TechLibrary& lib,
                       const Parasitics& par) {
  base_ns_.resize(nl.num_gates());
  evaluated_.resize(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double load = par.gate_load_pf(nl, g);
    const CellType type = nl.gate(g).type;
    base_ns_[g] = {lib.gate_delay_ns(type, false, load),
                   lib.gate_delay_ns(type, true, load)};
    evaluated_[g] = nl.gate(g).in_count > 0;
    if (evaluated_[g] &&
        !(valid_delay(base_ns_[g][0]) && valid_delay(base_ns_[g][1]))) {
      throw std::invalid_argument(
          "DelayModel: gate " + std::to_string(g) + " (" +
          std::string(cell_name(type)) + ") has a delay that is not > 0");
    }
  }
  delay_ns_ = base_ns_;
  refresh_extremes();
}

void DelayModel::set_droop(const TechLibrary& lib,
                           std::span<const double> gate_droop_v) {
  if (gate_droop_v.empty()) {
    delay_ns_ = base_ns_;
    refresh_extremes();
    return;
  }
  if (gate_droop_v.size() != base_ns_.size()) {
    throw std::invalid_argument(
        "DelayModel::set_droop: droop vector has " +
        std::to_string(gate_droop_v.size()) + " entries for " +
        std::to_string(base_ns_.size()) + " gates");
  }
  // Validate before writing, so a rejected droop map leaves the model as is.
  for (std::size_t g = 0; g < base_ns_.size(); ++g) {
    const double k = 1.0 + lib.k_volt() * gate_droop_v[g];
    if (evaluated_[g] && !(valid_delay(base_ns_[g][0] * k) &&
                           valid_delay(base_ns_[g][1] * k))) {
      throw std::invalid_argument(
          "DelayModel::set_droop: droop " + std::to_string(gate_droop_v[g]) +
          " V derates gate " + std::to_string(g) + " to a delay that is not > 0");
    }
  }
  for (std::size_t g = 0; g < base_ns_.size(); ++g) {
    const double k = 1.0 + lib.k_volt() * gate_droop_v[g];
    delay_ns_[g] = {base_ns_[g][0] * k, base_ns_[g][1] * k};
  }
  refresh_extremes();
}

void DelayModel::refresh_extremes() {
  min_ns_ = 0.0;
  max_ns_ = 0.0;
  bool first = true;
  for (std::size_t g = 0; g < delay_ns_.size(); ++g) {
    if (!evaluated_[g]) continue;
    const auto [lo, hi] = std::minmax(delay_ns_[g][0], delay_ns_[g][1]);
    min_ns_ = first ? lo : std::min(min_ns_, lo);
    max_ns_ = first ? hi : std::max(max_ns_, hi);
    first = false;
  }
}

/// Transport-delay scheduling with cancel-on-reschedule.
///
/// When a gate re-evaluates at time t it schedules its (possibly unchanged)
/// output value at t + d(edge) and cancels any of its pending output events
/// at times >= t + d: those were computed from older input states that the
/// new evaluation supersedes (with unequal rise/fall delays a later
/// evaluation can fire *earlier*). This is the standard transport semantics:
/// the last event on every net comes from the last input change, so final
/// values equal the zero-delay evaluation of the final inputs, while hazard
/// pulses wide enough to clear the gate delay propagate and burn switching
/// power -- exactly what a VCD from a gate-level timing simulation shows.
///
/// Events commit in (time, schedule order), the order of a binary heap keyed
/// on (t, stamp). The queue is a calendar (R. Brown, CACM 31(10), 1988): a
/// ring of time buckets narrower than half the smallest gate delay, so an
/// evaluation always schedules into a later bucket than the one being
/// drained. Each bucket is gathered once and sorted by (t, schedule order).
/// Stimuli, which may be spread over any span, are sorted up front and merged
/// into the bucket their time falls in; when the ring is empty the drain
/// jumps straight to the next stimulus bucket.
void EventSim::run(std::span<const std::uint8_t> initial_net_values,
                   std::span<const Stimulus> stimuli, Workspace& ws,
                   ToggleSink& sink) const {
  SCAP_TRACE_SCOPE("eventsim.run");
  using Ws = Workspace;
  constexpr std::uint32_t kNil = Ws::kNil;
  const Netlist& nl = *nl_;
  const DelayModel& dm = *dm_;

  // Warm the workspace: the pool, the per-net lists and the ring all drain
  // back to empty by the time a run returns, so only capacity growth
  // (tracked for the reuse gauges) can touch the allocator here.
  bool grew = false;
  auto push = [&grew](auto& vec, const auto& item) {
    if (vec.size() == vec.capacity()) grew = true;
    vec.push_back(item);
  };
  if (!ws.drained_) {  // a sink threw mid-run: drop the leftover events
    std::fill(ws.net_tail_.begin(), ws.net_tail_.end(), kNil);
    std::fill(ws.ring_.begin(), ws.ring_.end(), Ws::Bucket{});
  }
  ws.drained_ = false;
  if (ws.net_tail_.size() < nl.num_nets()) {
    ws.net_tail_.resize(nl.num_nets(), kNil);
    grew = true;
  }
  if (ws.value_.capacity() < initial_net_values.size()) grew = true;
  ws.value_.assign(initial_net_values.begin(), initial_net_values.end());
  auto& value = ws.value_;
  auto& nodes = ws.nodes_;

  // Bucket geometry for this delay model (derating moves it).
  const double min_d = dm.min_delay_ns();
  const double max_d = dm.max_delay_ns();
  const double width = min_d > 0.0 ? min_d / kBucketsPerMinDelay : 1.0;
  const double inv_width = 1.0 / width;
  // A pending evaluation lies at most max_d past the bucket being drained.
  std::size_t ring_size = 1;
  while (static_cast<double>(ring_size) < max_d * inv_width + 3.0) {
    ring_size <<= 1;
  }
  if (ws.ring_.size() < ring_size) {
    if (ws.ring_.capacity() < ring_size) grew = true;
    ws.ring_.resize(ring_size);
  }
  const std::size_t mask = ws.ring_.size() - 1;

  // Every node is free again at the end of a run, so the pool restarts as a
  // bump allocator; recycled nodes are reused first.
  std::uint32_t used = 0;
  ws.free_ = kNil;
  auto alloc = [&]() -> std::uint32_t {
    if (ws.free_ != kNil) {
      const std::uint32_t n = ws.free_;
      ws.free_ = nodes[n].next;
      return n;
    }
    if (used == nodes.size()) {
      assert(nodes.size() < kNil / 2);
      nodes.resize(std::max<std::size_t>(64, 2 * nodes.size()));
      grew = true;
    }
    return used++;
  };
  // Append an event to its net's pending list, cancelling the pending events
  // it supersedes (times >= t, necessarily at the back of the list).
  auto schedule = [&](NetId net, double t, std::uint8_t v) {
    std::uint32_t prev = ws.net_tail_[net];
    while (prev != kNil && nodes[prev].t_ns >= t) {
      nodes[prev].cancelled = true;
      prev = nodes[prev].net_prev;
    }
    const std::uint32_t n = alloc();
    nodes[n] = Ws::Node{t, net, kNil, prev, kNil, v, false};
    if (prev != kNil) nodes[prev].net_next = n;
    ws.net_tail_[net] = n;
    return n;
  };

  sink.on_begin(initial_net_values);

  ws.stimuli_.clear();
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    const Stimulus& s = stimuli[i];
    push(ws.stimuli_, Ws::Due{s.t_ns, static_cast<std::uint32_t>(i),
                              schedule(s.net, s.t_ns, s.value)});
  }
  std::sort(ws.stimuli_.begin(), ws.stimuli_.end());
  const double t_base = ws.stimuli_.empty() ? 0.0 : ws.stimuli_.front().t_ns;
  auto bucket_of = [&](double t) {
    return static_cast<std::int64_t>((t - t_base) * inv_width);
  };
  std::size_t queued = 0;
  auto enqueue = [&](std::uint32_t n, double t) {
    Ws::Bucket& b = ws.ring_[static_cast<std::size_t>(bucket_of(t)) & mask];
    if (b.tail == kNil) {
      b.head = n;
    } else {
      nodes[b.tail].next = n;
    }
    b.tail = n;
    ++queued;
  };

  std::array<std::uint8_t, kMaxGateInputs> ins{};
  auto eval_gate = [&](GateId g, CellType type) -> std::uint8_t {
    const auto in = nl.gate_inputs(g);
    for (std::size_t k = 0; k < in.size(); ++k) ins[k] = value[in[k]];
    return eval_scalar(type,
                       std::span<const std::uint8_t>(ins.data(), in.size()));
  };

  SimStats stats;
  const std::uint32_t num_stimuli = static_cast<std::uint32_t>(stimuli.size());
  std::size_t next_stimulus = 0;
  std::int64_t cur = 0;
  while (next_stimulus < num_stimuli || queued > 0) {
    if (queued == 0) cur = bucket_of(ws.stimuli_[next_stimulus].t_ns);

    // Gather the bucket in schedule order -- its stimuli (the earliest
    // stamps), then its chain (appended in schedule order) -- so sorting by
    // (t, position) reproduces the heap's (t, stamp) commit order.
    ws.batch_.clear();
    while (next_stimulus < num_stimuli &&
           bucket_of(ws.stimuli_[next_stimulus].t_ns) == cur) {
      push(ws.batch_, ws.stimuli_[next_stimulus++]);
    }
    Ws::Bucket& bucket = ws.ring_[static_cast<std::size_t>(cur) & mask];
    std::uint32_t seq = num_stimuli;
    for (std::uint32_t n = bucket.head; n != kNil; n = nodes[n].next) {
      push(ws.batch_, Ws::Due{nodes[n].t_ns, seq++, n});
      --queued;
    }
    bucket = Ws::Bucket{};
    std::sort(ws.batch_.begin(), ws.batch_.end());

    for (const Ws::Due& due : ws.batch_) {
      ++stats.num_events_processed;
      Ws::Node& e = nodes[due.node];
      const NetId net = e.net;
      const std::uint8_t v = e.value;
      const bool cancelled = e.cancelled;
      const std::uint32_t successor = e.net_next;
      e.next = ws.free_;
      ws.free_ = due.node;
      if (cancelled) {
        ++stats.num_events_cancelled;  // superseded by a later re-evaluation
        continue;
      }
      // Live events fire in time order, so this one heads its net's list.
      if (successor != kNil) {
        nodes[successor].net_prev = kNil;
      } else {
        ws.net_tail_[net] = kNil;
      }
      if (value[net] == v) continue;
      value[net] = v;
      const double t = due.t_ns;
      if (stats.num_toggles == 0) stats.first_toggle_ns = t;
      ++stats.num_toggles;
      stats.last_toggle_ns = std::max(stats.last_toggle_ns, t);
      sink.on_toggle(net, t, v != 0);
      for (GateId g : nl.fanout_gates(net)) {
        const Gate& gate = nl.gate(g);
        const std::uint8_t out = eval_gate(g, gate.type);
        const double ts = t + dm.delay_ns(g, out);
        enqueue(schedule(gate.out, ts, out), ts);
      }
    }
    ++cur;
  }

  ws.drained_ = true;
  ++ws.runs_;
  if (grew) ++ws.grown_runs_;
  sink.on_end(stats);
  if (obs::metrics_enabled()) {
    const SimCounters& c = sim_counters();
    c.runs.add();
    c.toggles.add(stats.num_toggles);
    c.events.add(stats.num_events_processed);
    if (!grew && ws.runs_ > 1) c.reuse.add();
  }
}

SimTrace EventSim::run(std::span<const std::uint8_t> initial_net_values,
                       std::span<const Stimulus> stimuli) const {
  Workspace ws;
  TraceRecorder rec;
  run(initial_net_values, stimuli, ws, rec);
  return rec.take();
}

std::vector<double> EventSim::settle_times(const SimTrace& trace,
                                           std::size_t num_nets) {
  std::vector<double> settle(num_nets, 0.0);
  for (const ToggleEvent& t : trace.toggles) {
    settle[t.net] = std::max(settle[t.net], static_cast<double>(t.t_ns));
  }
  return settle;
}

}  // namespace scap
