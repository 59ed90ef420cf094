// Event-driven gate-level timing simulation of the launch-to-capture window.
//
// This is the library's analogue of the paper's VCS gate-level timing
// simulation: the caller supplies the settled frame-1 net values and a set of
// stimulus transitions (flop Q flips at their clock-arrival times); the
// simulator propagates them with per-instance rise/fall delays (transport
// semantics, so glitches are simulated and contribute switching power, as
// they do in a VCD captured from a real timing simulation).
//
// Two output modes share one engine:
//  - run(initial, stimuli) returns the full SimTrace (back-compat; allocates
//    a fresh trace per call).
//  - run(initial, stimuli, Workspace&, ToggleSink&) streams every committed
//    toggle into the sink as it happens -- the paper's PLI tap -- and keeps
//    all simulation storage (value array, event pool, calendar queue) in the
//    caller-owned Workspace, so bulk per-pattern screening runs with zero
//    steady-state heap allocations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "layout/parasitics.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "sim/toggle_sink.h"

namespace scap {

/// Per-gate rise/fall delays; build once, optionally derated by a voltage map.
///
/// Every gate with inputs must have finite delays > 0: the event simulator's
/// calendar queue relies on an evaluation never scheduling into the time
/// bucket being drained. Tie cells have no inputs, are never evaluated, and
/// are exempt (the generic library gives them zero delay).
class DelayModel {
 public:
  /// Throws std::invalid_argument if some evaluated gate's delay is not > 0.
  DelayModel(const Netlist& nl, const TechLibrary& lib, const Parasitics& par);

  /// Apply per-gate voltage droop (VDD loss + VSS bounce [V]); delays become
  /// base * (1 + k_volt * droop). Pass an empty span to reset to nominal.
  /// Throws std::invalid_argument, leaving the model unchanged, if the droop
  /// vector does not match the netlist's gate count or would derate some
  /// evaluated gate's delay to <= 0.
  void set_droop(const TechLibrary& lib, std::span<const double> gate_droop_v);

  double rise_ns(GateId g) const { return delay_ns_[g][1]; }
  double fall_ns(GateId g) const { return delay_ns_[g][0]; }
  /// Delay of the edge that drives the output to `value` (0 fall, 1 rise).
  double delay_ns(GateId g, std::uint8_t value) const {
    return delay_ns_[g][value];
  }

  /// Extremes over the evaluated gates' current delays (0 if there are none).
  double min_delay_ns() const { return min_ns_; }
  double max_delay_ns() const { return max_ns_; }

 private:
  using EdgeDelays = std::array<double, 2>;  ///< {fall, rise} [ns]

  void refresh_extremes();

  std::vector<EdgeDelays> base_ns_;
  std::vector<EdgeDelays> delay_ns_;
  std::vector<std::uint8_t> evaluated_;  ///< per gate: has inputs
  double min_ns_ = 0.0;
  double max_ns_ = 0.0;
};

struct Stimulus {
  NetId net = kNullId;
  double t_ns = 0.0;
  std::uint8_t value = 0;
};

struct ToggleEvent {
  NetId net = kNullId;
  float t_ns = 0.0f;
  bool rising = false;
};

struct SimTrace {
  std::vector<ToggleEvent> toggles;  ///< time-ordered
  double first_toggle_ns = 0.0;
  double last_toggle_ns = 0.0;
  std::size_t num_events_processed = 0;
  std::size_t num_events_cancelled = 0;  ///< superseded by a later evaluation

  /// Switching time window: the span during which all transitions occur
  /// (insertion delay of the clock tree does not inflate it).
  double stw_ns() const {
    return toggles.empty() ? 0.0 : last_toggle_ns - first_toggle_ns;
  }
};

class EventSim {
 public:
  /// Reusable simulation storage: the current-value array, the event pool
  /// with its per-net pending lists, and the calendar queue. All of it
  /// persists between runs (only capacity, never state -- every run drains
  /// its queue), so a warm workspace serves each subsequent pattern without
  /// touching the allocator. Nothing per-design is copied in: gate, fanout
  /// and delay tables are read from the Netlist and DelayModel. One
  /// workspace per thread/shard; a workspace must not be used by two runs
  /// concurrently.
  class Workspace {
   public:
    Workspace() = default;

    /// Simulation passes served by this workspace.
    std::size_t runs() const { return runs_; }
    /// Passes during which some pool had to grow (heap allocation).
    std::size_t grown_runs() const { return grown_runs_; }
    /// Passes served entirely from pre-sized pools (zero allocations).
    std::size_t reused_runs() const { return runs_ - grown_runs_; }

   private:
    friend class EventSim;

    static constexpr std::uint32_t kNil = 0xffffffffu;

    /// One scheduled output event. Nodes live in one flat pool and are
    /// threaded onto two intrusive lists: the FIFO chain of their time
    /// bucket (`next`), and their net's time-sorted pending list
    /// (`net_prev`/`net_next`) that cancellation walks from the back.
    struct Node {
      double t_ns;
      NetId net;
      std::uint32_t next;
      std::uint32_t net_prev;
      std::uint32_t net_next;
      std::uint8_t value;
      bool cancelled;
    };
    struct Bucket {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;
    };
    /// A node being ordered for commit: by time, ties by schedule order.
    struct Due {
      double t_ns;
      std::uint32_t seq;
      std::uint32_t node;

      bool operator<(const Due& o) const {
        return t_ns != o.t_ns ? t_ns < o.t_ns : seq < o.seq;
      }
    };

    std::vector<std::uint8_t> value_;
    std::vector<std::uint32_t> net_tail_;  ///< newest pending node per net
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;  ///< recycled nodes, linked through `next`
    std::vector<Bucket> ring_;   ///< power-of-two calendar of time buckets
    std::vector<Due> stimuli_;   ///< this run's stimulus nodes, commit order
    std::vector<Due> batch_;     ///< the bucket being drained, commit order
    bool drained_ = true;        ///< false if a run was left mid-way (throw)
    std::size_t runs_ = 0;
    std::size_t grown_runs_ = 0;
  };

  EventSim(const Netlist& nl, const DelayModel& dm) : nl_(&nl), dm_(&dm) {}

  /// Simulate from the settled initial net values under the given stimuli.
  /// Stimuli need not be sorted. Returns the full toggle trace (stimulus
  /// transitions included). Convenience wrapper over the streaming overload
  /// with a TraceRecorder and a throwaway workspace.
  SimTrace run(std::span<const std::uint8_t> initial_net_values,
               std::span<const Stimulus> stimuli) const;

  /// Streaming simulation: pushes every committed toggle into `sink` in
  /// commit (== time) order instead of materializing a trace. Bit-identical
  /// to the trace-returning overload for any sink composition.
  void run(std::span<const std::uint8_t> initial_net_values,
           std::span<const Stimulus> stimuli, Workspace& ws,
           ToggleSink& sink) const;

  /// Stabilization time per net: last toggle time, 0 for untouched nets.
  static std::vector<double> settle_times(const SimTrace& trace,
                                          std::size_t num_nets);

 private:
  const Netlist* nl_;
  const DelayModel* dm_;
};

/// Sink that reproduces the legacy SimTrace, for callers that still need the
/// materialized toggle list (VCD debugging, Figure-7 endpoint reports).
class TraceRecorder final : public ToggleSink {
 public:
  void on_begin(std::span<const std::uint8_t> /*initial*/) override {
    trace_.toggles.clear();
    trace_.first_toggle_ns = 0.0;
    trace_.last_toggle_ns = 0.0;
    trace_.num_events_processed = 0;
    trace_.num_events_cancelled = 0;
  }
  void on_toggle(NetId net, double t_ns, bool rising) override {
    trace_.toggles.push_back(
        ToggleEvent{net, static_cast<float>(t_ns), rising});
  }
  void on_end(const SimStats& stats) override {
    trace_.first_toggle_ns = stats.first_toggle_ns;
    trace_.last_toggle_ns = stats.last_toggle_ns;
    trace_.num_events_processed = stats.num_events_processed;
    trace_.num_events_cancelled = stats.num_events_cancelled;
  }

  const SimTrace& trace() const { return trace_; }
  SimTrace take() { return std::move(trace_); }

 private:
  SimTrace trace_;
};

}  // namespace scap
