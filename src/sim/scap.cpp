#include "sim/scap.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

namespace {

/// scap.* metric handles, resolved once (the registry never erases).
struct ScapMetrics {
  obs::Counter& computes;
  obs::Gauge& stw_ns;
  obs::Gauge& vdd_scap_mw;
};

/// Per-pattern SCAP distribution (Figure 2/6 shape at a glance).
void record(const ScapReport& rep) {
  if (!obs::metrics_enabled()) return;
  static const ScapMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    return ScapMetrics{reg.counter("scap.computes"), reg.gauge("scap.stw_ns"),
                       reg.gauge("scap.vdd_scap_mw")};
  }();
  m.computes.add();
  m.stw_ns.observe(rep.stw_ns);
  m.vdd_scap_mw.observe(rep.scap_mw(Rail::kVdd));
}

}  // namespace

ScapCalculator::ScapCalculator(const Netlist& nl, const Parasitics& par,
                               const TechLibrary& lib)
    : nl_(&nl), lib_(&lib) {
  net_cap_pf_.resize(nl.num_nets());
  net_block_.resize(nl.num_nets());
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    net_cap_pf_[n] = par.net_load_pf(n);
    const Net& nr = nl.net(n);
    switch (nr.driver_kind) {
      case DriverKind::kGate:
        net_block_[n] = nl.gate(nr.driver).block;
        break;
      case DriverKind::kFlop:
        net_block_[n] = nl.flop(nr.driver).block;
        break;
      default:
        net_block_[n] = 0;
        break;
    }
  }
}

ScapReport ScapCalculator::compute(const SimTrace& trace,
                                   double period_ns) const {
  SCAP_TRACE_SCOPE("scap.compute");
  ScapReport rep;
  rep.period_ns = period_ns;
  rep.stw_ns = trace.stw_ns();
  rep.num_toggles = trace.toggles.size();
  rep.vdd_energy_pj.assign(nl_->block_count(), 0.0);
  rep.vss_energy_pj.assign(nl_->block_count(), 0.0);

  for (const ToggleEvent& t : trace.toggles) {
    const double e = lib_->toggle_energy_pj(net_cap_pf_[t.net]);
    const BlockId b = net_block_[t.net];
    if (t.rising) {
      rep.vdd_energy_pj[b] += e;
      rep.vdd_energy_total_pj += e;
    } else {
      rep.vss_energy_pj[b] += e;
      rep.vss_energy_total_pj += e;
    }
  }
  record(rep);
  return rep;
}

void ScapAccumulator::on_begin(
    std::span<const std::uint8_t> /*initial_net_values*/) {
  report_.stw_ns = 0.0;
  report_.num_toggles = 0;
  report_.vdd_energy_pj.assign(calc_->nl_->block_count(), 0.0);
  report_.vss_energy_pj.assign(calc_->nl_->block_count(), 0.0);
  report_.vdd_energy_total_pj = 0.0;
  report_.vss_energy_total_pj = 0.0;
}

void ScapAccumulator::on_toggle(NetId net, double /*t_ns*/, bool rising) {
  const double e = calc_->lib_->toggle_energy_pj(calc_->net_cap_pf_[net]);
  const BlockId b = calc_->net_block_[net];
  if (rising) {
    report_.vdd_energy_pj[b] += e;
    report_.vdd_energy_total_pj += e;
  } else {
    report_.vss_energy_pj[b] += e;
    report_.vss_energy_total_pj += e;
  }
}

void ScapAccumulator::on_end(const SimStats& stats) {
  report_.stw_ns = stats.stw_ns();
  report_.num_toggles = stats.num_toggles;
  record(report_);
}

}  // namespace scap
