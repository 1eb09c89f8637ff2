#include "core/crosstalk_sta.hpp"

#include <utility>

#include "netlist/bench_parser.hpp"

namespace xtalk::core {

Design Design::build(netlist::Netlist&& nl, const FlowOptions& opt) {
  Design d;
  d.netlist_ = std::make_unique<netlist::Netlist>(std::move(nl));
  if (opt.insert_clock_tree) {
    netlist::build_clock_tree(*d.netlist_, opt.clock_tree);
  }
  d.dag_ = std::make_unique<netlist::LevelizedDag>(
      netlist::levelize(*d.netlist_));
  d.placement_ = std::make_unique<layout::Placement>(*d.netlist_, *d.dag_,
                                                     opt.placement);
  d.routing_ = std::make_unique<layout::RoutedDesign>(*d.netlist_,
                                                      *d.placement_,
                                                      opt.router);
  const device::Technology& tech = d.netlist_->library().tech();
  d.parasitics_ = std::make_unique<extract::Parasitics>(
      extract::extract(*d.netlist_, *d.routing_, tech, opt.extraction));
  // Device tables: the default set is shared; a non-default technology
  // would need its own set, which the library keeps alive statically.
  d.tables_ = &device::DeviceTableSet::half_micron();
  return d;
}

Design Design::from_bench(std::string_view bench_text, const FlowOptions& opt) {
  return build(netlist::parse_bench(bench_text,
                                    netlist::CellLibrary::half_micron()),
               opt);
}

Design Design::generate(const netlist::GeneratorSpec& spec,
                        const FlowOptions& opt) {
  return build(netlist::generate_circuit(spec,
                                         netlist::CellLibrary::half_micron()),
               opt);
}

sta::DesignView Design::view() const {
  sta::DesignView v;
  v.netlist = netlist_.get();
  v.dag = dag_.get();
  v.parasitics = parasitics_.get();
  v.tables = tables_;
  return v;
}

DesignStats Design::stats() const {
  DesignStats s;
  s.cells = netlist_->num_gates();
  s.flip_flops = netlist_->sequential_gates().size();
  s.nets = netlist_->num_nets();
  s.transistors = netlist_->transistor_count();
  s.coupling_pairs = parasitics_->coupling_pairs().size();
  s.total_wire_length = routing_->total_wire_length();
  s.total_wire_cap = parasitics_->total_wire_cap();
  s.total_coupling_cap = parasitics_->total_coupling_cap();
  return s;
}

sta::StaResult Design::run(sta::AnalysisMode mode) const {
  sta::StaOptions opt;
  opt.mode = mode;
  return run(opt);
}

sta::StaResult Design::run(const sta::StaOptions& options) const {
  return sta::run_sta(view(), options);
}

sta::McmmResult Design::run_scenarios(
    const sta::StaOptions& options,
    std::vector<sta::Scenario> scenarios) const {
  return sta::run_mcmm(view(), options, std::move(scenarios));
}

sta::incremental::DesignEditor Design::make_editor() const {
  return sta::incremental::DesignEditor(view());
}

void Design::isolate_nets(const std::vector<netlist::NetId>& nets,
                          const extract::ExtractionOptions& options) {
  routing_->isolate_nets(nets);
  *parasitics_ = extract::extract(*netlist_, *routing_,
                                  netlist_->library().tech(), options);
}

layout::TrackOptimizerStats Design::optimize_tracks(
    const std::vector<double>& net_weight,
    const extract::ExtractionOptions& options) {
  const layout::TrackOptimizerStats stats =
      layout::optimize_tracks(*routing_, net_weight);
  *parasitics_ = extract::extract(*netlist_, *routing_,
                                  netlist_->library().tech(), options);
  return stats;
}

}  // namespace xtalk::core
