// Public facade: netlist -> clock tree -> placement -> routing ->
// extraction -> crosstalk-aware STA.
//
// A Design owns every intermediate product of the flow with stable
// addresses, so the analysis engine can borrow views safely.
//
// Quickstart:
//   auto design = xtalk::core::Design::from_bench(s27_text);
//   auto result = design.run(xtalk::sta::AnalysisMode::kIterative);
//   std::cout << result.longest_path_delay * 1e9 << " ns\n";
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "extract/extractor.hpp"
#include "layout/placement.hpp"
#include "layout/router.hpp"
#include "layout/track_optimizer.hpp"
#include "netlist/circuit_generator.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"
#include "sta/incremental/editor.hpp"
#include "sta/mcmm.hpp"

namespace xtalk::core {

struct FlowOptions {
  bool insert_clock_tree = true;
  netlist::ClockTreeOptions clock_tree;
  layout::PlacementOptions placement;
  layout::RouterOptions router;
  extract::ExtractionOptions extraction;
};

/// Aggregate physical/structural statistics for reports.
struct DesignStats {
  std::size_t cells = 0;
  std::size_t flip_flops = 0;
  std::size_t nets = 0;
  std::size_t transistors = 0;
  std::size_t coupling_pairs = 0;
  double total_wire_length = 0.0;    ///< [m]
  double total_wire_cap = 0.0;       ///< [F]
  double total_coupling_cap = 0.0;   ///< [F]
};

class Design {
 public:
  /// Run the physical flow on an existing netlist (consumed).
  static Design build(netlist::Netlist&& netlist, const FlowOptions& opt = {});
  /// Parse .bench text and run the flow.
  static Design from_bench(std::string_view bench_text,
                           const FlowOptions& opt = {});
  /// Generate a synthetic circuit and run the flow.
  static Design generate(const netlist::GeneratorSpec& spec,
                         const FlowOptions& opt = {});

  Design(Design&&) = default;
  Design& operator=(Design&&) = default;
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  const netlist::Netlist& netlist() const { return *netlist_; }
  const netlist::LevelizedDag& dag() const { return *dag_; }
  const layout::Placement& placement() const { return *placement_; }
  const layout::RoutedDesign& routing() const { return *routing_; }
  const extract::Parasitics& parasitics() const { return *parasitics_; }
  const device::DeviceTableSet& tables() const { return *tables_; }
  const device::Technology& tech() const { return tables_->tech(); }

  sta::DesignView view() const;
  DesignStats stats() const;

  /// Run one analysis mode with default options.
  sta::StaResult run(sta::AnalysisMode mode) const;
  /// Run with full option control.
  sta::StaResult run(const sta::StaOptions& options) const;
  /// Multi-corner/multi-scenario analysis: run `scenarios` (process and
  /// V/T corners, coupling derates, mode overrides) over this design's one
  /// layout and extraction with the cross-scenario sharing of
  /// sta::run_mcmm. Every scenario's result is bitwise a standalone run of
  /// that scenario.
  sta::McmmResult run_scenarios(const sta::StaOptions& options,
                                std::vector<sta::Scenario> scenarios) const;

  /// Open an incremental (ECO) editing session. The editor copies the
  /// netlist/parasitics/DAG on first write; this design stays untouched
  /// and must outlive the editor. Pair with sta::incremental::IncrementalSta
  /// for cached re-timing after each edit batch.
  sta::incremental::DesignEditor make_editor() const;

  /// Crosstalk avoidance experiment: re-route the given nets onto isolated
  /// tracks (no neighbours) and re-extract the parasitics. Mutates the
  /// design; subsequent run() calls see the repaired layout.
  void isolate_nets(const std::vector<netlist::NetId>& nets,
                    const extract::ExtractionOptions& options = {});

  /// Crosstalk reduction experiment: permute channel tracks to minimize
  /// the weighted coupling cost (layout/track_optimizer.hpp) and
  /// re-extract. `net_weight` is per net id; missing entries weigh 1.0.
  layout::TrackOptimizerStats optimize_tracks(
      const std::vector<double>& net_weight,
      const extract::ExtractionOptions& options = {});

 private:
  Design() = default;

  std::unique_ptr<netlist::Netlist> netlist_;
  std::unique_ptr<netlist::LevelizedDag> dag_;
  std::unique_ptr<layout::Placement> placement_;
  std::unique_ptr<layout::RoutedDesign> routing_;
  std::unique_ptr<extract::Parasitics> parasitics_;
  const device::DeviceTableSet* tables_ = nullptr;
};

}  // namespace xtalk::core
