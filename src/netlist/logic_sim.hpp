// Event-free levelized logic simulation.
//
// The reference the tests compare netlist transformations against: it
// proves that wide-gate decomposition in the .bench parser and clock tree
// insertion preserve function. Values are 0/1 (no X/Z; every net is driven
// after Netlist::validate()).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace xtalk::netlist {

class LogicSimulator {
 public:
  explicit LogicSimulator(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }
  std::size_t num_flops() const { return flops_.size(); }

  /// Evaluate the combinational network. `pi_values` is parallel to
  /// Netlist::primary_inputs() (the clock entry, if any, is ignored);
  /// `ff_state` is parallel to the simulator's flop order (Q values).
  /// Returns one value per net.
  std::vector<std::uint8_t> evaluate(
      const std::vector<std::uint8_t>& pi_values,
      const std::vector<std::uint8_t>& ff_state) const;

  /// One clock cycle: evaluate, then latch every flop's D into the state.
  /// Returns the evaluated net values of the cycle.
  std::vector<std::uint8_t> step(const std::vector<std::uint8_t>& pi_values,
                                 std::vector<std::uint8_t>& ff_state) const;

  /// Output values (parallel to primary_outputs()) from a net-value vector.
  std::vector<std::uint8_t> outputs(
      const std::vector<std::uint8_t>& net_values) const;

  /// Flop gate ids in state order (stable: ascending gate id).
  const std::vector<GateId>& flops() const { return flops_; }

 private:
  const Netlist* netlist_;
  LevelizedDag dag_;
  std::vector<GateId> flops_;
  std::vector<std::int32_t> flop_index_;  ///< gate id -> state slot or -1
};

/// Evaluate a single cell function on explicit input values (exposed for
/// tests). `inputs` is ordered like the cell's input pins.
std::uint8_t evaluate_cell(const Cell& cell,
                           const std::vector<std::uint8_t>& inputs);

}  // namespace xtalk::netlist
