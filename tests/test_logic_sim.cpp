#include "netlist/logic_sim.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_parser.hpp"
#include "netlist/circuit_generator.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/embedded_benchmarks.hpp"
#include "util/rng.hpp"

namespace xtalk::netlist {
namespace {

const CellLibrary& lib() { return CellLibrary::half_micron(); }

TEST(EvaluateCell, TruthTables) {
  EXPECT_EQ(evaluate_cell(lib().get("INV_X1"), {0}), 1);
  EXPECT_EQ(evaluate_cell(lib().get("INV_X1"), {1}), 0);
  EXPECT_EQ(evaluate_cell(lib().get("NAND2_X1"), {1, 1}), 0);
  EXPECT_EQ(evaluate_cell(lib().get("NAND2_X1"), {1, 0}), 1);
  EXPECT_EQ(evaluate_cell(lib().get("NOR3_X1"), {0, 0, 0}), 1);
  EXPECT_EQ(evaluate_cell(lib().get("NOR3_X1"), {0, 1, 0}), 0);
  EXPECT_EQ(evaluate_cell(lib().get("XOR2_X1"), {1, 0}), 1);
  EXPECT_EQ(evaluate_cell(lib().get("XOR2_X1"), {1, 1}), 0);
  EXPECT_EQ(evaluate_cell(lib().get("XNOR2_X1"), {1, 1}), 1);
  EXPECT_EQ(evaluate_cell(lib().get("AOI21_X1"), {1, 1, 0}), 0);
  EXPECT_EQ(evaluate_cell(lib().get("AOI21_X1"), {1, 0, 0}), 1);
  EXPECT_EQ(evaluate_cell(lib().get("OAI21_X1"), {0, 1, 1}), 0);
  EXPECT_EQ(evaluate_cell(lib().get("OAI21_X1"), {0, 0, 1}), 1);
}

TEST(LogicSim, C17KnownVectors) {
  const Netlist nl = parse_bench(c17_bench(), lib());
  const LogicSimulator sim(nl);
  // c17: N22 = !(N10 & N16), N23 = !(N16 & N19), with
  // N10=!(N1&N3), N11=!(N3&N6), N16=!(N2&N11), N19=!(N11&N7).
  auto run = [&](int n1, int n2, int n3, int n6, int n7) {
    std::vector<std::uint8_t> pi;
    // primary_inputs order = declaration order: N1 N2 N3 N6 N7.
    pi = {static_cast<std::uint8_t>(n1), static_cast<std::uint8_t>(n2),
          static_cast<std::uint8_t>(n3), static_cast<std::uint8_t>(n6),
          static_cast<std::uint8_t>(n7)};
    return sim.outputs(sim.evaluate(pi, {}));
  };
  for (int mask = 0; mask < 32; ++mask) {
    const int n1 = mask & 1, n2 = (mask >> 1) & 1, n3 = (mask >> 2) & 1,
              n6 = (mask >> 3) & 1, n7 = (mask >> 4) & 1;
    const int n10 = !(n1 && n3), n11 = !(n3 && n6);
    const int n16 = !(n2 && n11), n19 = !(n11 && n7);
    const int n22 = !(n10 && n16), n23 = !(n16 && n19);
    const auto out = run(n1, n2, n3, n6, n7);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], n22) << mask;
    EXPECT_EQ(out[1], n23) << mask;
  }
}

TEST(LogicSim, WideGateDecompositionIsEquivalent) {
  // 9-input NAND decomposed by the parser vs direct reduction.
  std::string text = "OUTPUT(y)\n";
  std::string args;
  for (int i = 0; i < 9; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  text += "y = NAND(" + args + ")\n";
  const Netlist nl = parse_bench(text, lib());
  const LogicSimulator sim(nl);
  util::Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> pi(9);
    bool all = true;
    for (auto& v : pi) {
      v = rng.next_bool(0.7) ? 1 : 0;
      all = all && v;
    }
    const auto out = sim.outputs(sim.evaluate(pi, {}));
    EXPECT_EQ(out[0], all ? 0 : 1);
  }
}

TEST(LogicSim, S27SequentialStepsMatchReference) {
  // Reference: direct evaluation of the s27 equations.
  const Netlist nl = parse_bench(s27_bench(), lib());
  const LogicSimulator sim(nl);
  ASSERT_EQ(sim.num_flops(), 3u);

  // State order = ascending gate id = declaration order G5, G6, G7.
  std::vector<std::uint8_t> state = {0, 0, 0};
  int g5 = 0, g6 = 0, g7 = 0;
  util::Rng rng(7);
  for (int cycle = 0; cycle < 100; ++cycle) {
    const int g0 = rng.next_bool(0.5), g1 = rng.next_bool(0.5),
              g2 = rng.next_bool(0.5), g3 = rng.next_bool(0.5);
    // PI order: CLK, G0..G3 (CLK implicit net first).
    const std::vector<std::uint8_t> pi = {
        0, static_cast<std::uint8_t>(g0), static_cast<std::uint8_t>(g1),
        static_cast<std::uint8_t>(g2), static_cast<std::uint8_t>(g3)};
    const auto values = sim.step(pi, state);

    const int g14 = !g0;
    const int g8 = g14 && g6;
    const int g12 = !(g1 || g7);
    const int g15 = g12 || g8;
    const int g16 = g3 || g8;
    const int g9 = !(g16 && g15);
    const int g11 = !(g5 || g9);
    const int g10 = !(g14 || g11);
    const int g13 = !(g2 || g12);
    const int g17 = !g11;
    EXPECT_EQ(values[nl.find_net("G17")], g17) << cycle;
    // Next state.
    g5 = g10;
    g6 = g11;
    g7 = g13;
    EXPECT_EQ(state[0], g5) << cycle;
    EXPECT_EQ(state[1], g6) << cycle;
    EXPECT_EQ(state[2], g7) << cycle;
  }
}

TEST(LogicSim, ClockTreeInsertionPreservesFunction) {
  Netlist plain = generate_circuit(scaled_spec("ls", 23, 600, 10), lib());
  Netlist treed = generate_circuit(scaled_spec("ls", 23, 600, 10), lib());
  build_clock_tree(treed);
  const LogicSimulator sa(plain), sb(treed);
  util::Rng rng(5);
  std::vector<std::uint8_t> state_a(sa.num_flops(), 0),
      state_b(sb.num_flops(), 0);
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<std::uint8_t> pi(plain.primary_inputs().size());
    for (auto& v : pi) v = rng.next_bool(0.5) ? 1 : 0;
    const auto va = sa.step(pi, state_a);
    const auto vb = sb.step(pi, state_b);
    for (const NetId po : plain.primary_outputs()) {
      const NetId m = treed.find_net(plain.net(po).name);
      ASSERT_NE(m, kNoNet);
      EXPECT_EQ(va[po], vb[m]);
    }
    EXPECT_EQ(state_a, state_b);
  }
}

TEST(LogicSim, RejectsWrongVectorSizes) {
  const Netlist nl = parse_bench(s27_bench(), lib());
  const LogicSimulator sim(nl);
  EXPECT_THROW(sim.evaluate({0, 1}, {0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(sim.evaluate({0, 0, 0, 0, 0}, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace xtalk::netlist
