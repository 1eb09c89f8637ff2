// Hardened text front-end: the bench parser must (a) report *every*
// malformed statement with an error code and source line, not bail at the
// first one, (b) recover to the next statement and keep building what it
// can, (c) enforce ParseLimits instead of letting adversarial input
// allocate unboundedly, and (d) fail only by throwing util::DiagError —
// including "cannot open file".
#include "netlist/bench_parser.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netlist/embedded_benchmarks.hpp"
#include "util/diag.hpp"

namespace xtalk::netlist {
namespace {

const CellLibrary& lib() { return CellLibrary::half_micron(); }

std::vector<util::Diagnostic> parse_errors(const util::DiagSink& sink) {
  std::vector<util::Diagnostic> out;
  for (const util::Diagnostic& d : sink.snapshot()) {
    if (d.code == util::DiagCode::kParseError) out.push_back(d);
  }
  return out;
}

TEST(BenchHardening, AccumulatesAllErrorsWithLineNumbers) {
  const std::string text =
      "INPUT(a)\n"
      "INPUT(b)\n"
      "x = FROB(a)\n"     // line 3: unknown function (construction phase)
      "y = NAND(a, b)\n"  // fine
      "w = \n"            // line 5: malformed gate line (scan phase)
      "OUTPUT(y)\n";
  util::DiagSink sink;
  try {
    parse_bench(text, lib(), {}, &sink);
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    // The first recorded error drives the exception (the scan runs before
    // gate construction, so that is line 5) and the message announces how
    // many more were found.
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("more error"), std::string::npos);
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kParseError);
  }
  const std::vector<util::Diagnostic> errs = parse_errors(sink);
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_EQ(errs[0].ctx.line, 5);
  EXPECT_EQ(errs[1].ctx.line, 3);
  EXPECT_EQ(errs[0].ctx.file, "<bench>");
}

TEST(BenchHardening, RecoversAndStillSeesLaterStatements) {
  // The undriven-output check runs over the *recovered* netlist, so an
  // error on line 2 must not hide the independent error on line 4.
  const std::string text =
      "INPUT(a)\n"
      "x = FROB(a)\n"
      "y = NOT(a)\n"
      "OUTPUT(ghost)\n"
      "OUTPUT(y)\n";
  util::DiagSink sink;
  EXPECT_THROW(parse_bench(text, lib(), {}, &sink), util::DiagError);
  const std::vector<util::Diagnostic> errs = parse_errors(sink);
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_EQ(errs[0].ctx.line, 2);
  EXPECT_NE(errs[1].message.find("never driven"), std::string::npos);
}

TEST(BenchHardening, MaxErrorsCapsTheAccumulator) {
  std::string text = "INPUT(a)\n";
  for (int i = 0; i < 50; ++i) text += "x" + std::to_string(i) + " = FROB(a)\n";
  util::ParseLimits limits;
  limits.max_errors = 3;
  util::DiagSink sink;
  EXPECT_THROW(parse_bench(text, lib(), limits, &sink), util::DiagError);
  EXPECT_EQ(parse_errors(sink).size(), 3u);
}

TEST(BenchHardening, LineLengthLimitIsFatal) {
  util::ParseLimits limits;
  limits.max_line_length = 64;
  const std::string text =
      "INPUT(a)\ny = NOT(" + std::string(200, 'a') + ")\nOUTPUT(y)\n";
  try {
    parse_bench(text, lib(), limits);
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kInputLimit);
    EXPECT_EQ(e.diagnostic().ctx.line, 2);
  }
}

TEST(BenchHardening, GateArgLimitSkipsTheGate) {
  // An over-wide gate is a recoverable parse error (the gate is skipped,
  // which then also surfaces the undriven OUTPUT), not an OOM risk.
  util::ParseLimits limits;
  limits.max_gate_args = 4;
  const std::string text = "INPUT(a)\ny = NAND(a, a, a, a, a, a)\nOUTPUT(y)\n";
  util::DiagSink sink;
  try {
    parse_bench(text, lib(), limits, &sink);
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos);
  }
  EXPECT_EQ(parse_errors(sink).size(), 2u);
}

TEST(BenchHardening, UnopenableFileIsADiagError) {
  try {
    parse_bench_file("/nonexistent/dir/x.bench", lib());
    FAIL() << "expected util::DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, util::DiagCode::kFileError);
    EXPECT_EQ(e.diagnostic().ctx.file, "/nonexistent/dir/x.bench");
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(BenchHardening, CleanInputStillParses) {
  util::DiagSink sink;
  const Netlist nl = parse_bench(s27_bench(), lib(), {}, &sink);
  EXPECT_GT(nl.num_gates(), 0u);
  EXPECT_TRUE(parse_errors(sink).empty());
}

}  // namespace
}  // namespace xtalk::netlist
