// Bench JSON schema: every result row must carry the required keys (the
// machine-readable reports feed dashboards that key on them), the writer's
// output must round-trip through the strict JSON parser, and the schema
// assertion must fail loudly on a partial row. Also pins the shared bench
// sizing (XTALK_BENCH_SCALE / XTALK_THREADS parse and circuit scaling),
// and the strict JSON parser itself.
#include "table_common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/circuit_generator.hpp"
#include "sta/engine.hpp"
#include "util/json_lint.hpp"

namespace xtalk::bench {
namespace {

TEST(BenchJson, FilledRowCarriesEveryRequiredKey) {
  JsonObject row;
  fill_result_row(row, sta::StaResult{});
  for (const std::string& key : result_row_required_keys()) {
    EXPECT_TRUE(row.has(key)) << key;
  }
  EXPECT_NO_THROW(assert_result_row_schema(row));
}

TEST(BenchJson, SchemaAssertionNamesMissingKeys) {
  JsonObject partial;
  partial.set("delay_ns", 1.0).set("runtime_s", 0.5);
  try {
    assert_result_row_schema(partial);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("passes"), std::string::npos);
    EXPECT_NE(what.find("metrics_enabled"), std::string::npos);
    EXPECT_EQ(what.find("delay_ns"), std::string::npos);
  }
}

TEST(BenchJson, ReportRoundTripsThroughStrictParser) {
  JsonReport report;
  report.root()
      .set("benchmark", "round \"trip\"\n")
      .set("scale", 0.25)
      .set("nan_field", std::numeric_limits<double>::quiet_NaN());
  sta::StaResult result;
  result.longest_path_delay = 3.5e-9;
  result.passes = 2;
  result.metrics.enabled = true;
  result.metrics.counters[static_cast<std::size_t>(
      sta::EngineCounter::kBeSteps)] = 42;
  result.metrics.pool_busy_ns = 1000;
  result.metrics.pool_wait_ns = 250;
  JsonObject& row = report.add_row("modes");
  row.set("mode", "iterative");
  fill_result_row(row, result);
  report.add_row("modes").set("mode", "best_case");

  util::JsonValue root;
  std::string err;
  ASSERT_TRUE(util::parse_json(report.to_string(), &root, &err)) << err;
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("benchmark")->str, "round \"trip\"\n");
  EXPECT_EQ(root.find("scale")->number, 0.25);
  // NaN/inf serialize as null, never as invalid JSON.
  EXPECT_EQ(root.find("nan_field")->kind, util::JsonValue::Kind::kNull);

  const util::JsonValue* modes = root.find("modes");
  ASSERT_NE(modes, nullptr);
  ASSERT_TRUE(modes->is_array());
  ASSERT_EQ(modes->items.size(), 2u);
  const util::JsonValue& parsed_row = modes->items[0];
  for (const std::string& key : result_row_required_keys()) {
    EXPECT_TRUE(parsed_row.has(key)) << key;
  }
  EXPECT_EQ(parsed_row.find("delay_ns")->number, 3.5);
  EXPECT_EQ(parsed_row.find("be_steps")->number, 42.0);
  EXPECT_EQ(parsed_row.find("metrics_enabled")->boolean, true);
  EXPECT_EQ(parsed_row.find("budget_reason")->str, "none");
  // The pool busy/wait metrics round-trip too.
  EXPECT_EQ(parsed_row.find("pool_busy_ns")->number, 1000.0);
  EXPECT_EQ(parsed_row.find("pool_wait_ns")->number, 250.0);
}

TEST(BenchJson, KeysPreserveInsertionOrder) {
  JsonObject row;
  fill_result_row(row, sta::StaResult{});
  EXPECT_EQ(row.keys(), result_row_required_keys());
}

TEST(BenchJson, ScenarioAnnotationRoundTrips) {
  // The MCMM keys (scenario / scenarios_total / worst_scenario) are part
  // of the order-pinned schema: defaults describe a single-scenario run,
  // and bench_mcmm's per-scenario values survive the strict parser.
  JsonObject defaults;
  fill_result_row(defaults, sta::StaResult{});
  EXPECT_EQ(defaults.keys(), result_row_required_keys());

  JsonReport report;
  ScenarioRowInfo info;
  info.scenario = "fast_derated";
  info.scenarios_total = 4;
  info.worst_scenario = "slow_doubled";
  JsonObject& row = report.add_row("scenarios");
  fill_result_row(row, sta::StaResult{}, info);
  EXPECT_EQ(row.keys(), result_row_required_keys());

  util::JsonValue root;
  std::string err;
  ASSERT_TRUE(util::parse_json(report.to_string(), &root, &err)) << err;
  const util::JsonValue* rows = root.find("scenarios");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), 1u);
  const util::JsonValue& parsed = rows->items[0];
  EXPECT_EQ(parsed.find("scenario")->str, "fast_derated");
  EXPECT_EQ(parsed.find("scenarios_total")->number, 4.0);
  EXPECT_EQ(parsed.find("worst_scenario")->str, "slow_doubled");
}

TEST(BenchSizing, ScaleSpecMatchesInlineFormula) {
  // Reference rule: truncate the product and floor at 64 cells, 4 FFs and
  // 4 POs. Bench circuits must keep these sizes so results stay comparable.
  const auto inline_count = [](std::size_t n, double scale, std::size_t floor) {
    return std::max<std::size_t>(
        floor, static_cast<std::size_t>(static_cast<double>(n) * scale));
  };
  const netlist::GeneratorSpec base = netlist::s38417_like();
  for (const double scale : {1.0, 0.25, 0.1, 0.001}) {
    const netlist::GeneratorSpec s = scale_spec(base, scale);
    EXPECT_EQ(s.num_cells, inline_count(base.num_cells, scale, 64)) << scale;
    EXPECT_EQ(s.num_ffs, inline_count(base.num_ffs, scale, 4)) << scale;
    EXPECT_EQ(s.num_pos, inline_count(base.num_pos, scale, 4)) << scale;
    EXPECT_EQ(s.seed, base.seed);
  }
  // 0.001 is below every floor.
  const netlist::GeneratorSpec tiny = scale_spec(base, 0.001);
  EXPECT_EQ(tiny.num_cells, 64u);
  EXPECT_EQ(tiny.num_ffs, 4u);
  EXPECT_EQ(tiny.num_pos, 4u);
  EXPECT_THROW(scale_spec(base, 1e300), std::invalid_argument);
}

TEST(BenchSizing, ParseAcceptsValidValuesAndDefaults) {
  const BenchSize unset = parse_bench_size(nullptr, nullptr, 0.25);
  EXPECT_EQ(unset.scale, 0.25);
  EXPECT_EQ(unset.num_threads, 0);
  const BenchSize set = parse_bench_size("0.1", "2", 1.0);
  EXPECT_EQ(set.scale, 0.1);
  EXPECT_EQ(set.num_threads, 2);
  EXPECT_EQ(parse_bench_size("1e-3", "0", 1.0).scale, 0.001);
}

TEST(BenchSizing, ParseRejectsGarbage) {
  for (const char* bad : {"-1", "0", "nan", "inf", "abc", "", "0.5x"}) {
    EXPECT_THROW(parse_bench_size(bad, nullptr, 1.0), std::invalid_argument)
        << "scale '" << bad << "'";
  }
  for (const char* bad : {"abc", "-2", "", "1.5", "99999999999999999999"}) {
    EXPECT_THROW(parse_bench_size(nullptr, bad, 1.0), std::invalid_argument)
        << "threads '" << bad << "'";
  }
  try {
    parse_bench_size("abc", nullptr, 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("XTALK_BENCH_SCALE"),
              std::string::npos);
  }
}

TEST(JsonLint, AcceptsValidDocuments) {
  util::JsonValue v;
  std::string err;
  EXPECT_TRUE(util::parse_json("null", &v, &err));
  EXPECT_EQ(v.kind, util::JsonValue::Kind::kNull);
  EXPECT_TRUE(util::parse_json("[1, 2.5, -3e2, \"x\", true, {}]", &v, &err));
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.items.size(), 6u);
  EXPECT_EQ(v.items[1].number, 2.5);
  EXPECT_TRUE(util::parse_json(
      "{\"a\": {\"b\": [false]}, \"c\": \"\\n\\u0041\"}", &v, &err));
  ASSERT_TRUE(v.is_object());
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonLint, RejectsMalformedDocuments) {
  util::JsonValue v;
  std::string err;
  EXPECT_FALSE(util::parse_json("", &v, &err));
  EXPECT_FALSE(util::parse_json("{", &v, &err));
  EXPECT_FALSE(util::parse_json("[1,]", &v, &err));
  EXPECT_FALSE(util::parse_json("{\"a\" 1}", &v, &err));
  EXPECT_FALSE(util::parse_json("01", &v, &err));
  EXPECT_FALSE(util::parse_json("1. ", &v, &err));
  EXPECT_FALSE(util::parse_json("\"unterminated", &v, &err));
  EXPECT_FALSE(util::parse_json("\"bad\\q\"", &v, &err));
  EXPECT_FALSE(util::parse_json("true false", &v, &err));  // trailing tokens
  EXPECT_FALSE(err.empty());
  // Depth bomb: deeper than the parser's recursion limit.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(util::parse_json(deep, &v, &err));
}

}  // namespace
}  // namespace xtalk::bench
