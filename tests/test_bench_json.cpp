// Bench JSON schema: every result row must carry the required keys (the
// machine-readable reports feed dashboards that key on them), the writer's
// output must round-trip through the strict JSON parser, and the schema
// assertion must fail loudly on a partial row.
#include "table_common.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(BenchJson, ServiceRowCarriesEveryRequiredKey) {
  JsonObject row;
  fill_service_row(row, ServiceLoadSummary{});
  for (const std::string& key : service_row_required_keys()) {
    EXPECT_TRUE(row.has(key)) << key;
  }
  EXPECT_NO_THROW(assert_service_row_schema(row));
}

TEST(BenchJson, ServiceRowKeysPreserveInsertionOrder) {
  JsonObject row;
  fill_service_row(row, ServiceLoadSummary{});
  EXPECT_EQ(row.keys(), service_row_required_keys());
}

TEST(BenchJson, ServiceSchemaAssertionNamesMissingKeys) {
  JsonObject partial;
  partial.set("requests_total", 12).set("throughput_rps", 3.5);
  try {
    assert_service_row_schema(partial);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("latency_p99_ms"), std::string::npos);
    EXPECT_NE(what.find("requests_truncated"), std::string::npos);
    EXPECT_EQ(what.find("requests_total"), std::string::npos);
  }
}

TEST(BenchJson, ServiceRowRoundTripsThroughStrictParser) {
  ServiceLoadSummary summary;
  summary.requests_total = 1200;
  summary.requests_full = 30;
  summary.requests_eco = 280;
  summary.requests_query = 890;
  summary.requests_truncated = 25;
  summary.truncation_rate = 25.0 / 1200.0;
  summary.throughput_rps = 412.5;
  summary.latency_p50_ms = 0.8;
  summary.latency_p99_ms = 95.25;
  summary.bytes_in = 123456;
  summary.bytes_out = 7890123;
  summary.restart_generation = 3;
  summary.snapshot_age_ms = 1500;
  summary.wal_records = 42;
  summary.sessions_resumed = 7;

  JsonReport report;
  report.root().set("bench", "service_load");
  fill_service_row(report.add_row("service"), summary);

  util::JsonValue root;
  std::string err;
  ASSERT_TRUE(util::parse_json(report.to_string(), &root, &err)) << err;
  const util::JsonValue* rows = root.find("service");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->items.size(), 1u);
  const util::JsonValue& row = rows->items[0];
  for (const std::string& key : service_row_required_keys()) {
    EXPECT_TRUE(row.has(key)) << key;
  }
  EXPECT_EQ(row.find("requests_total")->number, 1200.0);
  EXPECT_EQ(row.find("requests_truncated")->number, 25.0);
  EXPECT_EQ(row.find("throughput_rps")->number, 412.5);
  EXPECT_EQ(row.find("latency_p99_ms")->number, 95.25);
  EXPECT_EQ(row.find("bytes_out")->number, 7890123.0);
  EXPECT_EQ(row.find("restart_generation")->number, 3.0);
  EXPECT_EQ(row.find("snapshot_age_ms")->number, 1500.0);
  EXPECT_EQ(row.find("wal_records")->number, 42.0);
  EXPECT_EQ(row.find("sessions_resumed")->number, 7.0);
}

}  // namespace
}  // namespace xtalk::bench
