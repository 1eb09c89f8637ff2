#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/transistor_netlist.hpp"
#include "netlist/cell_library.hpp"
#include "sim/transient.hpp"
#include "util/json_lint.hpp"

namespace xtalk::util {
namespace {

TEST(TraceBuffer, HoldsPushedEventsInOrder) {
  TraceBuffer buf(8);
  for (int i = 0; i < 5; ++i) {
    trace_instant(&buf, "e", "i", i);
  }
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg0, i);
  }
}

TEST(TraceBuffer, OverflowDropsOldestAndNeverBlocks) {
  TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    trace_instant(&buf, "e", "i", i);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The last four pushes survive, oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg0, static_cast<std::int64_t>(6 + i));
  }
}

TEST(TraceBuffer, ZeroCapacityIsClampedToOne) {
  TraceBuffer buf(0);
  EXPECT_GE(buf.capacity(), 1u);
  trace_instant(&buf, "e");
  EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceBuffer, ClearResetsEverything) {
  TraceBuffer buf(2);
  for (int i = 0; i < 5; ++i) trace_instant(&buf, "e");
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceSpan, NullBufferIsANoOp) {
  TraceSpan span(nullptr, "nothing", "arg", 42);
  span.finish();
  span.finish();  // idempotent on the disabled path too
}

TEST(TraceSpan, NestedSpansCloseChildFirstWithTimeContainment) {
  TraceBuffer buf(8);
  {
    TraceSpan outer(&buf, "outer");
    {
      TraceSpan inner(&buf, "inner");
      // Make the inner span measurably non-empty.
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: the child lands in the buffer before the parent.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  // The parent interval contains the child.
  EXPECT_LE(events[1].t0_ns, events[0].t0_ns);
  EXPECT_GE(events[1].t1_ns, events[0].t1_ns);
  // Spans are never zero-width ("X" phase, not "i").
  EXPECT_GT(events[0].t1_ns, events[0].t0_ns);
  EXPECT_GT(events[1].t1_ns, events[1].t0_ns);
}

TEST(TraceSpan, FinishIsIdempotent) {
  TraceBuffer buf(8);
  TraceSpan span(&buf, "once");
  span.finish();
  span.finish();
  EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceSession, ChromeTraceJsonIsValidAndStructured) {
  TraceSession session(2, 16);
  {
    TraceSpan s(session.buffer(0), "phase \"quoted\"", "arg", -3);
  }
  trace_instant(session.buffer(1), "marker");
  EXPECT_EQ(session.total_events(), 2u);
  EXPECT_EQ(session.total_dropped(), 0u);

  const std::string json = session.chrome_trace_json("test-proc");
  JsonValue root;
  std::string err;
  ASSERT_TRUE(parse_json(json, &root, &err)) << err << "\n" << json;
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t spans = 0, instants = 0, meta = 0;
  bool saw_quoted_name = false;
  for (const JsonValue& e : events->items) {
    ASSERT_TRUE(e.is_object());
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    const std::string& ph = e.find("ph")->str;
    if (ph == "M") {
      ++meta;
      continue;
    }
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    if (ph == "X") {
      ++spans;
      EXPECT_TRUE(e.has("dur"));
      EXPECT_GT(e.find("dur")->number, 0.0);
      if (e.find("name")->str == "phase \"quoted\"") saw_quoted_name = true;
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("arg")->number, -3.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.find("tid")->number, 1.0);
    }
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(instants, 1u);
  // Process name plus one thread-name record per buffer.
  EXPECT_EQ(meta, 3u);
  EXPECT_TRUE(saw_quoted_name);
}

TEST(TraceSession, WriteChromeTraceRoundTrips) {
  TraceSession session(1, 8);
  {
    TraceSpan s(session.buffer(0), "work");
  }
  const std::string path = ::testing::TempDir() + "xtalk_trace_rt.json";
  std::string err;
  ASSERT_TRUE(session.write_chrome_trace(path, "proc", &err)) << err;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue root;
  ASSERT_TRUE(parse_json(buf.str(), &root, &err)) << err;
  ASSERT_TRUE(root.find("traceEvents")->is_array());
  std::remove(path.c_str());
}

TEST(TraceSession, WriteToBadPathReportsError) {
  TraceSession session(1, 8);
  std::string err;
  EXPECT_FALSE(session.write_chrome_trace(
      "/nonexistent-dir-xtalk/trace.json", "proc", &err));
  EXPECT_FALSE(err.empty());
}

TEST(TraceBuffer, ConcurrentPerThreadBuffersDoNotInterfere) {
  // One writer per buffer, in parallel — the single-writer contract.
  TraceSession session(4, 64);
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&session, t] {
      for (int i = 0; i < 200; ++i) {
        TraceSpan span(session.buffer(t), "w");
      }
    });
  }
  for (std::thread& th : writers) th.join();
  // 64 per buffer survive, the rest dropped; nothing lost or double-counted.
  EXPECT_EQ(session.total_events(), 4u * 64u);
  EXPECT_EQ(session.total_dropped(), 4u * (200u - 64u));
}

TEST(JsonLint, AcceptsValidDocuments) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(parse_json("null", &v, &err));
  EXPECT_EQ(v.kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_json("[1, 2.5, -3e2, \"x\", true, {}]", &v, &err));
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.items.size(), 6u);
  EXPECT_EQ(v.items[1].number, 2.5);
  EXPECT_TRUE(parse_json("{\"a\": {\"b\": [false]}, \"c\": \"\\n\\u0041\"}",
                         &v, &err));
  ASSERT_TRUE(v.is_object());
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonLint, RejectsMalformedDocuments) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json("", &v, &err));
  EXPECT_FALSE(parse_json("{", &v, &err));
  EXPECT_FALSE(parse_json("[1,]", &v, &err));
  EXPECT_FALSE(parse_json("{\"a\" 1}", &v, &err));
  EXPECT_FALSE(parse_json("01", &v, &err));
  EXPECT_FALSE(parse_json("1. ", &v, &err));
  EXPECT_FALSE(parse_json("\"unterminated", &v, &err));
  EXPECT_FALSE(parse_json("\"bad\\q\"", &v, &err));
  EXPECT_FALSE(parse_json("true false", &v, &err));  // trailing tokens
  EXPECT_FALSE(err.empty());
  // Depth bomb: deeper than the parser's recursion limit.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(parse_json(deep, &v, &err));
}

TEST(TransientTrace, SimulateEmitsDcAndRunSpansAndStats) {
  sim::Circuit ckt;
  const device::Technology& tech = device::Technology::half_micron();
  core::TransistorNetlistBuilder b(ckt, tech);
  const sim::NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::ramp(0.1e-9, 0.0, 0.3e-9, tech.vdd));
  std::vector<std::optional<sim::NodeId>> pins(2);
  pins[0] = in;
  const sim::NodeId out =
      b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"), "i0",
                    pins)
          .output;
  ckt.add_capacitor(out, ckt.ground(), 10e-15);

  TraceBuffer buf(64);
  sim::TransientOptions opt;
  opt.tstop = 1e-9;
  opt.trace = &buf;
  const sim::TransientResult r =
      sim::simulate(ckt, device::DeviceTableSet::half_micron(), opt);
  EXPECT_GT(r.stats.accepted_steps, 0u);
  EXPECT_EQ(r.stats.holds, 0u);

  bool saw_dc = false, saw_run = false;
  std::uint64_t dc_t0 = 0, dc_t1 = 0, run_t0 = 0, run_t1 = 0;
  for (const TraceEvent& e : buf.snapshot()) {
    if (std::string(e.name) == "sim.dc") {
      saw_dc = true;
      dc_t0 = e.t0_ns;
      dc_t1 = e.t1_ns;
    } else if (std::string(e.name) == "sim.run") {
      saw_run = true;
      run_t0 = e.t0_ns;
      run_t1 = e.t1_ns;
    }
  }
  ASSERT_TRUE(saw_dc);
  ASSERT_TRUE(saw_run);
  EXPECT_LE(run_t0, dc_t0);  // the run span contains the DC solve
  EXPECT_GE(run_t1, dc_t1);
}

TEST(TransientTrace, StatsAreIndependentOfTracing) {
  sim::Circuit ckt;
  const device::Technology& tech = device::Technology::half_micron();
  core::TransistorNetlistBuilder b(ckt, tech);
  const sim::NodeId in = ckt.add_node("in");
  ckt.add_vsource(in, util::Pwl::ramp(0.1e-9, 0.0, 0.3e-9, tech.vdd));
  std::vector<std::optional<sim::NodeId>> pins(2);
  pins[0] = in;
  const sim::NodeId out =
      b.expand_cell(netlist::CellLibrary::half_micron().get("INV_X1"), "i0",
                    pins)
          .output;
  ckt.add_capacitor(out, ckt.ground(), 10e-15);

  sim::TransientOptions opt;
  opt.tstop = 1e-9;
  const sim::TransientResult plain =
      sim::simulate(ckt, device::DeviceTableSet::half_micron(), opt);
  TraceBuffer buf(64);
  opt.trace = &buf;
  const sim::TransientResult traced =
      sim::simulate(ckt, device::DeviceTableSet::half_micron(), opt);
  EXPECT_EQ(plain.stats.accepted_steps, traced.stats.accepted_steps);
  EXPECT_EQ(plain.stats.newton_retries, traced.stats.newton_retries);
  EXPECT_EQ(plain.stats.step_halvings, traced.stats.step_halvings);
  ASSERT_EQ(plain.num_steps(), traced.num_steps());
  // Tracing must not perturb the integration: bitwise-equal waveforms.
  for (std::size_t s = 0; s < plain.num_steps(); ++s) {
    ASSERT_EQ(plain.voltage(s, out), traced.voltage(s, out));
  }
}

}  // namespace
}  // namespace xtalk::util
