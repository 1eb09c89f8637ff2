// The analysis service end to end over loopback TCP: protocol round trips,
// the bitwise service-vs-local contract (single and multi-scenario), ECO
// sessions, malformed-frame recovery, the protocol fuzz seeds, overload
// truncation, and the graceful shutdown drain (listener closes first).
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "fuzz/protocol_decode.hpp"
#include "netlist/circuit_generator.hpp"
#include "service/client.hpp"
#include "sta/incremental/incremental_sta.hpp"

namespace xtalk::service {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// One shared base design for the whole file (the expensive part).
DesignSession& shared_session() {
  static DesignSession* session = new DesignSession(
      core::Design::generate(netlist::scaled_spec("svc", 17, 150, 8)), "svc");
  return *session;
}

/// The local, unbudgeted run of `spec` on the shared design.
sta::StaResult local_unbudgeted(RunSpec spec) {
  spec.deadline_ms = 0.0;
  spec.max_waveform_calcs = 0;
  return sta::run_sta(shared_session().view(), spec.to_options());
}

/// The anytime contract of a remote run: every endpoint arrival it reports
/// is at least the unbudgeted local arrival of the same (net, edge), and
/// every endpoint it lists as untimed carries no arrival.
void expect_conservative(const RunResultMsg& remote,
                         const sta::StaResult& full) {
  std::map<std::pair<std::uint32_t, bool>, double> converged;
  for (const sta::EndpointArrival& e : full.endpoints) {
    converged[{e.net, e.rising}] = e.arrival;
  }
  for (const WireEndpoint& e : remote.endpoints) {
    const auto it = converged.find({e.net, e.rising});
    ASSERT_NE(it, converged.end()) << "net " << e.net;
    EXPECT_GE(e.arrival, it->second) << "net " << e.net;
  }
  for (const std::uint32_t net : remote.untimed_endpoints) {
    for (const WireEndpoint& e : remote.endpoints) {
      EXPECT_NE(e.net, net) << "untimed net " << net << " has an arrival";
    }
  }
}

/// Server + connected client for one test.
struct ServerFixture {
  explicit ServerFixture(ServiceConfig config = {},
                         DesignSession& session = shared_session())
      : server(session, sanitized(std::move(config))) {
    server.start();
  }
  ~ServerFixture() { server.stop(); }

  static ServiceConfig sanitized(ServiceConfig config) {
    config.unix_path.clear();  // loopback TCP, ephemeral port
    config.tcp_port = 0;
    return config;
  }

  XtalkClient connect() { return XtalkClient::connect_tcp(server.port()); }

  /// Block until an executor has picked up `n` requests in total. The drain
  /// contract covers *received* requests, not bytes still in the kernel
  /// buffer, so a drain test waits for this before stopping the server.
  void wait_for_requests(std::uint64_t n) {
    while (server.stats_snapshot().requests_total < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  XtalkServer server;
};

TEST(Protocol, RunSpecRoundTripsThroughWire) {
  RunSpec spec;
  spec.mode = sta::AnalysisMode::kIterative;
  spec.delay_model = sta::DelayModel::kNldm;
  spec.input_slew = 0.17e-9;
  spec.convergence_eps = 0.05e-12;
  spec.max_passes = 7;
  spec.esperance = true;
  spec.esperance_window = 0.9e-9;
  spec.timing_windows = true;
  spec.deadline_ms = 125.0;
  spec.max_waveform_calcs = 4242;
  spec.scenario.name = "ff_derated";
  spec.scenario.vdd_scale = 1.1;
  spec.scenario.temperature_c = -40.0;
  spec.scenario.coupling_derate = 1.2;
  spec.scenario.override_mode = true;
  spec.scenario.mode = sta::AnalysisMode::kStaticDoubled;
  spec.scenario.process = device::ProcessCorner::kFast;

  util::WireWriter w;
  spec.encode(w);
  util::WireReader r(w.data());
  RunSpec decoded;
  ASSERT_TRUE(decoded.decode(r));
  ASSERT_TRUE(r.finish());
  EXPECT_EQ(decoded.mode, spec.mode);
  EXPECT_EQ(decoded.delay_model, spec.delay_model);
  EXPECT_TRUE(bits_equal(decoded.input_slew, spec.input_slew));
  EXPECT_TRUE(bits_equal(decoded.convergence_eps, spec.convergence_eps));
  EXPECT_EQ(decoded.max_passes, spec.max_passes);
  EXPECT_EQ(decoded.esperance, spec.esperance);
  EXPECT_EQ(decoded.timing_windows, spec.timing_windows);
  EXPECT_TRUE(bits_equal(decoded.deadline_ms, spec.deadline_ms));
  EXPECT_EQ(decoded.max_waveform_calcs, spec.max_waveform_calcs);
  EXPECT_EQ(decoded.scenario.name, spec.scenario.name);
  EXPECT_TRUE(bits_equal(decoded.scenario.vdd_scale, spec.scenario.vdd_scale));
  EXPECT_TRUE(
      bits_equal(decoded.scenario.temperature_c, spec.scenario.temperature_c));
  EXPECT_TRUE(bits_equal(decoded.scenario.coupling_derate,
                         spec.scenario.coupling_derate));
  EXPECT_EQ(decoded.scenario.override_mode, spec.scenario.override_mode);
  EXPECT_EQ(decoded.scenario.mode, spec.scenario.mode);
  EXPECT_EQ(decoded.scenario.process, spec.scenario.process);
}

/// `spec`'s encoding with its last byte — the scenario's process corner —
/// replaced by `process_byte`.
std::vector<std::uint8_t> with_process_byte(const RunSpec& spec,
                                            std::uint8_t process_byte) {
  util::WireWriter w;
  spec.encode(w);
  std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end() - 1);
  bytes.push_back(process_byte);
  return bytes;
}

TEST(Protocol, RunResultRoundTripsThroughWire) {
  RunResultMsg m;
  m.longest_path_delay = 3.25e-9;
  m.critical = {7, false, 3.25e-9};
  m.endpoints = {{7, false, 3.25e-9}, {9, true, 1.5e-9}};
  m.passes = 2;
  m.waveform_calculations = 1234;
  m.gates_reused = 56;
  m.runtime_seconds = 0.125;
  m.threads_used = 3;
  m.missing_sink_wires = 1;
  m.budget_exhausted = true;
  m.budget_reason = static_cast<std::uint8_t>(util::BudgetReason::kCancelled);
  m.completed_passes = 1;
  m.completed_levels = 4;
  m.total_levels = 8;
  m.governor_checks = 11;
  m.untimed_endpoints = {11, 12};
  m.diagnostics_dropped = 2;
  WireDiagnostic d;
  d.code = 3;
  d.severity = 1;
  d.gate = 5;
  d.net = -1;
  d.level = 2;
  d.pass = 1;
  d.message = "degraded";
  m.diagnostics.push_back(d);

  util::WireWriter w;
  m.encode(w);
  util::WireReader r(w.data());
  RunResultMsg decoded;
  ASSERT_TRUE(decoded.decode(r));
  ASSERT_TRUE(r.finish());
  util::WireWriter again;
  decoded.encode(again);
  EXPECT_EQ(again.data(), w.data());
  EXPECT_EQ(decoded.budget_reason, m.budget_reason);
  EXPECT_EQ(decoded.untimed_endpoints, m.untimed_endpoints);
  EXPECT_EQ(decoded.governor_checks, m.governor_checks);
  ASSERT_EQ(decoded.diagnostics.size(), 1u);
  EXPECT_EQ(decoded.diagnostics[0].message, d.message);
}

TEST(Protocol, RunSpecRejectsOutOfRangeEnums) {
  RunSpec spec;
  util::WireWriter w;
  spec.encode(w);
  std::vector<std::uint8_t> bytes = w.data();
  bytes[0] = 250;  // mode byte
  util::WireReader r(bytes.data(), bytes.size(), {});
  RunSpec decoded;
  EXPECT_FALSE(decoded.decode(r));
  EXPECT_FALSE(r.ok());

  // The scenario's process corner: 2 (kFast) is the last valid value.
  const std::vector<std::uint8_t> fast = with_process_byte(spec, 2);
  util::WireReader ok(fast);
  ASSERT_TRUE(decoded.decode(ok));
  EXPECT_TRUE(ok.finish());
  EXPECT_EQ(decoded.scenario.process, device::ProcessCorner::kFast);
  const std::vector<std::uint8_t> bad = with_process_byte(spec, 3);
  util::WireReader bad_r(bad);
  EXPECT_FALSE(decoded.decode(bad_r));
  EXPECT_FALSE(bad_r.ok());

  // The slack query's scenario list shares the encoding and the check.
  SlackQueryMsg q;
  q.scenarios.resize(1);
  util::WireWriter qw;
  q.encode(qw);
  std::vector<std::uint8_t> q_bytes(qw.data().begin(), qw.data().end() - 1);
  q_bytes.push_back(3);
  util::WireReader qr(q_bytes);
  SlackQueryMsg q_decoded;
  EXPECT_FALSE(q_decoded.decode(qr));
}

TEST(Protocol, CacheKeyFoldsTheModeOverride) {
  // One analysis named two ways memoizes once: a kStaticDoubled spec, and
  // a kOneStep spec whose scenario overrides the mode to kStaticDoubled.
  RunSpec plain;
  plain.mode = sta::AnalysisMode::kStaticDoubled;
  RunSpec overridden;
  overridden.scenario.override_mode = true;
  overridden.scenario.mode = sta::AnalysisMode::kStaticDoubled;
  EXPECT_EQ(plain.cache_key(), overridden.cache_key());
  EXPECT_EQ(plain.to_options().mode, overridden.to_options().mode);
  // Without the flag the scenario's mode is inert, and stays out of the key.
  RunSpec inert = plain;
  inert.scenario.mode = sta::AnalysisMode::kIterative;
  EXPECT_EQ(plain.cache_key(), inert.cache_key());
  // A different analysis keys differently.
  RunSpec other = overridden;
  other.scenario.mode = sta::AnalysisMode::kIterative;
  EXPECT_NE(plain.cache_key(), other.cache_key());
}

TEST(Protocol, EveryFuzzSeedDecodesAndFinishes) {
  // A seed that fails to decode makes the fuzzer mutate frames that die at
  // the first missing field, so every seed must carry the current layout
  // (re-capture the seeds whose message changed on each version bump).
  std::size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(XTALK_PROTOCOL_CORPUS)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_TRUE(fuzz::decode_payload(bytes.data(), bytes.size()))
        << entry.path().filename();
    ++seeds;
  }
  EXPECT_GE(seeds, 14u);
}

TEST(Service, HelloReportsDesign) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  const HelloOkMsg hello = client.hello();
  EXPECT_EQ(hello.protocol_version, kProtocolVersion);
  EXPECT_EQ(hello.design_name, "svc");
  EXPECT_EQ(hello.num_gates, shared_session().view().netlist->num_gates());
  EXPECT_GT(hello.num_levels, 0u);
  client.ping();
}

TEST(Service, RunIsBitwiseIdenticalToLocalRun) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  RunSpec spec;
  spec.mode = sta::AnalysisMode::kOneStep;
  const RunResultMsg remote = client.run_sta(spec);

  const sta::StaResult local =
      sta::run_sta(shared_session().view(), spec.to_options());
  ASSERT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay));
  EXPECT_EQ(remote.critical.net, local.critical.net);
  EXPECT_EQ(remote.critical.rising, local.critical.rising);
  ASSERT_EQ(remote.endpoints.size(), local.endpoints.size());
  for (std::size_t i = 0; i < local.endpoints.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(remote.endpoints[i].arrival, local.endpoints[i].arrival))
        << "endpoint " << i;
    EXPECT_EQ(remote.endpoints[i].net, local.endpoints[i].net);
  }
  EXPECT_EQ(remote.passes, local.passes);
  EXPECT_EQ(remote.waveform_calculations, local.waveform_calculations);
  EXPECT_FALSE(remote.budget_exhausted);
}

TEST(Service, QueriesReadTheCachedBaseline) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  RunSpec spec;
  const EndpointsMsg endpoints = client.query_endpoints(spec);
  ASSERT_FALSE(endpoints.endpoints.empty());
  // The second identical query must hit the cache, not add an entry.
  const std::size_t cached = shared_session().baselines_cached();
  client.query_endpoints(spec);
  EXPECT_EQ(shared_session().baselines_cached(), cached);

  const WireEndpoint& probe = endpoints.endpoints.front();
  SlackQueryMsg q;
  q.spec = spec;
  q.net = probe.net;
  q.rising = probe.rising;
  q.required_time = 5e-9;
  const SlackMsg slack = client.query_slack(q);
  ASSERT_TRUE(slack.valid);
  EXPECT_TRUE(bits_equal(slack.arrival, probe.arrival));
  EXPECT_TRUE(bits_equal(slack.slack, 5e-9 - probe.arrival));

  // A non-endpoint net is a clean miss, not an error.
  q.net = 0xFFFFFF;
  EXPECT_FALSE(client.query_slack(q).valid);
}

TEST(Service, MultiScenarioSlackIsTheMinimumOverLocalRuns) {
  // Own session, so the corner and baseline counts below are exact.
  DesignSession session(
      core::Design::generate(netlist::scaled_spec("svc-mcmm", 23, 80, 6)),
      "svc-mcmm");
  ServerFixture fx({}, session);
  XtalkClient client = fx.connect();

  std::vector<sta::Scenario> scenarios(3);
  scenarios[0].name = "nominal";
  scenarios[1].name = "process_slow";  // nominal V/T bits, its own corner
  scenarios[1].process = device::ProcessCorner::kSlow;
  scenarios[2].name = "vt_fast";
  scenarios[2].vdd_scale = 1.1;
  scenarios[2].temperature_c = -40.0;

  RunSpec spec;
  const sta::McmmResult local =
      session.design().run_scenarios(spec.to_options(), scenarios);
  ASSERT_EQ(local.runs.size(), 3u);
  const std::vector<sta::EndpointArrival>& probes =
      local.runs[0].result.endpoints;
  ASSERT_FALSE(probes.empty());

  const double required = 5e-9;
  std::size_t checked = 0;
  std::vector<int> owners(scenarios.size(), 0);
  for (std::size_t p = 0; p < probes.size() && checked < 8; ++p, ++checked) {
    const sta::EndpointArrival& probe = probes[p];
    // Local oracle: strict < keeps the first scenario on exact ties.
    bool found = false;
    double min_slack = 0.0, owner_arrival = 0.0;
    std::size_t owner = 0;
    for (std::size_t si = 0; si < local.runs.size(); ++si) {
      for (const sta::EndpointArrival& e : local.runs[si].result.endpoints) {
        if (e.net != probe.net || e.rising != probe.rising) continue;
        const double slack = required - e.arrival;
        if (!found || slack < min_slack) {
          found = true;
          min_slack = slack;
          owner_arrival = e.arrival;
          owner = si;
        }
        break;
      }
    }
    ASSERT_TRUE(found);
    ++owners[owner];

    SlackQueryMsg q;
    q.spec = spec;
    q.net = probe.net;
    q.rising = probe.rising;
    q.required_time = required;
    q.scenarios = scenarios;
    const SlackMsg m = client.query_slack(q);
    SCOPED_TRACE("endpoint net " + std::to_string(probe.net));
    ASSERT_TRUE(m.valid);
    EXPECT_TRUE(bits_equal(m.slack, min_slack));
    EXPECT_TRUE(bits_equal(m.arrival, owner_arrival));
    EXPECT_EQ(m.worst_scenario, scenarios[owner].name);
  }
  // The slow process corner owns the worst slack somewhere — the query
  // really did evaluate it, not the nominal corner twice.
  EXPECT_GT(owners[1], 0);

  // Three corners: process_slow shares nominal's V/T bits but not its key.
  EXPECT_EQ(session.corners_cached(), 3u);
  EXPECT_EQ(session.baselines_cached(), 3u);
}

TEST(Service, RunAtAProcessCornerIsBitwiseTheLocalScenarioRun) {
  // Own session, so the shared design's corner cache stays nominal-only.
  DesignSession session(
      core::Design::generate(netlist::scaled_spec("svc-corner", 29, 80, 6)),
      "svc-corner");
  ServerFixture fx({}, session);
  XtalkClient client = fx.connect();

  RunSpec spec;
  spec.scenario.name = "process_slow";
  spec.scenario.process = device::ProcessCorner::kSlow;
  const RunResultMsg remote = client.run_sta(spec);

  const sta::McmmResult local =
      session.design().run_scenarios(RunSpec{}.to_options(), {spec.scenario});
  ASSERT_EQ(local.runs.size(), 1u);
  const sta::StaResult& slow = local.runs[0].result;
  ASSERT_TRUE(bits_equal(remote.longest_path_delay, slow.longest_path_delay));
  EXPECT_EQ(remote.critical.net, slow.critical.net);
  EXPECT_EQ(remote.critical.rising, slow.critical.rising);
  ASSERT_EQ(remote.endpoints.size(), slow.endpoints.size());
  for (std::size_t i = 0; i < slow.endpoints.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(remote.endpoints[i].arrival, slow.endpoints[i].arrival))
        << "endpoint " << i;
    EXPECT_EQ(remote.endpoints[i].net, slow.endpoints[i].net);
  }
  EXPECT_EQ(remote.passes, slow.passes);
  EXPECT_EQ(remote.waveform_calculations, slow.waveform_calculations);

  // The corner really moved the result, and the baseline query of the same
  // spec reads the same corner.
  const sta::StaResult nominal =
      sta::run_sta(session.view(), RunSpec{}.to_options());
  EXPECT_FALSE(bits_equal(slow.longest_path_delay, nominal.longest_path_delay));
  const EndpointsMsg queried = client.query_endpoints(spec);
  EXPECT_TRUE(
      bits_equal(queried.longest_path_delay, remote.longest_path_delay));
  EXPECT_EQ(session.corners_cached(), 1u);
}

TEST(Service, EcoSessionMatchesLocalIncrementalRun) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  RunSpec spec;
  const std::uint32_t id = client.eco_open(spec).session_id;

  // Local mirror: same base, same edits, same options.
  sta::incremental::DesignEditor mirror(shared_session().view());
  sta::incremental::IncrementalSta mirror_sta(mirror, spec.to_options());

  std::vector<EcoOp> batch1;
  EcoOp resize;
  resize.kind = EcoOp::Kind::kResizeGate;
  resize.gate = 5;
  resize.value_a = 2.0;
  batch1.push_back(resize);
  EcoOp cap;
  cap.kind = EcoOp::Kind::kSetWireCap;
  cap.net_a = 20;
  cap.value_a = 9e-15;
  batch1.push_back(cap);
  EXPECT_EQ(client.eco_edit(id, batch1), 2u);
  mirror.resize_gate(5, 2.0);
  mirror.set_wire_cap(20, 9e-15);

  const RunResultMsg remote1 = client.eco_run(id);
  const sta::StaResult local1 = mirror_sta.run();
  EXPECT_TRUE(
      bits_equal(remote1.longest_path_delay, local1.longest_path_delay));
  ASSERT_EQ(remote1.endpoints.size(), local1.endpoints.size());
  for (std::size_t i = 0; i < local1.endpoints.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(remote1.endpoints[i].arrival, local1.endpoints[i].arrival));
  }

  // Second round: the service session replays its cached trace too.
  std::vector<EcoOp> batch2;
  EcoOp coupling;
  coupling.kind = EcoOp::Kind::kSetCoupling;
  coupling.net_a = 12;
  coupling.net_b = 30;
  coupling.value_a = 5e-15;
  batch2.push_back(coupling);
  EXPECT_EQ(client.eco_edit(id, batch2), 1u);
  mirror.set_coupling(12, 30, 5e-15);
  const RunResultMsg remote2 = client.eco_run(id);
  const sta::StaResult local2 = mirror_sta.run();
  EXPECT_TRUE(
      bits_equal(remote2.longest_path_delay, local2.longest_path_delay));
  EXPECT_GT(remote2.gates_reused, 0u);

  client.eco_close(id);
  // The session is gone now.
  try {
    client.eco_run(id);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownSession);
  }
}

TEST(Service, EcoEditValidatesIdsBeforeApplying) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  const std::uint32_t id = client.eco_open(RunSpec{}).session_id;
  std::vector<EcoOp> ops;
  EcoOp bad;
  bad.kind = EcoOp::Kind::kResizeGate;
  bad.gate = 0xFFFFFF;  // way outside the design
  bad.value_a = 2.0;
  ops.push_back(bad);
  try {
    client.eco_edit(id, ops);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  // A rejected resize factor surfaces as kEditRejected, connection intact.
  EcoOp zero;
  zero.kind = EcoOp::Kind::kResizeGate;
  zero.gate = 1;
  zero.value_a = 0.0;
  try {
    client.eco_edit(id, {zero});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEditRejected);
  }
  client.eco_close(id);
}

TEST(Service, MalformedBodyGetsErrorAndConnectionSurvives) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  // kRunSta frames whose body is garbage, or a RunSpec whose process
  // corner byte is out of range: decodes fail recoverably.
  util::WireWriter garbage;
  garbage.u8(0xFF);
  util::WireWriter bad_process;
  for (const std::uint8_t b : with_process_byte(RunSpec{}, 3)) {
    bad_process.u8(b);
  }
  std::uint32_t request_id = 77;
  for (const util::WireWriter* body : {&garbage, &bad_process}) {
    client.send_frame(MsgType::kRunSta, request_id, *body);
    FrameView reply = client.recv_frame();
    EXPECT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(reply.request_id, request_id);
    util::WireReader r = reply.body(client.limits());
    ErrorMsg err;
    ASSERT_TRUE(err.decode(r));
    EXPECT_EQ(err.code, ErrorCode::kMalformedFrame);
    EXPECT_FALSE(err.message.empty());
    // The connection still serves.
    client.ping();
    ++request_id;
  }
}

TEST(Service, UnknownRequestTypeIsRejectedRecoverably) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  client.send_frame(static_cast<MsgType>(40), 5, util::WireWriter{});
  FrameView reply = client.recv_frame();
  EXPECT_EQ(reply.type, MsgType::kError);
  client.ping();
}

TEST(Service, OversizedFrameHeaderClosesConnection) {
  ServiceConfig config;
  config.wire.max_frame_bytes = 4096;
  ServerFixture fx(config);
  XtalkClient client = fx.connect();
  // Claim a 16 MiB payload: resynchronization is impossible, so the server
  // answers with kError and closes.
  std::vector<std::uint8_t> header = {0x00, 0x00, 0x00, 0x01};
  client.send_raw(header);
  FrameView reply = client.recv_frame();
  EXPECT_EQ(reply.type, MsgType::kError);
  util::WireReader r = reply.body(client.limits());
  ErrorMsg err;
  ASSERT_TRUE(err.decode(r));
  EXPECT_EQ(err.code, ErrorCode::kMalformedFrame);
  // The connection is gone: the next read hits EOF.
  EXPECT_THROW(client.recv_frame(), std::exception);
  // And the server still accepts fresh connections.
  XtalkClient again = fx.connect();
  again.ping();
}

TEST(Service, PipelinedRequestsExecuteInOrder) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  client.send_frame(MsgType::kPing, 1, util::WireWriter{});
  client.send_frame(MsgType::kPing, 2, util::WireWriter{});
  util::WireWriter hello_body;
  HelloMsg{}.encode(hello_body);
  client.send_frame(MsgType::kHello, 3, hello_body);
  FrameView r1 = client.recv_frame();
  FrameView r2 = client.recv_frame();
  FrameView r3 = client.recv_frame();
  EXPECT_EQ(r1.request_id, 1u);
  EXPECT_EQ(r2.request_id, 2u);
  EXPECT_EQ(r3.request_id, 3u);
  EXPECT_EQ(r1.type, MsgType::kPong);
  EXPECT_EQ(r3.type, MsgType::kHelloOk);
}

TEST(Service, BudgetedRunTruncatesBitwiseLikeALocalBudgetedRun) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  RunSpec spec;
  spec.max_waveform_calcs = 60;  // far below the design's full cost
  const RunResultMsg remote = client.run_sta(spec);
  EXPECT_TRUE(remote.budget_exhausted);
  EXPECT_FALSE(remote.untimed_endpoints.empty());
  expect_conservative(remote, local_unbudgeted(spec));

  const sta::StaResult local =
      sta::run_sta(shared_session().view(), spec.to_options());
  ASSERT_TRUE(local.budget.exhausted);
  EXPECT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay));
  ASSERT_EQ(remote.endpoints.size(), local.endpoints.size());
  for (std::size_t i = 0; i < local.endpoints.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(remote.endpoints[i].arrival, local.endpoints[i].arrival));
  }
  EXPECT_EQ(remote.untimed_endpoints.size(),
            local.budget.untimed_endpoints.size());
}

TEST(Service, OverloadDegradesIntoConservativeAnytimeResults) {
  ServiceConfig config;
  config.num_executors = 1;
  config.admission.soft_queue = 0;  // clamp whenever anything waits
  config.admission.overload_max_calcs = 60;
  ServerFixture fx(config);

  // Fill one executor's queue from several pipelined connections so later
  // pickups see waiting work and clamp.
  XtalkClient a = fx.connect();
  XtalkClient b = fx.connect();
  XtalkClient c = fx.connect();
  RunSpec spec;
  util::WireWriter body;
  spec.encode(body);
  a.send_frame(MsgType::kRunSta, 1, body);
  b.send_frame(MsgType::kRunSta, 1, body);
  c.send_frame(MsgType::kRunSta, 1, body);

  const sta::StaResult full = local_unbudgeted(spec);
  std::size_t truncated = 0;
  for (XtalkClient* client : {&a, &b, &c}) {
    FrameView reply = client->recv_frame();
    ASSERT_EQ(reply.type, MsgType::kRunResult);
    util::WireReader r = reply.body(client->limits());
    RunResultMsg m;
    ASSERT_TRUE(m.decode(r));
    if (m.budget_exhausted) {
      ++truncated;
      // The overload contract: a conservative anytime result, not an error.
      expect_conservative(m, full);
    }
  }
  EXPECT_GT(truncated, 0u);
  const StatsMsg stats = fx.connect().stats();
  EXPECT_GT(stats.requests_degraded_admission, 0u);
  EXPECT_EQ(stats.requests_error, 0u);
}

TEST(Service, ShutdownDrainsListenerFirst) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  client.ping();
  client.shutdown_server();  // kShutdownOk acknowledged = drain started
  // The listener is closed: new connections fail (poll the few ms the
  // event loop may need to process the stop).
  bool refused = false;
  for (int i = 0; i < 100 && !refused; ++i) {
    try {
      XtalkClient probe = fx.connect();
      probe.ping();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } catch (const std::exception&) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  fx.server.join();
  EXPECT_FALSE(fx.server.running());
}

TEST(Service, StopWithInFlightWorkCompletesIt) {
  ServiceConfig config;
  config.drain = DrainPolicy::kFinish;
  ServerFixture fx(config);
  XtalkClient client = fx.connect();
  // Pipeline a run, then immediately stop the server: the received request
  // must still produce its full response before the connection closes.
  RunSpec spec;
  util::WireWriter body;
  spec.encode(body);
  client.send_frame(MsgType::kRunSta, 9, body);
  fx.wait_for_requests(1);
  fx.server.request_stop();
  FrameView reply = client.recv_frame();
  EXPECT_EQ(reply.type, MsgType::kRunResult);
  EXPECT_EQ(reply.request_id, 9u);
  fx.server.join();
}

TEST(Service, TruncateDrainYieldsConservativeResults) {
  ServiceConfig config;
  config.drain = DrainPolicy::kTruncate;
  ServerFixture fx(config);
  XtalkClient client = fx.connect();
  RunSpec spec;
  util::WireWriter body;
  spec.encode(body);
  client.send_frame(MsgType::kRunSta, 4, body);
  fx.wait_for_requests(1);
  fx.server.request_stop();
  FrameView reply = client.recv_frame();
  ASSERT_EQ(reply.type, MsgType::kRunResult);
  util::WireReader r = reply.body(client.limits());
  RunResultMsg m;
  ASSERT_TRUE(m.decode(r));
  // Depending on timing the run either finished or was cancelled; either
  // way it is a conservative anytime result.
  expect_conservative(m, local_unbudgeted(spec));
  fx.server.join();
}

}  // namespace
}  // namespace xtalk::service
