// Chaos harness for the hardened service (DESIGN.md §14): deterministic
// socket fault injection, client retry/backoff, ECO journal recovery, server
// slow-loris eviction / orphan reaping, and the seeded chaos-proxy sweep.
//
// The invariant under every injected fault schedule:
//   1. every ACKNOWLEDGED result is bitwise identical to a fault-free run,
//   2. every failure surfaces as a clean typed error (TransportError or
//      ServiceError), never a hang or a corrupt result,
//   3. drain/shutdown terminates regardless of connection state.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "service/client.hpp"
#include "service/retry.hpp"
#include "service/server.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "util/fault_socket.hpp"
#include "util/rng.hpp"

namespace xtalk::service {
namespace {

using util::ChaosProxy;
using util::ChaosProxyConfig;
using util::FaultSocket;
using util::RecvOutcome;
using util::SocketFaultInjector;
using util::SocketFaultKind;
using util::SocketFaultOp;
using util::SocketFaultSpec;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Small design so the 200-seed sweep stays cheap; shared across the file.
DesignSession& chaos_session() {
  static DesignSession* session = new DesignSession(
      core::Design::generate(netlist::scaled_spec("chaos", 11, 60, 6)),
      "chaos");
  return *session;
}

struct ServerFixture {
  explicit ServerFixture(ServiceConfig config = {})
      : server(chaos_session(), sanitized(std::move(config))) {
    server.start();
  }
  ~ServerFixture() { server.stop(); }

  static ServiceConfig sanitized(ServiceConfig config) {
    config.unix_path.clear();
    config.tcp_port = 0;
    return config;
  }

  XtalkClient connect() { return XtalkClient::connect_tcp(server.port()); }

  XtalkServer server;
};

/// Fast-retry policy for tests: microsleep backoff, deterministic jitter.
RetryPolicy test_policy(std::uint64_t seed = 1, int attempts = 8) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 20;
  p.seed = seed;
  p.read_timeout_ms = 5000;
  return p;
}

/// Run `fn` with a hang guard: fail the test instead of wedging the suite.
template <typename Fn>
void assert_finishes_within(int seconds, Fn&& fn) {
  auto done = std::async(std::launch::async, std::forward<Fn>(fn));
  ASSERT_EQ(done.wait_for(std::chrono::seconds(seconds)),
            std::future_status::ready)
      << "operation hung past " << seconds << "s";
  done.get();  // propagate exceptions
}

// ---------------------------------------------------------------------------
// Injector semantics
// ---------------------------------------------------------------------------

TEST(SocketFaultInjector, FiltersBeforeCounting) {
  SocketFaultInjector inj;
  SocketFaultSpec spec;
  spec.kind = SocketFaultKind::kShortRead;
  spec.conn = 1;
  spec.after = 2;
  spec.count = 1;
  inj.add(spec);

  // Interleave probes from another connection: they must not advance the
  // spec's counter (deterministic schedules across interleavings).
  EXPECT_FALSE(inj.should_fire(SocketFaultOp::kRecv, 0).fire);
  EXPECT_FALSE(inj.should_fire(SocketFaultOp::kRecv, 1).fire);  // seen 0
  EXPECT_FALSE(inj.should_fire(SocketFaultOp::kRecv, 0).fire);
  EXPECT_FALSE(inj.should_fire(SocketFaultOp::kRecv, 1).fire);  // seen 1
  EXPECT_FALSE(inj.should_fire(SocketFaultOp::kSend, 1).fire);  // wrong op
  const auto fire = inj.should_fire(SocketFaultOp::kRecv, 1);   // seen 2
  EXPECT_TRUE(fire.fire);
  EXPECT_TRUE(fire.first);
  EXPECT_EQ(fire.kind, SocketFaultKind::kShortRead);
  // count=1 is spent.
  EXPECT_FALSE(inj.should_fire(SocketFaultOp::kRecv, 1).fire);
  EXPECT_EQ(inj.fired(), 1u);
}

TEST(SocketFaultInjector, ShortReadsStillDeliverEveryByte) {
  // A sticky short-read schedule degrades throughput, never correctness.
  util::Listener listener = util::Listener::tcp_loopback(0);
  util::Socket peer = util::connect_tcp_loopback(listener.port());
  util::Socket accepted;
  for (int i = 0; i < 100 && !accepted.valid(); ++i) {
    accepted = listener.accept_nonblocking();
    if (!accepted.valid())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.valid());

  SocketFaultInjector inj;
  SocketFaultSpec spec;
  spec.kind = SocketFaultKind::kShortRead;
  inj.add(spec);  // sticky: every read clamps to 1 byte
  FaultSocket reader(std::move(accepted));
  reader.arm(&inj, 0);

  const std::string sent = "deterministic chaos is still chaos";
  peer.send_all(sent.data(), sent.size());
  std::string got(sent.size(), '\0');
  ASSERT_EQ(reader.recv_exact_deadline(got.data(), got.size(), 2000),
            RecvOutcome::kOk);
  EXPECT_EQ(got, sent);
  EXPECT_GE(inj.fired(), sent.size());  // one probe per delivered byte
}

TEST(SocketFaultInjector, TearPoisonsTheSocket) {
  util::Listener listener = util::Listener::tcp_loopback(0);
  util::Socket peer = util::connect_tcp_loopback(listener.port());
  util::Socket accepted;
  for (int i = 0; i < 100 && !accepted.valid(); ++i) {
    accepted = listener.accept_nonblocking();
    if (!accepted.valid())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.valid());
  accepted.send_all("x", 1);  // make the victim's poll come back readable

  SocketFaultInjector inj;
  SocketFaultSpec spec;
  spec.kind = SocketFaultKind::kTearRead;
  inj.add(spec);
  FaultSocket victim(std::move(peer));
  victim.arm(&inj, 0);

  char byte;
  std::string error;
  ASSERT_EQ(victim.recv_exact_deadline(&byte, 1, 1000, &error),
            RecvOutcome::kError);
  EXPECT_NE(error.find("injected"), std::string::npos);
  EXPECT_FALSE(victim.valid());
  // Sticky: the fd stays dead, like a real torn connection.
  ASSERT_EQ(victim.recv_exact_deadline(&byte, 1, 1000, &error),
            RecvOutcome::kError);
}

TEST(FaultSocket, DeadlineExpiresOnSilentPeer) {
  util::Listener listener = util::Listener::tcp_loopback(0);
  util::Socket peer = util::connect_tcp_loopback(listener.port());
  FaultSocket waiting(std::move(peer));
  char byte;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(waiting.recv_exact_deadline(&byte, 1, 100), RecvOutcome::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 90);
  EXPECT_LT(elapsed, 5000);
}

// ---------------------------------------------------------------------------
// Client deadlines + typed errors (satellites S1/S2)
// ---------------------------------------------------------------------------

TEST(ChaosClient, TimesOutInsteadOfHangingOnDeadServer) {
  // A listener that accepts and then never speaks: the pre-hardening client
  // blocked in read() forever here.
  util::Listener silent = util::Listener::tcp_loopback(0);
  XtalkClient client = XtalkClient::connect_tcp(silent.port());
  client.set_read_timeout_ms(150);
  assert_finishes_within(10, [&] {
    try {
      client.ping();
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportFailure::kTimeout);
    }
  });
}

TEST(ChaosClient, VersionMismatchIsATypedError) {
  ServerFixture fx;
  XtalkClient client = fx.connect();

  // Wrong version: typed rejection, connection stays usable. Version 6 is
  // the last one with durable sessions (eco-resume, tokens); a client that
  // still speaks it must be turned away before it sends any of that.
  ErrorMsg err;
  FrameView reply;
  for (const std::uint32_t version : {999u, 6u}) {
    util::WireWriter beta;
    HelloMsg other_hello;
    other_hello.protocol_version = version;
    other_hello.encode(beta);
    client.send_frame(MsgType::kHello, 7, beta);
    reply = client.recv_frame();
    ASSERT_EQ(reply.type, MsgType::kError) << "version " << version;
    util::WireReader r = reply.body(client.limits());
    ASSERT_TRUE(err.decode(r));
    EXPECT_EQ(err.code, ErrorCode::kVersionMismatch) << "version " << version;
  }

  // Legacy v1 clients sent an empty hello body: same typed error, no
  // undefined decoding.
  client.send_frame(MsgType::kHello, 8, util::WireWriter{});
  reply = client.recv_frame();
  ASSERT_EQ(reply.type, MsgType::kError);
  util::WireReader r2 = reply.body(client.limits());
  ASSERT_TRUE(err.decode(r2));
  EXPECT_EQ(err.code, ErrorCode::kVersionMismatch);

  // Type 13 was eco-resume up to v6; it is retired, not reused, so a stray
  // frame of it is an unknown type and the connection keeps serving.
  util::WireWriter token;
  token.u64(1);
  client.send_frame(static_cast<MsgType>(13), 9, token);
  reply = client.recv_frame();
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, 9u);
  util::WireReader r3 = reply.body(client.limits());
  ASSERT_TRUE(err.decode(r3));
  EXPECT_EQ(err.code, ErrorCode::kUnknownType);
  client.ping();

  // The negotiated path round-trips.
  const HelloOkMsg ok = client.hello();
  EXPECT_EQ(ok.protocol_version, kProtocolVersion);
}

TEST(ChaosClient, HealthAnswersWithQueueState) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  const HealthMsg h = client.health();
  EXPECT_TRUE(h.accepting);
  EXPECT_EQ(h.protocol_version, kProtocolVersion);
  EXPECT_GE(h.connections, 1u);
  EXPECT_EQ(h.eco_sessions_open, 0u);
  EXPECT_GT(h.soft_queue_limit, 0u);
  EXPECT_FALSE(h.clamping);
}

// ---------------------------------------------------------------------------
// Resilient retry
// ---------------------------------------------------------------------------

TEST(ResilientClient, RetriesThroughTornConnections) {
  ServerFixture fx;
  SocketFaultInjector inj;
  // First response read on the first connection tears; the retry layer must
  // reconnect and transparently repeat the idempotent request.
  SocketFaultSpec tear;
  tear.kind = SocketFaultKind::kTearRead;
  tear.count = 1;
  inj.add(tear);

  ResilientClient client(fx.server.port(), test_policy(), {}, &inj);
  RunSpec spec;
  const RunResultMsg remote = client.run_sta(spec);
  const sta::StaResult local =
      sta::run_sta(chaos_session().view(), spec.to_options());
  EXPECT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay));
  EXPECT_GE(client.resilience().retries, 1u);
  EXPECT_GE(client.resilience().reconnects, 2u);
}

TEST(ResilientClient, ConnectRefusalsExhaustTheBudget) {
  SocketFaultInjector inj;
  SocketFaultSpec refuse;
  refuse.kind = SocketFaultKind::kConnectRefused;
  inj.add(refuse);  // sticky: every connect refused

  ResilientClient client(1, test_policy(/*seed=*/3, /*attempts=*/4), {}, &inj);
  assert_finishes_within(30, [&] {
    try {
      client.ping();
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportFailure::kConnectRefused);
    }
  });
  EXPECT_EQ(client.resilience().attempts, 4u);
  EXPECT_EQ(client.resilience().retries, 3u);
}

TEST(ResilientClient, EcoJournalRecoveryIsBitwiseIdentical) {
  ServerFixture fx;
  SocketFaultInjector inj;
  ResilientClient client(fx.server.port(), test_policy(), {}, &inj);

  // Local mirror — the uninterrupted oracle (PR 2 bitwise contract).
  sta::incremental::DesignEditor mirror(chaos_session().view());
  sta::incremental::IncrementalSta mirror_sta(mirror, RunSpec{}.to_options());

  EcoHandle session = client.eco_open(RunSpec{});

  std::vector<EcoOp> batch1;
  EcoOp resize;
  resize.kind = EcoOp::Kind::kResizeGate;
  resize.gate = 3;
  resize.value_a = 1.7;
  batch1.push_back(resize);
  EXPECT_EQ(session.edit(batch1), 1u);
  mirror.resize_gate(3, 1.7);

  // Kill the connection under the session: the next send tears, the server
  // reaps the session, and the handle must rebuild it by journal replay.
  SocketFaultSpec tear;
  tear.kind = SocketFaultKind::kTearWrite;
  tear.count = 1;
  inj.add(tear);

  std::vector<EcoOp> batch2;
  EcoOp cap;
  cap.kind = EcoOp::Kind::kSetWireCap;
  cap.net_a = 9;
  cap.value_a = 7e-15;
  batch2.push_back(cap);
  EXPECT_EQ(session.edit(batch2), 1u);
  mirror.set_wire_cap(9, 7e-15);

  EXPECT_GE(client.resilience().sessions_recovered, 1u);
  EXPECT_FALSE(client.resilience().recovery_ms.empty());

  const RunResultMsg remote = session.run();
  const sta::StaResult local = mirror_sta.run();
  ASSERT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay));
  ASSERT_EQ(remote.endpoints.size(), local.endpoints.size());
  for (std::size_t i = 0; i < local.endpoints.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(remote.endpoints[i].arrival, local.endpoints[i].arrival))
        << "endpoint " << i;
  }
  session.close();
}

TEST(ResilientClient, RejectedBatchRollsBackAtomically) {
  ServerFixture fx;
  ResilientClient client(fx.server.port(), test_policy());
  sta::incremental::DesignEditor mirror(chaos_session().view());
  sta::incremental::IncrementalSta mirror_sta(mirror, RunSpec{}.to_options());

  EcoHandle session = client.eco_open(RunSpec{});
  std::vector<EcoOp> good;
  EcoOp resize;
  resize.kind = EcoOp::Kind::kResizeGate;
  resize.gate = 2;
  resize.value_a = 2.0;
  good.push_back(resize);
  EXPECT_EQ(session.edit(good), 1u);
  mirror.resize_gate(2, 2.0);

  // A batch whose SECOND op is invalid: the server applies op 1 and then
  // rejects — partial application. The handle must roll the whole batch
  // back (journal drop + session rebuild), keeping batches atomic.
  std::vector<EcoOp> half_bad = good;
  EcoOp bogus;
  bogus.kind = EcoOp::Kind::kSetWireCap;
  bogus.net_a = 0xFFFFFF;  // outside the design
  half_bad.push_back(bogus);
  EXPECT_THROW(session.edit(half_bad), ServiceError);
  EXPECT_EQ(session.journal_size(), 1u);  // only the good batch remains

  const RunResultMsg remote = session.run();
  const sta::StaResult local = mirror_sta.run();
  EXPECT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay));
  session.close();
}

// ---------------------------------------------------------------------------
// Server hardening
// ---------------------------------------------------------------------------

TEST(ChaosServer, SlowLorisSenderIsEvicted) {
  ServiceConfig config;
  config.stall_timeout_ms = 120;
  ServerFixture fx(config);
  XtalkClient loris = fx.connect();
  // Two bytes of a frame header, then silence.
  loris.send_raw({0x10, 0x00});

  XtalkClient watcher = fx.connect();
  StatsMsg stats;
  for (int i = 0; i < 100; ++i) {
    stats = watcher.stats();
    if (stats.connections_evicted >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(stats.connections_evicted, 1u);
  // The evicted socket is actually closed (FIN or RST, not a timeout).
  char byte;
  const RecvOutcome outcome =
      loris.fault_socket().recv_exact_deadline(&byte, 1, 2000);
  EXPECT_TRUE(outcome == RecvOutcome::kClosed || outcome == RecvOutcome::kError)
      << "outcome " << static_cast<int>(outcome);
}

TEST(ChaosServer, OrphanedEcoSessionsAreReaped) {
  ServerFixture fx;
  {
    XtalkClient doomed = fx.connect();
    RunSpec spec;
    (void)doomed.eco_open(spec);
    doomed.socket().close_abortive();  // die without kEcoClose
  }
  XtalkClient watcher = fx.connect();
  StatsMsg stats;
  for (int i = 0; i < 200; ++i) {
    stats = watcher.stats();
    if (stats.eco_sessions_reaped >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(stats.eco_sessions_reaped, 1u);
  EXPECT_EQ(stats.eco_sessions_open, 0u);
}

// Drain with connections mid-frame, mid-ECO, stalled, and refusing to read:
// must terminate under both policies, never hang (satellite S4).
void drain_with_faults(DrainPolicy policy) {
  ServiceConfig config;
  config.drain = policy;
  config.stall_timeout_ms = 300;
  config.drain_flush_timeout_ms = 200;
  ServerFixture fx(config);

  // (a) mid-frame: a partial header that will never complete.
  XtalkClient torn = fx.connect();
  torn.send_raw({0x40, 0x00});

  // (b) mid-ECO: an open session with pending edits, then silence.
  XtalkClient eco = fx.connect();
  const std::uint32_t sid = eco.eco_open(RunSpec{}).session_id;
  std::vector<EcoOp> ops;
  EcoOp resize;
  resize.kind = EcoOp::Kind::kResizeGate;
  resize.gate = 1;
  resize.value_a = 1.3;
  ops.push_back(resize);
  EXPECT_EQ(eco.eco_edit(sid, ops), 1u);

  // (c) a peer that sends a run and never reads the response: the drain
  // flush grace must evict it rather than wait forever.
  XtalkClient deaf = fx.connect();
  util::WireWriter spec_body;
  RunSpec{}.encode(spec_body);
  deaf.send_frame(MsgType::kRunSta, 99, spec_body);

  // (d) an abortive mid-run disconnect.
  XtalkClient rst = fx.connect();
  rst.send_frame(MsgType::kRunSta, 42, spec_body);
  rst.socket().close_abortive();

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  assert_finishes_within(30, [&] { fx.server.stop(); });
}

TEST(ChaosServer, DrainFinishPolicyTerminatesUnderFaults) {
  drain_with_faults(DrainPolicy::kFinish);
}

TEST(ChaosServer, DrainTruncatePolicyTerminatesUnderFaults) {
  drain_with_faults(DrainPolicy::kTruncate);
}

// ---------------------------------------------------------------------------
// The seeded chaos-proxy sweep
// ---------------------------------------------------------------------------

/// The fault-free reference result, computed once.
const sta::StaResult& reference() {
  static const sta::StaResult* ref = new sta::StaResult(
      sta::run_sta(chaos_session().view(), RunSpec{}.to_options()));
  return *ref;
}

/// One seed of the sweep: drive a deterministic op mix through a chaos
/// proxy; verify every acknowledged result bitwise against the oracle.
/// Returns false when the retry budget was exhausted (typed error — allowed,
/// but counted so the sweep can assert faults aren't fatal too often).
bool run_chaos_seed(XtalkServer& server, std::uint64_t seed) {
  ChaosProxyConfig pconf;
  pconf.upstream_port = server.port();
  pconf.seed = seed;
  pconf.stall_ms = 5;
  ChaosProxy proxy(pconf);
  proxy.start();

  util::Rng rng(seed * 7919 + 17);
  RetryPolicy policy = test_policy(seed, /*attempts=*/10);
  policy.read_timeout_ms = 10000;
  ResilientClient client(proxy.port(), policy);

  bool completed = true;
  try {
    // Always: a cached-baseline query, bitwise-checked.
    const EndpointsMsg eps = client.query_endpoints(RunSpec{});
    EXPECT_EQ(eps.endpoints.size(), reference().endpoints.size());
    for (std::size_t i = 0; i < eps.endpoints.size(); ++i) {
      EXPECT_TRUE(bits_equal(eps.endpoints[i].arrival,
                             reference().endpoints[i].arrival))
          << "seed " << seed << " endpoint " << i;
    }

    // Sometimes: a full run.
    if (rng.next_bool(0.3)) {
      const RunResultMsg run = client.run_sta(RunSpec{});
      EXPECT_TRUE(bits_equal(run.longest_path_delay,
                             reference().longest_path_delay))
          << "seed " << seed;
    }

    // Sometimes: an ECO session with seed-dependent edits + mirror oracle.
    if (rng.next_bool(0.5)) {
      sta::incremental::DesignEditor mirror(chaos_session().view());
      sta::incremental::IncrementalSta mirror_sta(mirror,
                                                  RunSpec{}.to_options());
      EcoHandle session = client.eco_open(RunSpec{});
      const int batches = 1 + static_cast<int>(rng.next_below(2));
      for (int b = 0; b < batches; ++b) {
        std::vector<EcoOp> ops;
        const std::uint32_t gate = static_cast<std::uint32_t>(
            rng.next_below(chaos_session().view().netlist->num_gates()));
        const double factor = 1.0 + rng.next_double();
        EcoOp resize;
        resize.kind = EcoOp::Kind::kResizeGate;
        resize.gate = gate;
        resize.value_a = factor;
        ops.push_back(resize);
        const std::uint32_t net = static_cast<std::uint32_t>(
            rng.next_below(chaos_session().view().netlist->num_nets()));
        const double cap = 1e-15 * (1.0 + rng.next_double() * 9.0);
        EcoOp wire;
        wire.kind = EcoOp::Kind::kSetWireCap;
        wire.net_a = net;
        wire.value_a = cap;
        ops.push_back(wire);
        EXPECT_EQ(session.edit(ops), 2u);
        mirror.resize_gate(gate, factor);
        mirror.set_wire_cap(net, cap);
      }
      const RunResultMsg remote = session.run();
      const sta::StaResult local = mirror_sta.run();
      EXPECT_TRUE(
          bits_equal(remote.longest_path_delay, local.longest_path_delay))
          << "seed " << seed;
      EXPECT_EQ(remote.endpoints.size(), local.endpoints.size());
      for (std::size_t i = 0; i < local.endpoints.size(); ++i) {
        EXPECT_TRUE(bits_equal(remote.endpoints[i].arrival,
                               local.endpoints[i].arrival))
            << "seed " << seed << " eco endpoint " << i;
      }
      session.close();
    }
  } catch (const TransportError&) {
    // Budget exhausted under a hostile schedule: a clean typed error is the
    // contract — the caller counts it.
    completed = false;
  } catch (const ServiceError&) {
    completed = false;
  }
  proxy.stop();
  return completed;
}

TEST(ChaosSweep, AcknowledgedResultsAreBitwiseCorrectAcrossSeeds) {
  int seeds = 200;
  if (const char* env = std::getenv("XTALK_CHAOS_SEEDS")) {
    seeds = std::max(1, std::atoi(env));
  }
  ServiceConfig config;
  config.num_executors = 2;
  config.stall_timeout_ms = 2000;
  config.drain_flush_timeout_ms = 500;
  ServerFixture fx(config);
  reference();  // build the oracle before the clock starts

  int completed = 0;
  for (int s = 0; s < seeds; ++s) {
    if (run_chaos_seed(fx.server, 0xC0FFEE00ULL + static_cast<std::uint64_t>(s))) {
      ++completed;
    }
    if (::testing::Test::HasFailure()) break;  // don't spam 200 repeats
  }
  // Most schedules must complete within the retry budget — the point of
  // resilience is surviving chaos, not reporting it.
  EXPECT_GE(completed, seeds * 3 / 4)
      << completed << "/" << seeds << " seeds completed";

  // And the server is still healthy afterwards: closed chaos connections
  // drain out of the event loop and every orphaned session gets reaped.
  XtalkClient survivor = fx.connect();
  survivor.ping();
  StatsMsg stats;
  for (int i = 0; i < 200; ++i) {
    stats = survivor.stats();
    if (stats.eco_sessions_open == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stats.eco_sessions_open, 0u);
}

}  // namespace
}  // namespace xtalk::service
