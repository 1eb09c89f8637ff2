// Resilience of the service against real faults (DESIGN.md §14): client
// deadlines and typed errors, retry through a server restart and a port
// nobody listens on, ECO journal recovery, slow-loris eviction and orphan
// reaping, frames torn or dribbled in both directions, and drain under
// faults.
//
// Every fault here is one the kernel delivers: a server that stops, a
// closed port, a peer that resets its connection mid-frame or writes one
// byte at a time. The invariant under each of them:
//   1. every ACKNOWLEDGED result is bitwise identical to a fault-free run,
//   2. every failure surfaces as a clean typed error (TransportError or
//      ServiceError), never a hang or a partial result,
//   3. drain/shutdown terminates regardless of connection state.
//
// No test asserts on elapsed time: waits poll a condition, and their long
// limits only keep a broken build from hanging the suite.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
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

namespace xtalk::service {
namespace {

using util::RecvOutcome;

/// Read deadline and wait limit that only guard against a hang.
constexpr int kHangGuardMs = 30000;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Small design shared across the file.
DesignSession& chaos_session() {
  static DesignSession* session = new DesignSession(
      core::Design::generate(netlist::scaled_spec("chaos", 11, 60, 6)),
      "chaos");
  return *session;
}

/// The fault-free local result every served one must equal bitwise.
const sta::StaResult& reference() {
  static const sta::StaResult* ref = new sta::StaResult(
      sta::run_sta(chaos_session().view(), RunSpec{}.to_options()));
  return *ref;
}

template <typename Endpoints>
void expect_arrivals_bitwise(const std::vector<WireEndpoint>& got,
                             const Endpoints& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].net, want[i].net) << what << " endpoint " << i;
    EXPECT_EQ(got[i].rising, want[i].rising) << what << " endpoint " << i;
    EXPECT_TRUE(bits_equal(got[i].arrival, want[i].arrival))
        << what << " endpoint " << i;
  }
}

/// Poll `done` every millisecond until it holds or kHangGuardMs passes.
template <typename Pred>
bool eventually(Pred&& done) {
  const auto limit = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(kHangGuardMs);
  while (!done()) {
    if (std::chrono::steady_clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct ServerFixture {
  /// `port` 0 picks an ephemeral one; a restarted server passes the port of
  /// the server it replaces.
  explicit ServerFixture(ServiceConfig config = {}, std::uint16_t port = 0)
      : server(chaos_session(), sanitized(std::move(config), port)) {
    server.start();
  }
  ~ServerFixture() { server.stop(); }

  static ServiceConfig sanitized(ServiceConfig config, std::uint16_t port) {
    config.unix_path.clear();
    config.tcp_port = port;
    return config;
  }

  XtalkClient connect() {
    XtalkClient client = XtalkClient::connect_tcp(server.port());
    client.set_read_timeout_ms(kHangGuardMs);
    return client;
  }

  /// Wait until the server's own counters satisfy `done`; returns them.
  template <typename Pred>
  StatsMsg wait_for_stats(Pred&& done) {
    StatsMsg stats;
    EXPECT_TRUE(eventually([&] {
      stats = server.stats_snapshot();
      return done(stats);
    })) << "server counters never reached the expected state";
    return stats;
  }

  XtalkServer server;
};

RetryPolicy test_policy(int attempts = 8) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.read_timeout_ms = kHangGuardMs;
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

EcoOp resize_op(std::uint32_t gate, double factor) {
  EcoOp op;
  op.kind = EcoOp::Kind::kResizeGate;
  op.gate = gate;
  op.value_a = factor;
  return op;
}

// ---------------------------------------------------------------------------
// Socket deadline
// ---------------------------------------------------------------------------

TEST(Socket, DeadlineExpiresOnSilentPeer) {
  util::Listener listener = util::Listener::tcp_loopback(0);
  util::Socket waiting = util::connect_tcp_loopback(listener.port());
  char byte;
  EXPECT_EQ(waiting.recv_exact_deadline(&byte, 1, 100), RecvOutcome::kTimeout);
}

// ---------------------------------------------------------------------------
// Client deadlines + typed errors
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
  // Version 7 still encodes the budget-policy byte of RunSpec, and version
  // 8 its metrics flag and trace path, so their run requests would misparse.
  ErrorMsg err;
  FrameView reply;
  for (const std::uint32_t version : {999u, 6u, 7u, 8u}) {
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
  // A server restart tears every connection to the old server; the retry
  // layer must reconnect to the new one and repeat the idempotent request.
  auto first = std::make_unique<ServerFixture>();
  const std::uint16_t port = first->server.port();
  ResilientClient client(port, test_policy());
  client.ping();
  ASSERT_EQ(client.resilience().reconnects, 1u);

  first.reset();
  ServerFixture second(ServiceConfig{}, port);

  const RunResultMsg remote = client.run_sta(RunSpec{});
  EXPECT_TRUE(
      bits_equal(remote.longest_path_delay, reference().longest_path_delay));
  expect_arrivals_bitwise(remote.endpoints, reference().endpoints, "run");
  // The first attempt finds the old connection closed; the second succeeds.
  EXPECT_EQ(client.resilience().retries, 1u);
  EXPECT_EQ(client.resilience().reconnects, 2u);
}

TEST(ResilientClient, ConnectRefusalsExhaustTheBudget) {
  std::uint16_t port = 0;
  {
    util::Listener closed = util::Listener::tcp_loopback(0);
    port = closed.port();
  }  // nothing listens on `port` any more: every connect is refused

  ResilientClient client(port, test_policy(/*attempts=*/4));
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
  EXPECT_EQ(client.resilience().reconnects, 0u);
}

TEST(ResilientClient, EcoJournalRecoveryIsBitwiseIdentical) {
  auto first = std::make_unique<ServerFixture>();
  const std::uint16_t port = first->server.port();
  ResilientClient client(port, test_policy());

  // Local mirror — the uninterrupted oracle (incremental vs from-scratch).
  sta::incremental::DesignEditor mirror(chaos_session().view());
  sta::incremental::IncrementalSta mirror_sta(mirror, RunSpec{}.to_options());

  EcoHandle session = client.eco_open(RunSpec{});
  EXPECT_EQ(session.edit({resize_op(3, 1.7)}), 1u);
  mirror.resize_gate(3, 1.7);

  // Restart the server between the batches: the session dies with the old
  // server, and the handle must rebuild it on the new one by journal replay.
  first.reset();
  ServerFixture second(ServiceConfig{}, port);

  std::vector<EcoOp> batch2;
  EcoOp cap;
  cap.kind = EcoOp::Kind::kSetWireCap;
  cap.net_a = 9;
  cap.value_a = 7e-15;
  batch2.push_back(cap);
  EXPECT_EQ(session.edit(batch2), 1u);
  mirror.set_wire_cap(9, 7e-15);

  EXPECT_EQ(client.resilience().sessions_recovered, 1u);
  EXPECT_EQ(client.resilience().recovery_ms.size(), 1u);

  const RunResultMsg remote = session.run();
  const sta::StaResult local = mirror_sta.run();
  ASSERT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay));
  expect_arrivals_bitwise(remote.endpoints, local.endpoints, "eco run");
  session.close();
  second.wait_for_stats(
      [](const StatsMsg& s) { return s.eco_sessions_open == 0; });
}

TEST(ResilientClient, RejectedBatchRollsBackAtomically) {
  ServerFixture fx;
  ResilientClient client(fx.server.port(), test_policy());
  sta::incremental::DesignEditor mirror(chaos_session().view());
  sta::incremental::IncrementalSta mirror_sta(mirror, RunSpec{}.to_options());

  EcoHandle session = client.eco_open(RunSpec{});
  const std::vector<EcoOp> good = {resize_op(2, 2.0)};
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

  const StatsMsg stats = fx.wait_for_stats(
      [](const StatsMsg& s) { return s.connections_evicted >= 1; });
  EXPECT_GE(stats.connections_evicted, 1u);
  // The evicted socket is actually closed (FIN or RST, not a timeout).
  char byte;
  const RecvOutcome outcome =
      loris.socket().recv_exact_deadline(&byte, 1, kHangGuardMs);
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
  const StatsMsg stats = fx.wait_for_stats([](const StatsMsg& s) {
    return s.eco_sessions_reaped >= 1 && s.eco_sessions_open == 0;
  });
  EXPECT_EQ(stats.eco_sessions_reaped, 1u);
  EXPECT_EQ(stats.eco_sessions_open, 0u);
}

// Drain with connections mid-frame, mid-ECO, stalled, and refusing to read:
// must terminate under both policies, never hang.
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
  EXPECT_EQ(eco.eco_edit(sid, {resize_op(1, 1.3)}), 1u);

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

  // Stop only once the server holds all four connections and has taken
  // the deaf peer's run: eco-open, eco-edit and that run are 3 requests.
  fx.wait_for_stats([](const StatsMsg& s) {
    return s.connections_total >= 4 && s.requests_total >= 3;
  });
  assert_finishes_within(30, [&] { fx.server.stop(); });
}

TEST(ChaosServer, DrainFinishPolicyTerminatesUnderFaults) {
  drain_with_faults(DrainPolicy::kFinish);
}

TEST(ChaosServer, DrainTruncatePolicyTerminatesUnderFaults) {
  drain_with_faults(DrainPolicy::kTruncate);
}

// ---------------------------------------------------------------------------
// Frames torn or dribbled on the wire
// ---------------------------------------------------------------------------

TEST(ChaosWire, RequestTornAtEveryOffsetLeavesTheServerHealthy) {
  ServerFixture fx;
  EcoEditMsg edit;
  edit.ops = {resize_op(4, 1.9)};
  util::WireWriter sizing;
  edit.encode(sizing);
  const std::size_t frame_bytes =
      make_frame(MsgType::kEcoEdit, 2, sizing).size();

  // Each connection opens a session, sends the first `cut` bytes of an
  // edit for it — every offset of the header and the payload — and resets.
  for (std::size_t cut = 0; cut < frame_bytes; ++cut) {
    XtalkClient doomed = fx.connect();
    edit.session_id = doomed.eco_open(RunSpec{}).session_id;
    util::WireWriter body;
    edit.encode(body);
    const std::vector<std::uint8_t> frame =
        make_frame(MsgType::kEcoEdit, 2, body);
    ASSERT_EQ(frame.size(), frame_bytes);
    doomed.send_raw(std::vector<std::uint8_t>(frame.begin(),
                                              frame.begin() + cut));
    doomed.socket().close_abortive();
  }

  // Every session is reaped, and no torn frame ran as a request: the only
  // requests the server saw are the eco-opens, all of them answered.
  const std::uint64_t cuts = frame_bytes;
  const StatsMsg stats = fx.wait_for_stats([&](const StatsMsg& s) {
    return s.eco_sessions_reaped >= cuts && s.eco_sessions_open == 0;
  });
  EXPECT_EQ(stats.eco_sessions_reaped, cuts);
  EXPECT_EQ(stats.requests_total, cuts);
  EXPECT_EQ(stats.requests_error, 0u);

  XtalkClient fresh = fx.connect();
  const HealthMsg health = fresh.health();
  EXPECT_TRUE(health.accepting);
  EXPECT_EQ(health.eco_sessions_open, 0u);
  const EndpointsMsg eps = fresh.query_endpoints(RunSpec{});
  EXPECT_TRUE(
      bits_equal(eps.longest_path_delay, reference().longest_path_delay));
  expect_arrivals_bitwise(eps.endpoints, reference().endpoints, "endpoints");
}

TEST(ChaosWire, PipelinedFramesSentOneByteAtATimeAnswerBitwise) {
  ServerFixture fx;
  XtalkClient client = fx.connect();
  util::WireWriter spec_body;
  RunSpec{}.encode(spec_body);
  std::vector<std::uint8_t> bytes =
      make_frame(MsgType::kQueryEndpoints, 1, spec_body);
  const std::vector<std::uint8_t> second =
      make_frame(MsgType::kRunSta, 2, spec_body);
  bytes.insert(bytes.end(), second.begin(), second.end());
  for (const std::uint8_t b : bytes) client.send_raw({b});

  const FrameView a = client.recv_frame();
  ASSERT_EQ(a.type, MsgType::kEndpoints);
  EXPECT_EQ(a.request_id, 1u);
  util::WireReader ra = a.body(client.limits());
  EndpointsMsg eps;
  ASSERT_TRUE(eps.decode(ra) && ra.finish());
  EXPECT_TRUE(
      bits_equal(eps.longest_path_delay, reference().longest_path_delay));
  expect_arrivals_bitwise(eps.endpoints, reference().endpoints, "endpoints");

  const FrameView b = client.recv_frame();
  ASSERT_EQ(b.type, MsgType::kRunResult);
  EXPECT_EQ(b.request_id, 2u);
  util::WireReader rb = b.body(client.limits());
  RunResultMsg run;
  ASSERT_TRUE(run.decode(rb) && rb.finish());
  EXPECT_TRUE(
      bits_equal(run.longest_path_delay, reference().longest_path_delay));
  expect_arrivals_bitwise(run.endpoints, reference().endpoints, "run");
}

/// A hand-driven server side for one client connection: the tests below
/// control every byte of the response.
class RawPeer {
 public:
  RawPeer() : listener_(util::Listener::tcp_loopback(0)) {}
  ~RawPeer() {
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }

  /// On a thread: accept one connection, read one request frame, and hand
  /// the socket and the request id to `respond`.
  template <typename Fn>
  void serve_one(Fn respond) {
    thread_ = std::thread([this, respond] {
      try {
        util::Socket conn;
        if (!eventually([&] {
              conn = listener_.accept_nonblocking();
              return conn.valid();
            })) {
          ADD_FAILURE() << "no client connected";
          return;
        }
        respond(conn, read_request_id(conn));
      } catch (const std::exception& e) {
        ADD_FAILURE() << "raw peer: " << e.what();
      }
    });
  }

  void join() { thread_.join(); }

 private:
  static std::uint32_t read_request_id(util::Socket& conn) {
    std::uint8_t header[kFrameHeaderBytes];
    EXPECT_EQ(conn.recv_exact_deadline(header, sizeof header, kHangGuardMs),
              RecvOutcome::kOk);
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
      len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    }
    std::vector<std::uint8_t> payload(len);
    EXPECT_EQ(conn.recv_exact_deadline(payload.data(), len, kHangGuardMs),
              RecvOutcome::kOk);
    util::WireReader r(payload.data(), payload.size(), util::WireLimits{});
    MsgType type;
    std::uint32_t id = 0;
    EXPECT_TRUE(read_prologue(r, &type, &id));
    return id;
  }

  util::Listener listener_;
  std::thread thread_;
};

EndpointsMsg reference_endpoints() {
  EndpointsMsg m;
  m.longest_path_delay = reference().longest_path_delay;
  m.critical = {reference().critical.net, reference().critical.rising,
                reference().critical.arrival};
  for (const sta::EndpointArrival& e : reference().endpoints) {
    m.endpoints.push_back({e.net, e.rising, e.arrival});
  }
  return m;
}

TEST(ChaosWire, ClientReassemblesAResponseWrittenOneByteAtATime) {
  const EndpointsMsg sent = reference_endpoints();
  RawPeer peer;
  peer.serve_one([&](util::Socket& conn, std::uint32_t id) {
    util::WireWriter body;
    sent.encode(body);
    for (const std::uint8_t b : make_frame(MsgType::kEndpoints, id, body)) {
      conn.send_all(&b, 1);
    }
  });
  XtalkClient client = XtalkClient::connect_tcp(peer.port());
  client.set_read_timeout_ms(kHangGuardMs);
  const EndpointsMsg got = client.query_endpoints(RunSpec{});
  peer.join();

  EXPECT_TRUE(bits_equal(got.longest_path_delay, sent.longest_path_delay));
  EXPECT_EQ(got.critical.net, sent.critical.net);
  expect_arrivals_bitwise(got.endpoints, sent.endpoints, "endpoints");
}

TEST(ChaosWire, ResponseCutMidFrameIsConnectionLostNeverAPartialResult) {
  util::WireWriter body;
  reference_endpoints().encode(body);
  const std::size_t frame_bytes =
      make_frame(MsgType::kEndpoints, 1, body).size();

  // Cut after every byte offset; even cuts reset the connection (RST), odd
  // ones close it in order (FIN), so both loss paths are covered.
  for (std::size_t cut = 0; cut < frame_bytes; ++cut) {
    RawPeer peer;
    peer.serve_one([&](util::Socket& conn, std::uint32_t id) {
      const std::vector<std::uint8_t> frame =
          make_frame(MsgType::kEndpoints, id, body);
      conn.send_all(frame.data(), cut);
      if (cut % 2 == 0) {
        conn.close_abortive();
      } else {
        conn.close();
      }
    });
    XtalkClient client = XtalkClient::connect_tcp(peer.port());
    client.set_read_timeout_ms(kHangGuardMs);
    try {
      (void)client.query_endpoints(RunSpec{});
      ADD_FAILURE() << "cut at byte " << cut << " returned a result";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportFailure::kConnectionLost)
          << "cut at byte " << cut << ": " << e.what();
    }
    peer.join();
  }
}

}  // namespace
}  // namespace xtalk::service
