#include "service/server.hpp"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/diag.hpp"

namespace xtalk::service {

namespace {

/// Read-chunk size for the buffered receive path.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Poll timeout: bounds how stale the loop's view of stop flags can get.
constexpr int kPollTimeoutMs = 50;

/// Decode the frame length prefix (little-endian u32).
std::uint32_t frame_length(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Apply one validated ECO op to the editor; throws on editor rejection.
void apply_eco_op(sta::incremental::DesignEditor& editor, const EcoOp& op) {
  switch (op.kind) {
    case EcoOp::Kind::kResizeGate:
      editor.resize_gate(op.gate, op.value_a);
      break;
    case EcoOp::Kind::kSetWireCap:
      editor.set_wire_cap(op.net_a, op.value_a);
      break;
    case EcoOp::Kind::kSetCoupling:
      editor.set_coupling(op.net_a, op.net_b, op.value_a);
      break;
    case EcoOp::Kind::kRemoveCoupling:
      editor.remove_coupling(op.net_a, op.net_b);
      break;
    case EcoOp::Kind::kSetWireRc:
      editor.set_wire_rc(op.net_a, netlist::PinRef{op.gate, op.pin},
                         op.value_a, op.value_b);
      break;
    case EcoOp::Kind::kRetargetSink:
      editor.retarget_sink(op.gate, op.pin, op.net_a, op.value_a, op.value_b);
      break;
  }
}

}  // namespace

XtalkServer::XtalkServer(DesignSession& design, ServiceConfig config)
    : design_(design),
      config_(std::move(config)),
      admission_(config_.admission) {}

XtalkServer::~XtalkServer() { stop(); }

void XtalkServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  // A dead client must never kill the process: writes race peer closes by
  // design (MSG_NOSIGNAL covers sockets, this covers everything else).
  std::signal(SIGPIPE, SIG_IGN);
  listener_ = config_.unix_path.empty()
                  ? util::Listener::tcp_loopback(config_.tcp_port)
                  : util::Listener::unix_domain(config_.unix_path);
  start_time_ = std::chrono::steady_clock::now();
  const std::size_t n_exec = std::max<std::size_t>(1, config_.num_executors);
  executors_.reserve(n_exec);
  for (std::size_t i = 0; i < n_exec; ++i) {
    auto ex = std::make_unique<Executor>();
    ex->pool = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_threads(config_.pool_threads));
    executors_.push_back(std::move(ex));
  }
  running_.store(true, std::memory_order_release);
  for (auto& ex : executors_) {
    ex->thread = std::thread([this, e = ex.get()] { executor_loop(*e); });
  }
  event_thread_ = std::thread([this] { event_loop(); });
}

void XtalkServer::request_stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (config_.drain == DrainPolicy::kTruncate) {
    // Soft-cancel: in-flight and queued runs truncate at the next governor
    // checkpoint into conservative anytime results. The tokens stay
    // requested for the rest of the drain (executors skip the reset).
    for (auto& ex : executors_) ex->cancel.request();
  }
  wake_.notify();
}

void XtalkServer::join() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (joined_) return;
  if (event_thread_.joinable()) event_thread_.join();
  executors_stop_.store(true, std::memory_order_release);
  for (auto& ex : executors_) {
    {
      std::lock_guard<std::mutex> qlock(ex->mutex);
    }
    ex->cv.notify_all();
    if (ex->thread.joinable()) ex->thread.join();
  }
  executors_.clear();
  connections_.clear();
  running_.store(false, std::memory_order_release);
  joined_ = true;
}

void XtalkServer::stop() {
  if (!running_.load(std::memory_order_acquire) && !event_thread_.joinable())
    return;
  request_stop();
  join();
}

StatsMsg XtalkServer::stats_snapshot() const {
  StatsMsg s;
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_error = requests_error_.load(std::memory_order_relaxed);
  s.requests_truncated = requests_truncated_.load(std::memory_order_relaxed);
  s.requests_degraded_admission = admission_.degraded();
  s.eco_sessions_open = eco_open_.load(std::memory_order_relaxed);
  s.eco_sessions_reaped = eco_reaped_.load(std::memory_order_relaxed);
  s.connections_evicted = evicted_.load(std::memory_order_relaxed);
  s.connections_total = connections_total_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.queue_peak = admission_.queue_peak();
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  return s;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void XtalkServer::event_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && listener_.valid()) {
      // Drain step 1: stop accepting BEFORE touching existing work, so a
      // successor process can bind the socket while we finish.
      listener_.close();
    }

    // Close connections that have fully drained (no pending work, flushed
    // outbox). During normal operation only dead peers are reaped; during
    // drain this is how the server winds down to zero connections. A peer
    // that blew a progress deadline (slow-loris, or refusing to read its
    // responses during drain) is declared gone first, so a stalled socket
    // can never pin the server — drain always terminates.
    const auto now = std::chrono::steady_clock::now();
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto& conn = it->second;
      if (!conn->peer_gone && !conn->kill &&
          connection_stalled(conn, now, stopping)) {
        evicted_.fetch_add(1, std::memory_order_relaxed);
        conn->peer_gone = true;
      }
      const bool close_now =
          (conn->kill || conn->peer_gone || stopping) &&
          connection_drained(conn);
      if (close_now) {
        reap_connection_sessions(*conn);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    if (stopping && connections_.empty()) return;

    fds.clear();
    polled.clear();
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    const bool has_stop_fd = config_.stop_event_fd >= 0;
    if (has_stop_fd) fds.push_back({config_.stop_event_fd, POLLIN, 0});
    if (listener_.valid()) fds.push_back({listener_.fd(), POLLIN, 0});
    for (auto& [id, conn] : connections_) {
      short events = 0;
      std::size_t pending_out = 0;
      {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        pending_out = conn->outbuf.size() - conn->out_off;
      }
      if (pending_out > 0) events |= POLLOUT;
      // Stop reading once draining/killing: received-but-unread bytes are
      // not "in-flight requests", and resync after a kill is impossible.
      // Backpressure: also stop reading while the outbox is over budget —
      // the peer must drain responses before pipelining more requests.
      if (!stopping && !conn->kill && !conn->peer_gone &&
          pending_out < config_.max_outbox_bytes) {
        events |= POLLIN;
      }
      if (events == 0) continue;
      fds.push_back({conn->sock.fd(), events, 0});
      polled.push_back(conn);
    }

    ::poll(fds.data(), fds.size(), kPollTimeoutMs);

    std::size_t idx = 0;
    if (fds[idx].revents & POLLIN) wake_.drain();
    ++idx;
    if (has_stop_fd) {
      if (fds[idx].revents & POLLIN) {
        // Signal-handler self-pipe became readable: drain it (EINTR-safe —
        // more signals may land mid-read) and begin a graceful drain.
        char buf[64];
        for (;;) {
          const ssize_t got = ::read(config_.stop_event_fd, buf, sizeof buf);
          if (got > 0 || (got < 0 && errno == EINTR)) continue;
          break;
        }
        request_stop();
      }
      ++idx;
    }
    if (listener_.valid()) {
      if (fds[idx].revents & POLLIN) accept_pending();
      ++idx;
    }
    for (std::size_t c = 0; c < polled.size(); ++c, ++idx) {
      const auto& conn = polled[c];
      const short re = fds[idx].revents;
      if (re & (POLLERR | POLLNVAL)) conn->peer_gone = true;
      if (re & (POLLIN | POLLHUP)) read_connection(conn);
      if (re & POLLOUT) write_connection(conn);
    }

    // Dispatch outside the poll-result walk: a response enqueued by an
    // executor between poll() and here may have freed a connection to take
    // its next pipelined request.
    for (auto& [id, conn] : connections_) dispatch_ready(conn);
  }
}

void XtalkServer::accept_pending() {
  for (;;) {
    util::Socket sock = listener_.accept_nonblocking();
    if (!sock.valid()) return;
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->sock = std::move(sock);
    conn->executor = next_executor_++ % executors_.size();
    conn->last_read_progress = std::chrono::steady_clock::now();
    conn->last_write_progress = conn->last_read_progress;
    connections_.emplace(conn->id, conn);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void XtalkServer::read_connection(const std::shared_ptr<Connection>& conn) {
  if (conn->kill || conn->peer_gone) return;
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    bool would_block = false;
    const std::ptrdiff_t got =
        conn->sock.recv_some(chunk, sizeof chunk, &would_block);
    if (got > 0) {
      conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + got);
      bytes_in_.fetch_add(static_cast<std::uint64_t>(got),
                          std::memory_order_relaxed);
      continue;
    }
    if (got < 0 && would_block) break;
    conn->peer_gone = true;  // orderly EOF or hard error
    break;
  }
  parse_frames(conn);
}

void XtalkServer::parse_frames(const std::shared_ptr<Connection>& conn) {
  std::size_t off = 0;
  while (conn->inbuf.size() - off >= kFrameHeaderBytes) {
    const std::uint32_t len = frame_length(conn->inbuf.data() + off);
    if (len > config_.wire.max_frame_bytes) {
      // Unframeable stream: no way to know where the next frame starts.
      // Best effort: ship an error the client may still read, then close.
      util::WireWriter body;
      ErrorMsg err{ErrorCode::kMalformedFrame,
                   "frame length " + std::to_string(len) +
                       " exceeds limit " +
                       std::to_string(config_.wire.max_frame_bytes)};
      err.encode(body);
      {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        auto frame = make_frame(MsgType::kError, 0, body);
        conn->outbuf.insert(conn->outbuf.end(), frame.begin(), frame.end());
      }
      conn->kill = true;
      conn->inbuf.clear();
      return;
    }
    if (conn->inbuf.size() - off < kFrameHeaderBytes + len) break;
    const std::uint8_t* payload = conn->inbuf.data() + off + kFrameHeaderBytes;
    if (len >= 1 && payload[0] == static_cast<std::uint8_t>(MsgType::kHealth)) {
      // Health never queues behind analysis work: a load balancer probing a
      // saturated server needs the truthful "I'm clamping" answer now, not
      // after the queue it is asking about.
      respond_health(conn, std::vector<std::uint8_t>(payload, payload + len));
    } else {
      conn->ready.emplace_back(payload, payload + len);
    }
    off += kFrameHeaderBytes + len;
  }
  if (off > 0) conn->inbuf.erase(conn->inbuf.begin(), conn->inbuf.begin() + off);
}

void XtalkServer::respond_health(const std::shared_ptr<Connection>& conn,
                                 const std::vector<std::uint8_t>& payload) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  util::WireReader r(payload.data(), payload.size(), config_.wire);
  MsgType type;
  std::uint32_t request_id = 0;
  if (!read_prologue(r, &type, &request_id) || !r.finish()) {
    respond_error(*conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  HealthMsg m;
  m.accepting = !stopping_.load(std::memory_order_acquire);
  m.connections = static_cast<std::uint64_t>(connections_.size());
  std::uint64_t depth = 0;
  std::uint64_t outbox = 0;
  for (const auto& [id, other] : connections_) {
    depth += static_cast<std::uint64_t>(other->ready.size());
    if (other->busy.load(std::memory_order_acquire)) ++depth;
    std::lock_guard<std::mutex> lock(other->out_mutex);
    outbox +=
        static_cast<std::uint64_t>(other->outbuf.size() - other->out_off);
  }
  m.queue_depth = depth;
  m.soft_queue_limit =
      static_cast<std::uint64_t>(config_.admission.soft_queue);
  m.clamping = m.soft_queue_limit > 0 && depth >= m.soft_queue_limit;
  m.eco_sessions_open = eco_open_.load(std::memory_order_relaxed);
  m.outbox_bytes = outbox;
  util::WireWriter body;
  m.encode(body);
  respond(*conn, MsgType::kHealthOk, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::dispatch_ready(const std::shared_ptr<Connection>& conn) {
  // One request per connection in flight: ECO edits are order-dependent, so
  // pipelined requests execute strictly in receive order.
  if (conn->kill) return;
  if (conn->ready.empty()) return;
  if (conn->busy.load(std::memory_order_acquire)) return;
  conn->busy.store(true, std::memory_order_release);
  Request req;
  req.conn = conn;
  req.payload = std::move(conn->ready.front());
  conn->ready.pop_front();
  Executor& ex = *executors_[conn->executor];
  {
    std::lock_guard<std::mutex> lock(ex.mutex);
    ex.queue.push_back(std::move(req));
  }
  ex.cv.notify_one();
}

void XtalkServer::write_connection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->out_mutex);
  while (conn->out_off < conn->outbuf.size()) {
    bool would_block = false;
    const std::ptrdiff_t sent = conn->sock.send_some(
        conn->outbuf.data() + conn->out_off,
        conn->outbuf.size() - conn->out_off, &would_block);
    if (sent > 0) {
      conn->out_off += static_cast<std::size_t>(sent);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(sent),
                           std::memory_order_relaxed);
      continue;
    }
    if (sent < 0 && would_block) break;
    conn->peer_gone = true;  // peer closed before reading its responses
    conn->out_off = conn->outbuf.size();
    break;
  }
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
  }
}

bool XtalkServer::connection_stalled(const std::shared_ptr<Connection>& conn,
                                     std::chrono::steady_clock::time_point now,
                                     bool stopping) {
  std::size_t pending_out = 0;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    pending_out = conn->outbuf.size() - conn->out_off;
  }
  const std::size_t pending_in = conn->inbuf.size();
  if (pending_out != conn->last_out_pending) {
    conn->last_out_pending = pending_out;
    conn->last_write_progress = now;
  }
  if (pending_in != conn->last_in_pending) {
    conn->last_in_pending = pending_in;
    conn->last_read_progress = now;
  }
  const int limit_ms =
      stopping ? config_.drain_flush_timeout_ms : config_.stall_timeout_ms;
  if (limit_ms <= 0) return false;
  const auto limit = std::chrono::milliseconds(limit_ms);
  // An unflushed outbox with no send progress: the peer stopped reading.
  if (pending_out > 0 && now - conn->last_write_progress > limit) return true;
  // A partial frame with no receive progress: a torn or slow-loris sender.
  // (Idle connections with an empty inbuf are fine — keepalive is free.)
  if (!stopping && pending_in > 0 && now - conn->last_read_progress > limit) {
    return true;
  }
  return false;
}

void XtalkServer::reap_connection_sessions(Connection& conn) {
  // The connection owns its ECO sessions; when it dies before kEcoClose the
  // sessions die with it. That is the recovery contract clients rely on: a
  // lost connection always means a lost session, so journal replay onto a
  // fresh session can never double-apply edits. Only runs once the
  // connection is drained (not busy), so the pinned executor is done
  // touching conn.eco.
  const std::uint64_t orphans = static_cast<std::uint64_t>(conn.eco.size());
  if (orphans == 0) return;
  conn.eco.clear();
  eco_open_.fetch_sub(orphans, std::memory_order_relaxed);
  eco_reaped_.fetch_add(orphans, std::memory_order_relaxed);
}

bool XtalkServer::connection_drained(const std::shared_ptr<Connection>& conn) {
  if (conn->busy.load(std::memory_order_acquire)) return false;
  if (!conn->ready.empty() && !conn->kill && !conn->peer_gone) return false;
  if (conn->peer_gone) return true;  // nobody left to flush to
  std::lock_guard<std::mutex> lock(conn->out_mutex);
  return conn->out_off >= conn->outbuf.size();
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

void XtalkServer::executor_loop(Executor& ex) {
  for (;;) {
    Request req;
    std::size_t queue_depth = 0;
    {
      std::unique_lock<std::mutex> lock(ex.mutex);
      ex.cv.wait(lock, [&] {
        return !ex.queue.empty() ||
               executors_stop_.load(std::memory_order_acquire);
      });
      if (ex.queue.empty()) return;  // stop requested and queue drained
      req = std::move(ex.queue.front());
      ex.queue.pop_front();
      queue_depth = ex.queue.size();
    }
    handle_request(ex, req, queue_depth);
    req.conn->busy.store(false, std::memory_order_release);
    wake_.notify();  // flush the response / dispatch the next request
  }
}

void XtalkServer::respond(Connection& conn, MsgType type,
                          std::uint32_t request_id,
                          const util::WireWriter& body) {
  auto frame = make_frame(type, request_id, body);
  std::lock_guard<std::mutex> lock(conn.out_mutex);
  conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
}

void XtalkServer::respond_error(Connection& conn, std::uint32_t request_id,
                                ErrorCode code, const std::string& message) {
  util::WireWriter body;
  ErrorMsg{code, message}.encode(body);
  respond(conn, MsgType::kError, request_id, body);
  requests_error_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_request(Executor& ex, const Request& req,
                                 std::size_t queue_depth) {
  Connection& conn = *req.conn;
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  util::WireReader r(req.payload.data(), req.payload.size(), config_.wire);
  MsgType type;
  std::uint32_t request_id = 0;
  if (!read_prologue(r, &type, &request_id)) {
    respond_error(conn, 0, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  try {
    switch (type) {
      case MsgType::kHello: {
        // Version 1 clients sent an empty hello body; anything else carries
        // the client's wire version. Rejecting a mismatch here — before any
        // other request type is decoded — is what keeps "undefined frame
        // decoding" off the table for old clients.
        HelloMsg hello;
        if (r.remaining() == 0) {
          hello.protocol_version = 1;
        } else if (!hello.decode(r) || !r.finish()) {
          respond_error(conn, request_id, ErrorCode::kMalformedFrame,
                        r.error());
          return;
        }
        if (hello.protocol_version != kProtocolVersion) {
          respond_error(conn, request_id, ErrorCode::kVersionMismatch,
                        "client speaks protocol version " +
                            std::to_string(hello.protocol_version) +
                            ", server requires " +
                            std::to_string(kProtocolVersion));
          return;
        }
        const sta::DesignView view = design_.view();
        HelloOkMsg m;
        m.design_name = design_.name();
        m.num_gates = view.netlist->num_gates();
        m.num_nets = view.netlist->num_nets();
        m.num_levels = view.dag->num_levels;
        util::WireWriter body;
        m.encode(body);
        respond(conn, MsgType::kHelloOk, request_id, body);
        requests_ok_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      case MsgType::kPing: {
        if (!r.finish()) {
          respond_error(conn, request_id, ErrorCode::kMalformedFrame,
                        r.error());
          return;
        }
        respond(conn, MsgType::kPong, request_id, util::WireWriter{});
        requests_ok_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      case MsgType::kRunSta:
        handle_run_sta(ex, conn, request_id, r, queue_depth);
        return;
      case MsgType::kQueryEndpoints:
        handle_query_endpoints(ex, conn, request_id, r);
        return;
      case MsgType::kQuerySlack:
        handle_query_slack(ex, conn, request_id, r);
        return;
      case MsgType::kEcoOpen:
        handle_eco_open(ex, conn, request_id, r);
        return;
      case MsgType::kEcoEdit:
        handle_eco_edit(conn, request_id, r);
        return;
      case MsgType::kEcoRun:
        handle_eco_run(ex, conn, request_id, r, queue_depth);
        return;
      case MsgType::kEcoClose:
        handle_eco_close(conn, request_id, r);
        return;
      case MsgType::kGetStats: {
        if (!r.finish()) {
          respond_error(conn, request_id, ErrorCode::kMalformedFrame,
                        r.error());
          return;
        }
        util::WireWriter body;
        stats_snapshot().encode(body);
        respond(conn, MsgType::kStats, request_id, body);
        requests_ok_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      case MsgType::kShutdown: {
        if (!r.finish()) {
          respond_error(conn, request_id, ErrorCode::kMalformedFrame,
                        r.error());
          return;
        }
        respond(conn, MsgType::kShutdownOk, request_id, util::WireWriter{});
        requests_ok_.fetch_add(1, std::memory_order_relaxed);
        request_stop();
        return;
      }
      default:
        respond_error(conn, request_id, ErrorCode::kUnknownType,
                      "unknown request type " +
                          std::to_string(static_cast<unsigned>(type)));
        return;
    }
  } catch (const std::exception& e) {
    respond_error(conn, request_id, ErrorCode::kInternal, e.what());
  }
}

void XtalkServer::handle_run_sta(Executor& ex, Connection& conn,
                                 std::uint32_t request_id, util::WireReader& r,
                                 std::size_t queue_depth) {
  RunSpec spec;
  if (!spec.decode(r) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  sta::StaOptions options = spec.to_options();
  options.pool = ex.pool.get();
  admission_.admit(queue_depth, config_.default_budget, &options.budget);
  if (!stopping_.load(std::memory_order_acquire)) ex.cancel.reset();
  options.cancel = &ex.cancel;
  // The spec's corner: the same device model its baseline queries and ECO
  // sessions read (the nominal corner is the base design's, untouched).
  const std::shared_ptr<const sta::ScenarioContext> ctx = design_.corner(spec);
  const sta::StaResult result =
      sta::run_sta(ctx->view(design_.view()), options);
  RunResultMsg m = RunResultMsg::from_result(result);
  if (m.budget_exhausted)
    requests_truncated_.fetch_add(1, std::memory_order_relaxed);
  util::WireWriter body;
  m.encode(body);
  respond(conn, MsgType::kRunResult, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_query_endpoints(Executor& ex, Connection& conn,
                                         std::uint32_t request_id,
                                         util::WireReader& r) {
  RunSpec spec;
  if (!spec.decode(r) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  auto result = design_.baseline(spec, ex.pool.get());
  EndpointsMsg m;
  m.longest_path_delay = result->longest_path_delay;
  m.critical = {result->critical.net, result->critical.rising,
                result->critical.arrival};
  m.endpoints.reserve(result->endpoints.size());
  for (const sta::EndpointArrival& e : result->endpoints) {
    m.endpoints.push_back({e.net, e.rising, e.arrival});
  }
  util::WireWriter body;
  m.encode(body);
  respond(conn, MsgType::kEndpoints, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_query_slack(Executor& ex, Connection& conn,
                                     std::uint32_t request_id,
                                     util::WireReader& r) {
  SlackQueryMsg q;
  if (!q.decode(r) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  // Expand the scenario list into one RunSpec per scenario (empty list =
  // the base spec alone). Each baseline is memoized per scenario key, so
  // repeated queries only pay lookups.
  std::vector<RunSpec> specs;
  if (q.scenarios.empty()) {
    specs.push_back(q.spec);
  } else {
    specs.reserve(q.scenarios.size());
    for (const sta::Scenario& s : q.scenarios) {
      RunSpec spec = q.spec;
      spec.scenario = s;
      specs.push_back(std::move(spec));
    }
  }
  // Worst (minimum) slack over all scenarios; strict < keeps the first
  // scenario on exact ties, so the answer never depends on list order
  // tricks.
  SlackMsg m;
  for (const RunSpec& spec : specs) {
    auto result = design_.baseline(spec, ex.pool.get());
    for (const sta::EndpointArrival& e : result->endpoints) {
      if (e.net != q.net || e.rising != q.rising) continue;
      const double slack = q.required_time - e.arrival;
      if (!m.valid || slack < m.slack) {
        m.valid = true;
        m.arrival = e.arrival;
        m.slack = slack;
        m.worst_scenario = spec.scenario.name;
      }
      break;
    }
  }
  util::WireWriter body;
  m.encode(body);
  respond(conn, MsgType::kSlack, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_eco_open(Executor& ex, Connection& conn,
                                  std::uint32_t request_id,
                                  util::WireReader& r) {
  RunSpec spec;
  if (!spec.decode(r) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  auto session =
      std::make_unique<EcoSession>(design_, spec, ex.pool.get(), &ex.cancel);
  const std::uint32_t id = conn.next_eco_id++;
  EcoOpenedMsg opened;
  opened.session_id = id;
  conn.eco.emplace(id, std::move(session));
  eco_open_.fetch_add(1, std::memory_order_relaxed);
  util::WireWriter body;
  opened.encode(body);
  respond(conn, MsgType::kEcoOpened, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_eco_edit(Connection& conn, std::uint32_t request_id,
                                  util::WireReader& r) {
  EcoEditMsg msg;
  if (!msg.decode(r) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  auto it = conn.eco.find(msg.session_id);
  if (it == conn.eco.end()) {
    respond_error(conn, request_id, ErrorCode::kUnknownSession,
                  "ECO session " + std::to_string(msg.session_id) +
                      " is not open on this connection");
    return;
  }
  sta::incremental::DesignEditor& editor = *it->second->editor;
  const std::size_t num_gates = editor.netlist().num_gates();
  const std::size_t num_nets = editor.netlist().num_nets();
  std::uint32_t applied = 0;
  for (const EcoOp& op : msg.ops) {
    // Validate ids up front so a bad op surfaces as kBadRequest, not as an
    // editor exception. Edits already applied in this batch stay applied
    // (the response reports the applied count).
    const bool needs_gate = op.kind == EcoOp::Kind::kResizeGate ||
                            op.kind == EcoOp::Kind::kSetWireRc ||
                            op.kind == EcoOp::Kind::kRetargetSink;
    const bool needs_net_b = op.kind == EcoOp::Kind::kSetCoupling ||
                             op.kind == EcoOp::Kind::kRemoveCoupling;
    if ((needs_gate && op.gate >= num_gates) ||
        (op.kind != EcoOp::Kind::kResizeGate && op.net_a >= num_nets) ||
        (needs_net_b && op.net_b >= num_nets)) {
      respond_error(conn, request_id, ErrorCode::kBadRequest,
                    "ECO op references an id outside the design (applied " +
                        std::to_string(applied) + " of " +
                        std::to_string(msg.ops.size()) + ")");
      return;
    }
    try {
      apply_eco_op(editor, op);
    } catch (const std::exception& e) {
      respond_error(conn, request_id, ErrorCode::kEditRejected,
                    std::string(e.what()) + " (applied " +
                        std::to_string(applied) + " of " +
                        std::to_string(msg.ops.size()) + ")");
      return;
    }
    ++applied;
  }
  util::WireWriter body;
  body.u32(applied);
  respond(conn, MsgType::kEcoEditOk, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_eco_run(Executor& ex, Connection& conn,
                                 std::uint32_t request_id, util::WireReader& r,
                                 std::size_t queue_depth) {
  std::uint32_t session_id = 0;
  if (!r.u32(&session_id) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  auto it = conn.eco.find(session_id);
  if (it == conn.eco.end()) {
    respond_error(conn, request_id, ErrorCode::kUnknownSession,
                  "ECO session " + std::to_string(session_id) +
                      " is not open on this connection");
    return;
  }
  EcoSession& session = *it->second;
  // Re-admit every run: under overload an ECO re-timing truncates into a
  // conservative anytime result exactly like a full run. Safe between runs
  // of one session — a truncated run drops the reuse baseline, so the next
  // run starts from scratch instead of replaying partial results.
  util::RunBudget budget = session.spec.to_options().budget;
  admission_.admit(queue_depth, config_.default_budget, &budget);
  if (!stopping_.load(std::memory_order_acquire)) ex.cancel.reset();
  session.sta->set_budget(budget);
  const sta::StaResult result = session.sta->run();
  RunResultMsg m = RunResultMsg::from_result(result);
  m.gates_reused = session.sta->stats().gates_reused;
  if (m.budget_exhausted)
    requests_truncated_.fetch_add(1, std::memory_order_relaxed);
  util::WireWriter body;
  m.encode(body);
  respond(conn, MsgType::kRunResult, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_eco_close(Connection& conn, std::uint32_t request_id,
                                   util::WireReader& r) {
  std::uint32_t session_id = 0;
  if (!r.u32(&session_id) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  auto it = conn.eco.find(session_id);
  if (it == conn.eco.end()) {
    respond_error(conn, request_id, ErrorCode::kUnknownSession,
                  "ECO session " + std::to_string(session_id) +
                      " is not open on this connection");
    return;
  }
  conn.eco.erase(it);
  eco_open_.fetch_sub(1, std::memory_order_relaxed);
  respond(conn, MsgType::kEcoClosed, request_id, util::WireWriter{});
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xtalk::service
