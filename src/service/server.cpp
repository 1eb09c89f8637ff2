#include "service/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/diag.hpp"
#include "util/persist.hpp"

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
/// Shared by the edit handler and the resume-replay path, so a replayed
/// session is rebuilt by exactly the code that built it the first time.
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
  setup_durability();
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
    for (auto& ex : executors_) ex->cancel.request(/*hard=*/false);
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

void XtalkServer::setup_durability() {
  if (!durable()) return;
  // Best-effort create; an unusable dir surfaces as kIoError below.
  ::mkdir(config_.state_dir.c_str(), 0755);

  // Restart generation: load, bump, store. Tokens embed the generation, so
  // a token minted before any number of restarts can never collide with a
  // fresh one.
  const std::string gen_path = config_.state_dir + "/generation.snap";
  std::vector<std::uint8_t> payload;
  std::string error;
  std::uint64_t gen = 0;
  if (util::load_snapshot(gen_path, kSnapKindGeneration, kSnapVersion,
                          &payload, &error) == util::PersistStatus::kOk) {
    util::WireReader r(payload);
    if (!r.u64(&gen) || !r.finish()) gen = 0;
  }
  restart_generation_ = gen + 1;
  util::WireWriter w;
  w.u64(restart_generation_);
  util::save_snapshot(gen_path, kSnapKindGeneration, kSnapVersion, w.data(),
                      &error, config_.state_fsync);

  // Replay the session WAL: every session the previous generation had
  // acknowledged comes back, detached, resumable by token. A torn tail is
  // the expected crash shape (truncated); full corruption degrades to a
  // cold start rather than refusing to serve.
  const util::WalReplay replay = util::replay_wal(wal_path());
  if (replay.status == util::PersistStatus::kOk) {
    durable_ = fold_session_wal(replay.records);
  }
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [token, rec] : durable_) detached_.emplace(token, now);

  // Compact at boot: the rewritten log carries exactly the live sessions,
  // dropping closed-session records and any torn tail physically.
  compact_wal_locked();

  // Re-warm the memoized baselines (and keep snapshotting them from here).
  design_.enable_persistence(config_.state_dir, config_.state_fsync);
}

std::uint64_t XtalkServer::make_token_locked() {
  return (restart_generation_ << 32) | ++token_seq_;
}

void XtalkServer::maybe_compact_locked() {
  const std::uint64_t records = wal_records_.load(std::memory_order_relaxed);
  std::uint64_t live = 0;
  for (const auto& [token, rec] : durable_) live += 1 + rec.batches.size();
  // Compact when the log is mostly dead weight: either every session closed
  // (truncate to empty) or the record count is far past what the live set
  // needs. The +64 floor keeps steady-state churn from compacting per close.
  const bool all_closed = durable_.empty() && records > 0;
  if (!all_closed && records <= 2 * live + 64) return;
  compact_wal_locked();
}

void XtalkServer::compact_wal_locked() {
  std::string error;
  wal_.close();
  const std::vector<util::WalRecord> records = compact_session_wal(durable_);
  util::WalWriter::rewrite(wal_path(), records, config_.state_fsync, &error);
  // Reopen for appends at the end of whatever is actually on disk (the
  // rewrite may have failed; appending after a replayed valid prefix is
  // correct either way).
  const util::WalReplay replay = util::replay_wal(wal_path());
  wal_.open(wal_path(), replay.valid_bytes, config_.state_fsync, &error);
  wal_records_.store(replay.records.size(), std::memory_order_relaxed);
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
  s.restart_generation = restart_generation_;
  s.snapshot_age_ms = design_.snapshot_age_ms();
  s.wal_records = wal_records_.load(std::memory_order_relaxed);
  s.eco_sessions_resumed = eco_resumed_.load(std::memory_order_relaxed);
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
      // restarting supervisor can bind the successor socket while we finish.
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

    reap_detached_sessions();

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
  m.restart_generation = restart_generation_;
  m.snapshot_age_ms = design_.snapshot_age_ms();
  m.wal_records = wal_records_.load(std::memory_order_relaxed);
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
  // Volatile server: the connection owns its ECO sessions; when it dies
  // before kEcoClose the sessions die with it (the recovery contract clients
  // rely on: a lost connection always means a lost session, so journal
  // replay onto a fresh session can never double-apply edits). Durable
  // server: the live engine object still dies, but the WAL record detaches
  // instead — resumable by token until the linger expires, exactly-once
  // guaranteed by batch_seq dedupe rather than by session loss. Only runs
  // once the connection is drained (not busy), so the pinned executor is
  // done touching conn.eco.
  const std::uint64_t orphans = static_cast<std::uint64_t>(conn.eco.size());
  if (orphans == 0) return;
  if (durable()) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(durable_mutex_);
    for (const auto& [id, session] : conn.eco) {
      if (session->token != 0 && durable_.count(session->token) != 0) {
        detached_.emplace(session->token, now);
      }
    }
    conn.eco.clear();
    eco_open_.fetch_sub(orphans, std::memory_order_relaxed);
    return;  // reaped counts when the linger expires, not at detach
  }
  conn.eco.clear();
  eco_open_.fetch_sub(orphans, std::memory_order_relaxed);
  eco_reaped_.fetch_add(orphans, std::memory_order_relaxed);
}

void XtalkServer::reap_detached_sessions() {
  if (!durable()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto linger = std::chrono::milliseconds(
      config_.detached_linger_ms < 0 ? 0 : config_.detached_linger_ms);
  std::lock_guard<std::mutex> lock(durable_mutex_);
  bool changed = false;
  for (auto it = detached_.begin(); it != detached_.end();) {
    if (now - it->second < linger) {
      ++it;
      continue;
    }
    std::string error;
    wal_.append(static_cast<std::uint16_t>(WalRecordType::kSessionClose),
                encode_wal_close(it->first), &error);
    wal_records_.fetch_add(1, std::memory_order_relaxed);
    durable_.erase(it->first);
    it = detached_.erase(it);
    eco_reaped_.fetch_add(1, std::memory_order_relaxed);
    changed = true;
  }
  if (changed) maybe_compact_locked();
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
      case MsgType::kEcoResume:
        handle_eco_resume(ex, conn, request_id, r);
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
  if (!options.trace_path.empty()) {
    options.trace_path = qualified_trace_path(
        options.trace_path,
        request_seq_.fetch_add(1, std::memory_order_relaxed));
  }
  const sta::StaResult result = sta::run_sta(design_.view(), options);
  RunResultMsg m = RunResultMsg::from_result(result);
  m.trace_path = options.trace_path;
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
  if (durable()) {
    // Ack-implies-durable: the open record is on disk (fsynced) before the
    // EcoOpened frame exists. A WAL failure means no session — the client
    // gets a typed error instead of a session that would silently vanish.
    std::lock_guard<std::mutex> lock(durable_mutex_);
    const std::uint64_t token = make_token_locked();
    std::string error;
    if (wal_.append(static_cast<std::uint16_t>(WalRecordType::kSessionOpen),
                    encode_wal_open(token, spec),
                    &error) != util::PersistStatus::kOk) {
      respond_error(conn, request_id, ErrorCode::kInternal,
                    "session WAL append failed: " + error);
      return;
    }
    wal_records_.fetch_add(1, std::memory_order_relaxed);
    SessionRecord rec;
    rec.token = token;
    rec.spec = spec;
    durable_.emplace(token, std::move(rec));
    session->token = token;
  }
  const std::uint32_t id = conn.next_eco_id++;
  EcoOpenedMsg opened;
  opened.session_id = id;
  opened.token = session->token;
  conn.eco.emplace(id, std::move(session));
  eco_open_.fetch_add(1, std::memory_order_relaxed);
  util::WireWriter body;
  opened.encode(body);
  respond(conn, MsgType::kEcoOpened, request_id, body);
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

void XtalkServer::handle_eco_resume(Executor& ex, Connection& conn,
                                    std::uint32_t request_id,
                                    util::WireReader& r) {
  EcoResumeMsg msg;
  if (!msg.decode(r) || !r.finish()) {
    respond_error(conn, request_id, ErrorCode::kMalformedFrame, r.error());
    return;
  }
  if (!durable()) {
    respond_error(conn, request_id, ErrorCode::kBadRequest,
                  "server runs without --state-dir; sessions are volatile");
    return;
  }
  SessionRecord rec;
  {
    std::lock_guard<std::mutex> lock(durable_mutex_);
    auto it = durable_.find(msg.token);
    if (it == durable_.end()) {
      respond_error(conn, request_id, ErrorCode::kUnknownSession,
                    "no durable session for this token (closed, reaped, or "
                    "never acknowledged)");
      return;
    }
    if (detached_.erase(msg.token) == 0) {
      // Still bound to a live connection (perhaps one whose death the event
      // loop has not yet observed). Refusing keeps two connections from
      // racing on one engine; the client falls back to a fresh session.
      respond_error(conn, request_id, ErrorCode::kBadRequest,
                    "session is attached to a live connection");
      return;
    }
    rec = it->second;  // replay from a copy, outside the lock
  }
  // Rebuild the live engine by deterministic replay of acknowledged batches
  // — the server-side mirror of the client's journal replay.
  auto session =
      std::make_unique<EcoSession>(design_, rec.spec, ex.pool.get(), &ex.cancel);
  try {
    for (const std::vector<EcoOp>& batch : rec.batches) {
      for (const EcoOp& op : batch) apply_eco_op(*session->editor, op);
    }
  } catch (const std::exception& e) {
    // Acknowledged edits applied cleanly once; failing to re-apply means the
    // design changed under us. Put the record back and report.
    std::lock_guard<std::mutex> lock(durable_mutex_);
    detached_.emplace(msg.token, std::chrono::steady_clock::now());
    respond_error(conn, request_id, ErrorCode::kInternal,
                  std::string("session replay failed: ") + e.what());
    return;
  }
  session->token = msg.token;
  session->applied_seq = rec.applied_seq;
  const std::uint32_t id = conn.next_eco_id++;
  EcoResumedMsg resumed;
  resumed.session_id = id;
  resumed.token = msg.token;
  resumed.applied_seq = rec.applied_seq;
  conn.eco.emplace(id, std::move(session));
  eco_open_.fetch_add(1, std::memory_order_relaxed);
  eco_resumed_.fetch_add(1, std::memory_order_relaxed);
  util::WireWriter body;
  resumed.encode(body);
  respond(conn, MsgType::kEcoResumed, request_id, body);
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
  EcoSession& session = *it->second;
  if (msg.batch_seq != 0) {
    if (msg.batch_seq <= session.applied_seq) {
      // A replayed batch the session already holds (the ack was lost, not
      // the append): acknowledge without re-applying — exactly-once.
      util::WireWriter body;
      body.u32(static_cast<std::uint32_t>(msg.ops.size()));
      respond(conn, MsgType::kEcoEditOk, request_id, body);
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (msg.batch_seq != session.applied_seq + 1) {
      respond_error(conn, request_id, ErrorCode::kBadRequest,
                    "batch_seq " + std::to_string(msg.batch_seq) +
                        " skips ahead of applied_seq " +
                        std::to_string(session.applied_seq));
      return;
    }
  }
  sta::incremental::DesignEditor& editor = *session.editor;
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
  const std::uint64_t seq =
      msg.batch_seq != 0 ? msg.batch_seq : session.applied_seq + 1;
  if (durable() && session.token != 0) {
    // Ack-implies-durable: the batch is WAL-appended and fsynced BEFORE the
    // ack frame exists. On append failure the client gets kInternal — its
    // retry layer poisons the handle and rebuilds from its own journal, so
    // server memory holding an unacknowledged batch is harmless.
    std::lock_guard<std::mutex> lock(durable_mutex_);
    std::string error;
    if (wal_.append(static_cast<std::uint16_t>(WalRecordType::kSessionEdit),
                    encode_wal_edit(session.token, seq, msg.ops),
                    &error) != util::PersistStatus::kOk) {
      respond_error(conn, request_id, ErrorCode::kInternal,
                    "session WAL append failed: " + error);
      return;
    }
    wal_records_.fetch_add(1, std::memory_order_relaxed);
    auto dit = durable_.find(session.token);
    if (dit != durable_.end()) {
      dit->second.batches.push_back(msg.ops);
      dit->second.applied_seq = seq;
    }
  }
  session.applied_seq = seq;
  // Seeded kill site: durable but unacknowledged. The client never saw an
  // ack, yet after restart+resume the batch is there — its sequenced replay
  // dedupes instead of double-applying.
  util::crash_point_hit(util::CrashPoint::kWalAfterAppend);
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
  // Seeded kill site: death mid-serve of a re-timing run. No durability
  // boundary is involved — the invariant is purely that acknowledged edits
  // survive and the re-run after restart matches the oracle bitwise.
  util::crash_point_hit(util::CrashPoint::kEcoRunMid);
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
  const std::uint64_t token = it->second->token;
  conn.eco.erase(it);
  if (durable() && token != 0) {
    std::lock_guard<std::mutex> lock(durable_mutex_);
    std::string error;
    wal_.append(static_cast<std::uint16_t>(WalRecordType::kSessionClose),
                encode_wal_close(token), &error);
    wal_records_.fetch_add(1, std::memory_order_relaxed);
    durable_.erase(token);
    detached_.erase(token);
    maybe_compact_locked();
  }
  eco_open_.fetch_sub(1, std::memory_order_relaxed);
  respond(conn, MsgType::kEcoClosed, request_id, util::WireWriter{});
  requests_ok_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xtalk::service
