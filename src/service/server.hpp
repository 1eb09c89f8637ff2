// The long-lived analysis daemon (DESIGN.md §13).
//
// One XtalkServer serves one immutable DesignSession over a socket. The
// threading model is a single poll() event loop that owns ALL socket I/O
// (accept, buffered non-blocking reads/writes, frame extraction) plus N
// executor threads that own the analysis work. Each executor owns one
// long-lived util::ThreadPool, and every connection is pinned to one
// executor at accept time — so an executor's pool ever runs one engine at
// a time (the pool's single-loop contract) while the worker threads warm
// across requests instead of being respawned per run.
//
// Ordering: requests on one connection execute strictly in receive order
// (ECO edits are order-dependent); requests on different connections run
// concurrently when pinned to different executors. Responses travel back
// through a mutex-guarded per-connection outbox; the executor wakes the
// event loop through a self-pipe and the loop flushes when the socket is
// writable.
//
// Overload: every analysis request passes AdmissionController::admit with
// the executor's queue depth — past the soft threshold budgets are clamped
// and the run truncates into a conservative anytime result (never an
// error). Drain (request_stop() or a kShutdown request): the listener
// closes FIRST, already-received requests finish (DrainPolicy::kFinish) or
// soft-cancel into anytime results (kTruncate), outboxes flush, then
// connections close and the threads join.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

namespace xtalk::service {

/// What happens to in-flight and queued requests on drain.
enum class DrainPolicy : std::uint8_t {
  kFinish = 0,    ///< run every received request to completion
  kTruncate = 1,  ///< soft-cancel: anytime truncation at the next checkpoint
};

struct ServiceConfig {
  /// Unix-domain socket path; empty = listen on loopback TCP instead.
  std::string unix_path;
  /// TCP port when unix_path is empty; 0 picks an ephemeral port (read the
  /// chosen one via XtalkServer::port()).
  std::uint16_t tcp_port = 0;
  /// Executor threads (concurrent requests); each owns a ThreadPool.
  std::size_t num_executors = 2;
  /// Worker threads per executor pool (0 = one per hardware thread).
  int pool_threads = 1;
  util::WireLimits wire;
  AdmissionConfig admission;
  /// Server-side budget defaults merged into every request (0 = unlimited).
  util::RunBudget default_budget;
  DrainPolicy drain = DrainPolicy::kFinish;
  /// Slow-loris eviction: a connection with a partial frame inbound or
  /// unflushed responses outbound that makes no byte progress for this long
  /// is treated as dead and closed. 0 disables.
  int stall_timeout_ms = 30000;
  /// During drain, a peer that stops reading its responses is force-closed
  /// after this much write inactivity, so drain can never hang on a dead
  /// reader. 0 disables (drain then waits forever, the pre-hardening
  /// behaviour).
  int drain_flush_timeout_ms = 5000;
  /// Backpressure: stop reading from a connection while its outbox holds at
  /// least this many unsent bytes (resumes when the peer drains it). Bounds
  /// per-connection memory against a pipelining-but-never-reading client.
  std::size_t max_outbox_bytes = 8u << 20;
  /// Optional readable-means-stop fd polled by the event loop (the write
  /// end lives in an async-signal-safe self-pipe signal handler). -1 = off.
  int stop_event_fd = -1;
};

class XtalkServer {
 public:
  /// The design session is borrowed and must outlive the server.
  XtalkServer(DesignSession& design, ServiceConfig config);
  ~XtalkServer();

  XtalkServer(const XtalkServer&) = delete;
  XtalkServer& operator=(const XtalkServer&) = delete;

  /// Bind the listener and start the event loop + executors. Throws
  /// util::DiagError(kFileError) if the socket cannot be bound.
  void start();

  /// Begin drain from any thread (idempotent): stop accepting, stop
  /// reading, finish/truncate received work, flush, close.
  void request_stop();

  /// Wait for the drain to complete and all threads to exit.
  void join();

  /// Convenience: request_stop() + join().
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound TCP port (0 for unix-domain servers).
  std::uint16_t port() const { return listener_.port(); }
  const std::string& unix_path() const { return listener_.unix_path(); }

  /// Point-in-time server counters (same data as the kGetStats response).
  StatsMsg stats_snapshot() const;

 private:
  struct Connection {
    std::uint64_t id = 0;
    util::Socket sock;
    std::size_t executor = 0;
    // --- event-loop-only state ---------------------------------------
    std::vector<std::uint8_t> inbuf;   ///< unparsed received bytes
    std::deque<std::vector<std::uint8_t>> ready;  ///< parsed payloads
    bool peer_gone = false;  ///< EOF/error seen; close once work drains
    bool kill = false;       ///< protocol violation; close once flushed
    /// Progress deadlines (slow-loris eviction / drain flush grace). The
    /// event loop samples the buffer watermarks each scan; any change —
    /// bytes received, parsed, enqueued or flushed — counts as progress,
    /// so the timestamps are only ever touched on the event loop thread.
    std::chrono::steady_clock::time_point last_read_progress;
    std::chrono::steady_clock::time_point last_write_progress;
    std::size_t last_in_pending = 0;
    std::size_t last_out_pending = 0;
    // --- cross-thread state ------------------------------------------
    std::atomic<bool> busy{false};  ///< a request is on an executor
    std::mutex out_mutex;
    std::vector<std::uint8_t> outbuf;  ///< encoded frames awaiting send
    std::size_t out_off = 0;           ///< sent prefix of outbuf
    // --- executor-only state (the pinned executor serializes access) --
    std::uint32_t next_eco_id = 1;
    std::map<std::uint32_t, std::unique_ptr<EcoSession>> eco;
  };

  struct Request {
    std::shared_ptr<Connection> conn;
    std::vector<std::uint8_t> payload;
  };

  struct Executor {
    std::thread thread;
    std::unique_ptr<util::ThreadPool> pool;
    util::CancelToken cancel;  ///< requested (soft) on kTruncate drain
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Request> queue;
  };

  void event_loop();
  void executor_loop(Executor& ex);

  // Event-loop helpers.
  void accept_pending();
  void read_connection(const std::shared_ptr<Connection>& conn);
  void parse_frames(const std::shared_ptr<Connection>& conn);
  void dispatch_ready(const std::shared_ptr<Connection>& conn);
  void write_connection(const std::shared_ptr<Connection>& conn);
  bool connection_drained(const std::shared_ptr<Connection>& conn);
  /// True when the connection blew a progress deadline and must be evicted.
  /// Also advances the connection's progress watermarks.
  bool connection_stalled(const std::shared_ptr<Connection>& conn,
                          std::chrono::steady_clock::time_point now,
                          bool stopping);
  /// Answer a kHealth payload directly on the event loop (never queued, so
  /// the probe stays responsive while every executor is busy).
  void respond_health(const std::shared_ptr<Connection>& conn,
                      const std::vector<std::uint8_t>& payload);
  /// Drop the ECO sessions of a dying connection.
  void reap_connection_sessions(Connection& conn);

  // Executor helpers. All run on the connection's pinned executor.
  void handle_request(Executor& ex, const Request& req,
                      std::size_t queue_depth);
  void respond(Connection& conn, MsgType type, std::uint32_t request_id,
               const util::WireWriter& body);
  void respond_error(Connection& conn, std::uint32_t request_id,
                     ErrorCode code, const std::string& message);
  void handle_run_sta(Executor& ex, Connection& conn,
                      std::uint32_t request_id, util::WireReader& r,
                      std::size_t queue_depth);
  void handle_query_endpoints(Executor& ex, Connection& conn,
                              std::uint32_t request_id, util::WireReader& r);
  void handle_query_slack(Executor& ex, Connection& conn,
                          std::uint32_t request_id, util::WireReader& r);
  void handle_eco_open(Executor& ex, Connection& conn,
                       std::uint32_t request_id, util::WireReader& r);
  void handle_eco_edit(Connection& conn, std::uint32_t request_id,
                       util::WireReader& r);
  void handle_eco_run(Executor& ex, Connection& conn,
                      std::uint32_t request_id, util::WireReader& r,
                      std::size_t queue_depth);
  void handle_eco_close(Connection& conn, std::uint32_t request_id,
                        util::WireReader& r);

  DesignSession& design_;
  ServiceConfig config_;
  AdmissionController admission_;
  util::Listener listener_;
  util::WakePipe wake_;
  std::thread event_thread_;
  std::vector<std::unique_ptr<Executor>> executors_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> executors_stop_{false};
  bool joined_ = false;
  std::mutex join_mutex_;

  // Event-loop-only connection table.
  std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t next_executor_ = 0;

  // Stats.
  std::chrono::steady_clock::time_point start_time_;
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> requests_truncated_{0};
  std::atomic<std::uint64_t> eco_open_{0};
  std::atomic<std::uint64_t> eco_reaped_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace xtalk::service
