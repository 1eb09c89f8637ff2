// Resilient client: reconnect, retry, and ECO session recovery.
//
// ResilientClient wraps the one-connection XtalkClient with the failure
// policy DESIGN.md §14 specifies:
//
//   * Idempotent requests (hello/ping/run_sta/queries/stats/health) retry
//     transparently after any TransportError: reconnect with jittered
//     exponential backoff, bounded by a retry budget. Re-running
//     an analysis is safe because results are a pure function of the design
//     and the RunSpec (the engine's bitwise-determinism contract).
//
//   * ECO sessions are NOT idempotent on the wire — but they are
//     *reconstructible*. The handle journals every accepted edit batch
//     client-side. A lost connection always destroys its server-side
//     sessions, so recovery opens a fresh COW session and replays the full
//     journal. The recovered session is bitwise identical to an
//     uninterrupted one (the incremental-vs-scratch oracle).
//
//   * ServiceError (a typed protocol error) is never retried — the request
//     failed for a reason retrying cannot fix — with one wrinkle: a
//     rejected edit batch may be *partially* applied server-side, so the
//     handle drops the batch from its journal and marks the server session
//     poisoned; the next operation rebuilds it from the clean journal.
//
// Request ids keep increasing monotonically across reconnects (the id
// stream is carried over), so server logs show one coherent client.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace xtalk::service {

struct RetryPolicy {
  /// Transport attempts per operation (connect + exchange = one attempt).
  int max_attempts = 6;
  /// Per-request read deadline handed to the underlying client; 0 = none.
  int read_timeout_ms = 10000;
};

/// Local resilience counters (client side; cheap, no locking — one
/// ResilientClient is single-threaded like XtalkClient).
struct ResilienceStats {
  std::uint64_t attempts = 0;    ///< transport attempts, incl. first tries
  std::uint64_t retries = 0;     ///< attempts that were repeats
  std::uint64_t reconnects = 0;  ///< sockets (re-)established
  std::uint64_t sessions_recovered = 0;  ///< full ECO journal replays
  std::vector<double> recovery_ms;       ///< wall time of each recovery
};

class ResilientClient;

/// A recoverable ECO session. Obtained from ResilientClient::eco_open();
/// must not outlive its client. Move-only.
class EcoHandle {
 public:
  EcoHandle() = default;
  EcoHandle(EcoHandle&&) = default;
  EcoHandle& operator=(EcoHandle&&) = default;
  EcoHandle(const EcoHandle&) = delete;
  EcoHandle& operator=(const EcoHandle&) = delete;

  bool open() const { return owner_ != nullptr; }
  /// Batches journaled so far (accepted edits only).
  std::size_t journal_size() const { return journal_.size(); }

  /// Apply one edit batch; journals it on success. Throws ServiceError on
  /// semantic rejection (batch dropped from the journal, session rebuilt on
  /// the next operation), TransportError when the retry budget is spent.
  std::uint32_t edit(const std::vector<EcoOp>& ops);
  /// Incremental re-timing; bitwise equal to a from-scratch run over the
  /// journaled edits, even when recovery replayed them onto a new session.
  RunResultMsg run();
  /// Close the server-side session (a no-op if the connection died, which
  /// already destroyed it).
  void close();

 private:
  friend class ResilientClient;

  ResilientClient* owner_ = nullptr;
  RunSpec spec_;
  std::vector<std::vector<EcoOp>> journal_;
  std::uint32_t session_id_ = 0;
  /// Connection epoch the server-side session lives on; a reconnect bumps
  /// the client epoch, implicitly invalidating every handle.
  std::uint64_t epoch_ = 0;
  /// Set after a rejected batch: server state may hold a partial batch, so
  /// the session must be rebuilt from the journal before further use.
  bool poisoned_ = false;
};

class ResilientClient {
 public:
  /// Connects lazily (first operation).
  ResilientClient(std::uint16_t tcp_port, RetryPolicy policy = {});

  // --- idempotent operations (transparent retry) --------------------------
  HelloOkMsg hello();
  void ping();
  RunResultMsg run_sta(const RunSpec& spec);
  EndpointsMsg query_endpoints(const RunSpec& spec);
  SlackMsg query_slack(const SlackQueryMsg& query);
  HealthMsg health();
  StatsMsg server_stats();
  /// Retried like the rest; a connect refusal during retry is treated as
  /// success (the server already closed its listener to drain).
  void shutdown_server();

  // --- recoverable ECO sessions -------------------------------------------
  EcoHandle eco_open(const RunSpec& spec);

  const ResilienceStats& resilience() const { return stats_; }

 private:
  friend class EcoHandle;

  /// Run `op` against a live connection, retrying TransportErrors within
  /// the attempt budget. ServiceError passes through untouched.
  template <typename Fn>
  auto with_retry(Fn&& op) -> decltype(op());

  void ensure_connected();
  void drop_connection();
  void backoff(int attempt);

  /// True when the handle's server-side session is live on the current
  /// connection and not poisoned.
  bool session_live(const EcoHandle& h) const;
  /// Rebuild the server-side session: fresh open + full journal replay
  /// (timed and counted).
  void recover_session(EcoHandle& h);

  std::uint16_t port_;
  RetryPolicy policy_;

  std::unique_ptr<XtalkClient> client_;
  std::uint32_t next_request_id_ = 1;
  std::uint64_t epoch_ = 0;  ///< bumped on every drop_connection()

  util::Rng jitter_rng_;
  ResilienceStats stats_;
};

}  // namespace xtalk::service
