#include "service/retry.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace xtalk::service {

namespace {

/// Backoff before retry k (k >= 0): min(kBaseBackoffMs << k, kMaxBackoffMs),
/// scaled by a uniform draw from [1 - kJitter/2, 1 + kJitter/2].
constexpr int kBaseBackoffMs = 5;
constexpr int kMaxBackoffMs = 500;
constexpr double kJitter = 0.5;

}  // namespace

// ---------------------------------------------------------------------------
// ResilientClient plumbing
// ---------------------------------------------------------------------------

// The jitter stream is seeded per process and port, so clients retrying
// into the same recovering server draw different delays.
ResilientClient::ResilientClient(std::uint16_t tcp_port, RetryPolicy policy)
    : port_(tcp_port),
      policy_(policy),
      jitter_rng_((static_cast<std::uint64_t>(::getpid()) << 16) ^ tcp_port) {}

void ResilientClient::ensure_connected() {
  if (client_ != nullptr) return;
  XtalkClient fresh = XtalkClient::connect_tcp(port_);
  fresh.set_read_timeout_ms(policy_.read_timeout_ms);
  fresh.set_next_request_id(next_request_id_);
  client_ = std::make_unique<XtalkClient>(std::move(fresh));
  ++epoch_;  // every connection is a new epoch; old ECO sessions are dead
  ++stats_.reconnects;
}

void ResilientClient::drop_connection() {
  if (client_ == nullptr) return;
  // Carry the id stream across the reconnect; also discards the socket
  // outright — after a timeout a stale response may still be in flight, and
  // pairing it with the next request would silently corrupt the stream.
  next_request_id_ = client_->next_request_id();
  client_.reset();
}

void ResilientClient::backoff(int attempt) {
  const int shift = std::min(attempt, 20);
  double delay_ms = static_cast<double>(std::min<std::int64_t>(
      static_cast<std::int64_t>(kBaseBackoffMs) << shift, kMaxBackoffMs));
  delay_ms *= 1.0 - kJitter / 2.0 + kJitter * jitter_rng_.next_double();
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(delay_ms * 1000.0)));
}

template <typename Fn>
auto ResilientClient::with_retry(Fn&& op) -> decltype(op()) {
  for (int attempt = 0;; ++attempt) {
    try {
      ++stats_.attempts;
      if (attempt > 0) ++stats_.retries;
      ensure_connected();
      return op();
    } catch (const TransportError&) {
      drop_connection();
      if (attempt + 1 >= policy_.max_attempts) throw;
      backoff(attempt);
    }
  }
}

// ---------------------------------------------------------------------------
// Idempotent operations
// ---------------------------------------------------------------------------

HelloOkMsg ResilientClient::hello() {
  return with_retry([&] { return client_->hello(); });
}

void ResilientClient::ping() {
  with_retry([&] {
    client_->ping();
    return 0;
  });
}

RunResultMsg ResilientClient::run_sta(const RunSpec& spec) {
  return with_retry([&] { return client_->run_sta(spec); });
}

EndpointsMsg ResilientClient::query_endpoints(const RunSpec& spec) {
  return with_retry([&] { return client_->query_endpoints(spec); });
}

SlackMsg ResilientClient::query_slack(const SlackQueryMsg& query) {
  return with_retry([&] { return client_->query_slack(query); });
}

HealthMsg ResilientClient::health() {
  return with_retry([&] { return client_->health(); });
}

StatsMsg ResilientClient::server_stats() {
  return with_retry([&] { return client_->stats(); });
}

void ResilientClient::shutdown_server() {
  try {
    with_retry([&] {
      client_->shutdown_server();
      return 0;
    });
  } catch (const TransportError& e) {
    // The ack can be lost after the drain started; once the listener is
    // closed every reconnect is refused. That refusal IS the confirmation.
    if (e.kind() == TransportFailure::kConnectRefused) return;
    throw;
  }
}

// ---------------------------------------------------------------------------
// ECO sessions
// ---------------------------------------------------------------------------

bool ResilientClient::session_live(const EcoHandle& h) const {
  return client_ != nullptr && h.epoch_ == epoch_ && !h.poisoned_;
}

void ResilientClient::recover_session(EcoHandle& h) {
  const auto t0 = std::chrono::steady_clock::now();
  // A poisoned session may hold a partially applied batch the journal does
  // not, and a dead connection took its session with it: either way only a
  // fresh session replaying the journal is trustworthy.
  h.session_id_ = client_->eco_open(h.spec_).session_id;
  for (const std::vector<EcoOp>& batch : h.journal_) {
    client_->eco_edit(h.session_id_, batch);
  }
  h.epoch_ = epoch_;
  h.poisoned_ = false;
  ++stats_.sessions_recovered;
  stats_.recovery_ms.push_back(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

EcoHandle ResilientClient::eco_open(const RunSpec& spec) {
  EcoHandle h;
  h.owner_ = this;
  h.spec_ = spec;
  with_retry([&] {
    h.session_id_ = client_->eco_open(spec).session_id;
    h.epoch_ = epoch_;
    return 0;
  });
  return h;
}

std::uint32_t EcoHandle::edit(const std::vector<EcoOp>& ops) {
  ResilientClient& c = *owner_;
  // Journal BEFORE sending: if the ack is torn off the wire, the batch's
  // fate is unknown — but since a lost connection also destroys the
  // server-side session, replaying the full journal (this batch included)
  // onto a fresh session reconstructs exactly the acknowledged state.
  journal_.push_back(ops);
  try {
    return c.with_retry([&]() -> std::uint32_t {
      if (!c.session_live(*this)) {
        // Replay applied every journaled batch, including the new one.
        c.recover_session(*this);
        return static_cast<std::uint32_t>(ops.size());
      }
      return c.client_->eco_edit(session_id_, ops);
    });
  } catch (const ServiceError&) {
    // Semantic rejection: the server may hold a PARTIALLY applied batch
    // (its contract reports "applied K of N" and keeps K). Drop the batch
    // from the journal and poison the session so the next operation
    // rebuilds clean state from accepted batches only — atomic batch
    // semantics on top of a non-atomic server.
    journal_.pop_back();
    poisoned_ = true;
    throw;
  }
}

RunResultMsg EcoHandle::run() {
  ResilientClient& c = *owner_;
  return c.with_retry([&] {
    if (!c.session_live(*this)) c.recover_session(*this);
    return c.client_->eco_run(session_id_);
  });
}

void EcoHandle::close() {
  if (owner_ == nullptr) return;
  ResilientClient& c = *owner_;
  owner_ = nullptr;
  if (c.client_ == nullptr || epoch_ != c.epoch_) {
    // The connection the session lived on is gone, and the server reaped
    // the session with it; nothing to close.
    return;
  }
  try {
    c.client_->eco_close(session_id_);
  } catch (const TransportError&) {
    // Connection died delivering the close — which closes the session.
    c.drop_connection();
  } catch (const ServiceError& e) {
    if (e.code() != ErrorCode::kUnknownSession) throw;
  }
}

}  // namespace xtalk::service
