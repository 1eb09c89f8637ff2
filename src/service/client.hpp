// Blocking client for the analysis service.
//
// One XtalkClient wraps one connection; every call sends a frame and waits
// for the matching response (the server echoes the request id, which the
// client asserts). A kError response surfaces as a thrown ServiceError
// carrying the protocol error code — the connection itself stays usable,
// matching the server's recoverable-diagnostics contract (only an
// unframeable byte stream closes a connection).
//
// Transport failures are a different species: a TransportError means the
// *connection* is suspect (timed out, reset, desynchronized) and must be
// discarded — a response may still be in flight, so reusing the socket
// would pair the next request with a stale reply. ServiceError → the
// request failed, the connection is fine; TransportError → the connection
// is dead, the request's fate is unknown. service::ResilientClient
// (retry.hpp) builds the reconnect/retry policy on that distinction.
//
// All blocking reads honor set_read_timeout_ms() (satellite: a dead server
// must not hang the CLI), surfacing expiry as TransportError{kTimeout}.
//
// The raw frame helpers (send_raw/recv_frame) exist for the protocol tests,
// which need to send deliberately malformed frames.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "util/socket.hpp"
#include "util/wire.hpp"

namespace xtalk::service {

/// A kError response, thrown to the caller.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " +
                           message),
        code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Why a connection became unusable.
enum class TransportFailure : std::uint8_t {
  kTimeout = 0,         ///< read deadline expired; response fate unknown
  kConnectionLost = 1,  ///< peer reset/EOF/transport error mid-exchange
  kConnectRefused = 2,  ///< connect() itself failed
  kProtocol = 3,        ///< stream desynchronized (bad id/type/prologue)
};

const char* transport_failure_name(TransportFailure f);

/// A transport-level failure, thrown to the caller. The connection must be
/// abandoned after catching one of these.
class TransportError : public std::runtime_error {
 public:
  TransportError(TransportFailure kind, const std::string& message)
      : std::runtime_error(std::string(transport_failure_name(kind)) + ": " +
                           message),
        kind_(kind) {}
  TransportFailure kind() const { return kind_; }

 private:
  TransportFailure kind_;
};

/// One received frame, decoded down to the payload body.
struct FrameView {
  MsgType type = MsgType::kError;
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> payload;  ///< full payload incl. prologue

  /// A reader positioned at the body (after the prologue).
  util::WireReader body(const util::WireLimits& limits) const;
};

class XtalkClient {
 public:
  explicit XtalkClient(util::Socket sock, util::WireLimits limits = {});

  static XtalkClient connect_unix(const std::string& path,
                                  util::WireLimits limits = {});
  static XtalkClient connect_tcp(std::uint16_t port,
                                 util::WireLimits limits = {});

  /// Deadline for every blocking read, ms; 0 waits forever (default).
  void set_read_timeout_ms(int ms) { read_timeout_ms_ = ms; }
  int read_timeout_ms() const { return read_timeout_ms_; }

  /// Request-id stream control: ResilientClient carries the monotone id
  /// sequence across reconnects so server logs show one coherent stream.
  std::uint32_t next_request_id() const { return next_request_id_; }
  void set_next_request_id(std::uint32_t id) { next_request_id_ = id; }

  // --- typed requests -----------------------------------------------------
  /// Sends kProtocolVersion; a mismatched server answers with a typed
  /// ServiceError{kVersionMismatch}.
  HelloOkMsg hello();
  void ping();
  RunResultMsg run_sta(const RunSpec& spec);
  EndpointsMsg query_endpoints(const RunSpec& spec);
  SlackMsg query_slack(const SlackQueryMsg& query);
  HealthMsg health();
  /// Returns the new session id, valid on this connection only.
  EcoOpenedMsg eco_open(const RunSpec& spec);
  /// Returns the number of ops applied (== ops.size() on success).
  std::uint32_t eco_edit(std::uint32_t session_id,
                         const std::vector<EcoOp>& ops);
  RunResultMsg eco_run(std::uint32_t session_id);
  void eco_close(std::uint32_t session_id);
  StatsMsg stats();
  /// Ask the server to drain and exit (kShutdownOk acknowledges).
  void shutdown_server();

  // --- raw access (tests) -------------------------------------------------
  /// Send arbitrary bytes as-is (no framing added).
  void send_raw(const std::vector<std::uint8_t>& bytes);
  /// Send a well-formed frame with an explicit payload.
  void send_frame(MsgType type, std::uint32_t request_id,
                  const util::WireWriter& body);
  /// Receive one frame (blocking, deadline-bounded). Throws TransportError
  /// on timeout/EOF/transport failure and ServiceError never (raw frames
  /// are not interpreted).
  FrameView recv_frame();

  util::Socket& socket() { return sock_; }
  const util::WireLimits& limits() const { return limits_; }

 private:
  /// Send `body` as `type`, wait for the response, unwrap kError.
  FrameView transact(MsgType request, const util::WireWriter& body,
                     MsgType expected_response);

  util::Socket sock_;
  util::WireLimits limits_;
  std::uint32_t next_request_id_ = 1;
  int read_timeout_ms_ = 0;
};

}  // namespace xtalk::service
