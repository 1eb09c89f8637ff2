#include "service/client.hpp"

#include <utility>

#include "util/diag.hpp"

namespace xtalk::service {

namespace {

[[noreturn]] void throw_transport(TransportFailure kind,
                                  const std::string& message) {
  throw TransportError(kind, message);
}

}  // namespace

const char* transport_failure_name(TransportFailure f) {
  switch (f) {
    case TransportFailure::kTimeout:
      return "timeout";
    case TransportFailure::kConnectionLost:
      return "connection-lost";
    case TransportFailure::kConnectRefused:
      return "connect-refused";
    case TransportFailure::kProtocol:
      return "protocol";
  }
  return "unknown";
}

util::WireReader FrameView::body(const util::WireLimits& limits) const {
  util::WireReader r(payload.data(), payload.size(), limits);
  MsgType t;
  std::uint32_t id = 0;
  read_prologue(r, &t, &id);  // cannot fail: FrameView was built from it
  return r;
}

XtalkClient::XtalkClient(util::Socket sock, util::WireLimits limits)
    : sock_(std::move(sock)), limits_(limits) {}

XtalkClient XtalkClient::connect_unix(const std::string& path,
                                      util::WireLimits limits) {
  try {
    return XtalkClient(util::connect_unix(path), limits);
  } catch (const util::DiagError& e) {
    throw_transport(TransportFailure::kConnectRefused, e.diagnostic().message);
  }
}

XtalkClient XtalkClient::connect_tcp(std::uint16_t port,
                                     util::WireLimits limits) {
  try {
    return XtalkClient(util::connect_tcp_loopback(port), limits);
  } catch (const util::DiagError& e) {
    throw_transport(TransportFailure::kConnectRefused, e.diagnostic().message);
  }
}

void XtalkClient::send_raw(const std::vector<std::uint8_t>& bytes) {
  try {
    sock_.send_all(bytes.data(), bytes.size());
  } catch (const util::DiagError& e) {
    throw_transport(TransportFailure::kConnectionLost, e.diagnostic().message);
  }
}

void XtalkClient::send_frame(MsgType type, std::uint32_t request_id,
                             const util::WireWriter& body) {
  send_raw(make_frame(type, request_id, body));
}

FrameView XtalkClient::recv_frame() {
  std::uint8_t header[kFrameHeaderBytes];
  std::string error;
  switch (sock_.recv_exact_deadline(header, sizeof header, read_timeout_ms_,
                                    &error)) {
    case util::RecvOutcome::kOk:
      break;
    case util::RecvOutcome::kTimeout:
      throw_transport(TransportFailure::kTimeout,
                      "no response header within " +
                          std::to_string(read_timeout_ms_) + " ms");
    case util::RecvOutcome::kClosed:
    case util::RecvOutcome::kError:
      throw_transport(TransportFailure::kConnectionLost, error);
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  if (len > limits_.max_frame_bytes) {
    throw_transport(TransportFailure::kProtocol,
                    "response frame length " + std::to_string(len) +
                        " exceeds limit");
  }
  FrameView frame;
  frame.payload.resize(len);
  if (len > 0) {
    switch (sock_.recv_exact_deadline(frame.payload.data(), len,
                                      read_timeout_ms_, &error)) {
      case util::RecvOutcome::kOk:
        break;
      case util::RecvOutcome::kTimeout:
        throw_transport(TransportFailure::kTimeout,
                        "response payload stalled past " +
                            std::to_string(read_timeout_ms_) + " ms");
      case util::RecvOutcome::kClosed:
      case util::RecvOutcome::kError:
        throw_transport(TransportFailure::kConnectionLost, error);
    }
  }
  util::WireReader r(frame.payload.data(), frame.payload.size(), limits_);
  if (!read_prologue(r, &frame.type, &frame.request_id)) {
    throw_transport(TransportFailure::kProtocol,
                    "unparseable response prologue: " + r.error());
  }
  return frame;
}

FrameView XtalkClient::transact(MsgType request, const util::WireWriter& body,
                                MsgType expected_response) {
  const std::uint32_t id = next_request_id_++;
  send_frame(request, id, body);
  FrameView frame = recv_frame();
  if (frame.request_id != id) {
    throw_transport(TransportFailure::kProtocol,
                    "response id " + std::to_string(frame.request_id) +
                        " does not match request id " + std::to_string(id));
  }
  if (frame.type == MsgType::kError) {
    util::WireReader r = frame.body(limits_);
    ErrorMsg err;
    if (!err.decode(r)) {
      throw_transport(TransportFailure::kProtocol,
                      "undecodable error response: " + r.error());
    }
    throw ServiceError(err.code, err.message);
  }
  if (frame.type != expected_response) {
    throw_transport(TransportFailure::kProtocol,
                    std::string("unexpected response type ") +
                        msg_type_name(frame.type) + " (wanted " +
                        msg_type_name(expected_response) + ")");
  }
  return frame;
}

namespace {

/// Decode a typed response body or throw (the server encoded it, so a
/// failure here is a client/server version mismatch, not peer hostility).
template <typename Msg>
Msg decode_body(const FrameView& frame, const util::WireLimits& limits) {
  util::WireReader r = frame.body(limits);
  Msg m;
  if (!m.decode(r) || !r.finish()) {
    throw_transport(TransportFailure::kProtocol,
                    "undecodable response body: " + r.error());
  }
  return m;
}

}  // namespace

HelloOkMsg XtalkClient::hello() {
  HelloMsg msg;
  util::WireWriter body;
  msg.encode(body);
  return decode_body<HelloOkMsg>(
      transact(MsgType::kHello, body, MsgType::kHelloOk), limits_);
}

void XtalkClient::ping() {
  transact(MsgType::kPing, util::WireWriter{}, MsgType::kPong);
}

RunResultMsg XtalkClient::run_sta(const RunSpec& spec) {
  util::WireWriter body;
  spec.encode(body);
  return decode_body<RunResultMsg>(
      transact(MsgType::kRunSta, body, MsgType::kRunResult), limits_);
}

EndpointsMsg XtalkClient::query_endpoints(const RunSpec& spec) {
  util::WireWriter body;
  spec.encode(body);
  return decode_body<EndpointsMsg>(
      transact(MsgType::kQueryEndpoints, body, MsgType::kEndpoints), limits_);
}

SlackMsg XtalkClient::query_slack(const SlackQueryMsg& query) {
  util::WireWriter body;
  query.encode(body);
  return decode_body<SlackMsg>(
      transact(MsgType::kQuerySlack, body, MsgType::kSlack), limits_);
}

HealthMsg XtalkClient::health() {
  return decode_body<HealthMsg>(
      transact(MsgType::kHealth, util::WireWriter{}, MsgType::kHealthOk),
      limits_);
}

EcoOpenedMsg XtalkClient::eco_open(const RunSpec& spec) {
  util::WireWriter body;
  spec.encode(body);
  return decode_body<EcoOpenedMsg>(
      transact(MsgType::kEcoOpen, body, MsgType::kEcoOpened), limits_);
}

std::uint32_t XtalkClient::eco_edit(std::uint32_t session_id,
                                    const std::vector<EcoOp>& ops) {
  EcoEditMsg msg;
  msg.session_id = session_id;
  msg.ops = ops;
  util::WireWriter body;
  msg.encode(body);
  FrameView frame = transact(MsgType::kEcoEdit, body, MsgType::kEcoEditOk);
  util::WireReader r = frame.body(limits_);
  std::uint32_t applied = 0;
  if (!r.u32(&applied) || !r.finish()) {
    throw_transport(TransportFailure::kProtocol,
                    "undecodable EcoEditOk body: " + r.error());
  }
  return applied;
}

RunResultMsg XtalkClient::eco_run(std::uint32_t session_id) {
  util::WireWriter body;
  body.u32(session_id);
  return decode_body<RunResultMsg>(
      transact(MsgType::kEcoRun, body, MsgType::kRunResult), limits_);
}

void XtalkClient::eco_close(std::uint32_t session_id) {
  util::WireWriter body;
  body.u32(session_id);
  transact(MsgType::kEcoClose, body, MsgType::kEcoClosed);
}

StatsMsg XtalkClient::stats() {
  return decode_body<StatsMsg>(
      transact(MsgType::kGetStats, util::WireWriter{}, MsgType::kStats),
      limits_);
}

void XtalkClient::shutdown_server() {
  transact(MsgType::kShutdown, util::WireWriter{}, MsgType::kShutdownOk);
}

}  // namespace xtalk::service
