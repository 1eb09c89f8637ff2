// The receiving side's decode of one protocol frame payload
// ([type][request_id][body]), shared by the fuzz_protocol harness and the
// tier-1 check that every seed of corpus/protocol decodes under the current
// protocol version.
#pragma once

#include <cstddef>
#include <cstdint>

#include "service/protocol.hpp"
#include "util/wire.hpp"

namespace xtalk::service::fuzz {

/// Tight limits keep a hostile length prefix from turning into a giant
/// allocation; the production server applies the same caps per frame.
inline util::WireLimits protocol_fuzz_limits() {
  util::WireLimits limits;
  limits.max_frame_bytes = 1u << 20;
  limits.max_string_bytes = 1u << 16;
  limits.max_array_items = 1u << 16;
  return limits;
}

/// Decode the body the way the receiving side would, by prologue type.
/// Request types take the server's path, response types the client's; both
/// must be total over arbitrary bytes. True iff the body decoded and
/// finish() found no trailing bytes.
inline bool decode_body(MsgType type, util::WireReader& r) {
  switch (type) {
    case MsgType::kHello: {
      // Server rule: an empty body is a legacy v1 hello, otherwise decode.
      if (r.remaining() == 0) return true;
      HelloMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kRunSta:
    case MsgType::kQueryEndpoints:
    case MsgType::kEcoOpen: {
      RunSpec m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kQuerySlack: {
      SlackQueryMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kEcoEdit: {
      EcoEditMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kEcoRun:
    case MsgType::kEcoClose:
    case MsgType::kEcoOpened:
    case MsgType::kEcoEditOk: {
      std::uint32_t v = 0;
      return r.u32(&v) && r.finish();
    }
    case MsgType::kHelloOk: {
      HelloOkMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kRunResult: {
      RunResultMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kEndpoints: {
      EndpointsMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kSlack: {
      SlackMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kStats: {
      StatsMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kHealthOk: {
      HealthMsg m;
      return m.decode(r) && r.finish();
    }
    case MsgType::kError: {
      ErrorMsg m;
      return m.decode(r) && r.finish();
    }
    default:
      // Prologue-valid types with empty bodies (ping, shutdown, stats
      // request, health, acks): the finish() check is the whole decode.
      return r.finish();
  }
}

/// Prologue plus body of one payload; true iff both decode completely.
inline bool decode_payload(const std::uint8_t* data, std::size_t size) {
  util::WireReader r(data, size, protocol_fuzz_limits());
  MsgType type = MsgType::kError;
  std::uint32_t request_id = 0;
  return read_prologue(r, &type, &request_id) && decode_body(type, r);
}

}  // namespace xtalk::service::fuzz
