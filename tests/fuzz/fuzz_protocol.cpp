// libFuzzer harness for the service wire protocol: one input is one frame
// payload ([type][request_id][body]), fed through the exact decode paths the
// server runs on request payloads and the client runs on response payloads
// (protocol_decode.hpp). Contract: any byte sequence either decodes or fails
// recoverably (decode() returns false, the WireReader goes sticky-poisoned) —
// never an exception, never a sanitizer report, never unbounded allocation
// (the limits cap every length-prefixed field).
#include <cstdint>

#include "protocol_decode.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)xtalk::service::fuzz::decode_payload(data, size);
  return 0;
}
