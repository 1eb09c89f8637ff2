// Request/response protocol of the analysis service (DESIGN.md §13).
//
// Transport framing: every message is one frame — a 4-byte little-endian
// payload length followed by the payload; the payload starts with
// [u8 MsgType][u32 request_id] and continues with the type-specific body
// encoded by util::WireWriter. request_id is chosen by the client and
// echoed verbatim on the response, so a client may pipeline requests on one
// connection (the server still executes them in order — ECO edits are
// order-dependent).
//
// Determinism: every double crosses the wire as its IEEE-754 bit pattern
// (util::wire f64), so a RunResultMsg decoded by the client is *bitwise*
// the StaResult summary the engine produced — the acceptance invariant
// "service result == one-shot CLI run" is checked down to the last ulp.
//
// Error handling: a malformed body never tears down the connection. The
// decoder's recoverable sticky error (util::WireReader) is surfaced as an
// ErrorMsg response (kMalformedFrame) and the connection keeps serving;
// only an unparseable *frame header* (oversized length) forces a close,
// since byte-stream resynchronization is impossible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sta/engine.hpp"
#include "sta/scenario.hpp"
#include "util/wire.hpp"

namespace xtalk::service {

/// v5: RunSpec and RunResultMsg dropped their scheduler byte. v6: RunSpec
/// and SlackQueryMsg carry one scenario encoding, which gained the mode
/// override and the process corner. v7: the durable-session surface is
/// gone: the eco-resume request and reply, the eco_open token, the edit
/// batch sequence number and the durability counters of stats and health.
/// v8: one soft budget: RunSpec dropped its budget-policy byte and
/// RunResultMsg its always-true `conservative` flag; the budget-reason
/// byte lost the two memory reasons (deadline 1, calcs 2, cancelled 3).
/// v9: RunSpec dropped its metrics flag and its trace-file path, and
/// RunResultMsg the path echo: the service neither returns metrics nor
/// writes files.
inline constexpr std::uint32_t kProtocolVersion = 9;
/// Frame header size on the socket (payload length prefix).
inline constexpr std::size_t kFrameHeaderBytes = 4;

enum class MsgType : std::uint8_t {
  // Requests.
  kHello = 1,
  kPing = 2,
  kRunSta = 3,          ///< full analysis run (RunSpec body)
  kQueryEndpoints = 4,  ///< all endpoint arrivals of the cached baseline
  kQuerySlack = 5,      ///< one endpoint's arrival/slack (what-if cheap read)
  kEcoOpen = 6,         ///< open an incremental ECO session (RunSpec body)
  kEcoEdit = 7,         ///< apply a batch of edits to a session
  kEcoRun = 8,          ///< incremental re-timing of a session
  kEcoClose = 9,
  kGetStats = 10,
  kShutdown = 11,       ///< begin drain; listener closes first
  kHealth = 12,         ///< cheap load probe (answered on the event loop)
  // 13 (v3–v6 eco-resume) is retired and stays unassigned.

  // Responses.
  kHelloOk = 64,
  kPong = 65,
  kRunResult = 66,
  kEndpoints = 67,
  kSlack = 68,
  kEcoOpened = 69,
  kEcoEditOk = 70,
  kEcoClosed = 71,
  kStats = 72,
  kShutdownOk = 73,
  kHealthOk = 74,
  // 75 (v3–v6 eco-resumed) is retired and stays unassigned.
  kError = 127,
};

const char* msg_type_name(MsgType t);

/// Protocol-level error classes (ErrorMsg::code). Append only.
enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 0,  ///< body failed to decode (reader's sticky error)
  kUnknownType = 1,     ///< MsgType outside the request range
  kBadRequest = 2,      ///< decoded fine, semantically invalid
  kUnknownSession = 3,  ///< ECO session id not open on this connection
  kEditRejected = 4,    ///< DesignEditor refused the edit (e.g. cycle)
  kShuttingDown = 5,    ///< server is draining; no new work admitted
  kInternal = 6,        ///< unexpected exception while serving
  kVersionMismatch = 7,  ///< hello carried an unsupported protocol version
};

const char* error_code_name(ErrorCode code);

// ---------------------------------------------------------------------------
// Request bodies
// ---------------------------------------------------------------------------

/// Hello carries the client's wire version so the server can reject a
/// mismatched client with a typed kVersionMismatch error instead of
/// misdecoding its frames. Version 1 clients sent an empty hello body; the
/// server treats that as version 1 (still rejected, but with a clean error).
struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

/// The numeric identity of an analysis request: every StaOptions field that
/// can change a computed value.
/// num_threads is deliberately absent: results are thread-count invariant
/// and the executor's long-lived pool decides the width.
struct RunSpec {
  sta::AnalysisMode mode = sta::AnalysisMode::kOneStep;
  sta::DelayModel delay_model = sta::DelayModel::kTransistorLevel;
  double input_slew = 0.2e-9;
  double convergence_eps = 0.1e-12;
  std::int32_t max_passes = 10;
  bool esperance = false;
  double esperance_window = 1.0e-9;
  bool timing_windows = false;
  double early_sharp_slew = 20e-12;
  bool early_aiding_assist = true;
  util::FaultPolicy fault_policy = util::FaultPolicy::kDegrade;
  /// Per-request budget; zeros = server default. Admission may clamp it
  /// further under overload (anytime truncation, never an error).
  double deadline_ms = 0.0;
  std::uint64_t max_waveform_calcs = 0;
  /// The analysis scenario: corner (process, V/T) the session derives its
  /// device model for, coupling derate, optional mode override, and the
  /// name reports use. The default is the nominal scenario.
  sta::Scenario scenario;

  /// Materialize as engine options: apply_scenario over the spec's base
  /// options (pool/num_threads left to the caller; the corner lives in the
  /// session's per-corner context, not in StaOptions).
  sta::StaOptions to_options() const;
  /// Cache key for baseline result sharing: the encoded numeric fields of
  /// the effective spec — the mode override folded into `mode` and
  /// cleared — so two specs naming one analysis memoize once.
  std::string cache_key() const;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

/// One ECO edit operation (mirrors the DesignEditor API).
struct EcoOp {
  enum class Kind : std::uint8_t {
    kResizeGate = 0,      ///< gate, factor
    kSetWireCap = 1,      ///< net_a, cap
    kSetCoupling = 2,     ///< net_a, net_b, cap
    kRemoveCoupling = 3,  ///< net_a, net_b
    kSetWireRc = 4,       ///< net_a, gate, pin, resistance, cap
    kRetargetSink = 5,    ///< gate, pin, net_a (new net), resistance, cap
  };
  Kind kind = Kind::kResizeGate;
  std::uint32_t gate = 0;
  std::uint32_t pin = 0;
  std::uint32_t net_a = 0;
  std::uint32_t net_b = 0;
  double value_a = 0.0;  ///< factor / cap / resistance
  double value_b = 0.0;  ///< cap of the RC ops

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

struct EcoEditMsg {
  std::uint32_t session_id = 0;
  std::vector<EcoOp> ops;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

struct SlackQueryMsg {
  RunSpec spec;             ///< which baseline to read (computed on demand)
  std::uint32_t net = 0;    ///< endpoint net
  bool rising = true;
  double required_time = 0.0;  ///< slack = required - arrival
  /// Scenarios to evaluate (v4): each replaces `spec.scenario`, and the
  /// response carries the minimum slack over all of them
  /// (worst-across-scenarios). Empty = just `spec`.
  std::vector<sta::Scenario> scenarios;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

// ---------------------------------------------------------------------------
// Response bodies
// ---------------------------------------------------------------------------

/// eco_open response: the per-connection session id. The session lives as
/// long as the connection that opened it.
struct EcoOpenedMsg {
  std::uint32_t session_id = 0;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

struct HelloOkMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string design_name;
  std::uint64_t num_gates = 0;
  std::uint64_t num_nets = 0;
  std::uint64_t num_levels = 0;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

struct WireEndpoint {
  std::uint32_t net = 0;
  bool rising = true;
  double arrival = 0.0;
};

struct WireDiagnostic {
  std::uint8_t code = 0;
  std::uint8_t severity = 0;
  std::int64_t gate = -1;
  std::int64_t net = -1;
  std::int32_t level = -1;
  std::int32_t pass = -1;
  std::string message;
};

/// The StaResult summary the service ships: everything a client needs to
/// reproduce reports and check the bitwise contract — scalar results, the
/// critical endpoint, *all* endpoint arrivals, the governor's anytime
/// status and diagnostics. Per-net waveforms stay server-side.
struct RunResultMsg {
  double longest_path_delay = 0.0;
  WireEndpoint critical;
  std::vector<WireEndpoint> endpoints;
  std::int32_t passes = 0;
  std::uint64_t waveform_calculations = 0;
  std::uint64_t gates_reused = 0;
  double runtime_seconds = 0.0;
  std::int32_t threads_used = 1;
  std::uint64_t missing_sink_wires = 0;
  // Budget / anytime status.
  bool budget_exhausted = false;
  std::uint8_t budget_reason = 0;
  std::int32_t completed_passes = 0;
  std::uint64_t completed_levels = 0;
  std::uint64_t total_levels = 0;
  std::uint64_t governor_checks = 0;
  std::vector<std::uint32_t> untimed_endpoints;
  // Diagnostics (deterministic order, possibly truncated by the sink cap).
  std::uint64_t diagnostics_dropped = 0;
  std::vector<WireDiagnostic> diagnostics;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);

  /// Summarize an engine result.
  static RunResultMsg from_result(const sta::StaResult& result);
};

struct EndpointsMsg {
  double longest_path_delay = 0.0;
  WireEndpoint critical;
  std::vector<WireEndpoint> endpoints;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

struct SlackMsg {
  bool valid = false;  ///< endpoint exists in the baseline
  double arrival = 0.0;  ///< of the worst scenario
  double slack = 0.0;    ///< minimum over the queried scenarios
  /// Name of the scenario owning the minimum slack (v4): the name of the
  /// spec's scenario on a single-scenario query; first-wins on exact ties.
  std::string worst_scenario;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

/// Server-side counters (kGetStats). All totals since start().
struct StatsMsg {
  std::uint64_t requests_total = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_error = 0;
  std::uint64_t requests_truncated = 0;
  std::uint64_t requests_degraded_admission = 0;
  std::uint64_t eco_sessions_open = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t queue_peak = 0;
  double uptime_seconds = 0.0;
  /// ECO sessions destroyed because their connection died (vs. client
  /// kEcoClose). A growing value under chaos is expected; a growing value
  /// in production means clients are leaking sessions.
  std::uint64_t eco_sessions_reaped = 0;
  std::uint64_t connections_evicted = 0;  ///< stall/backpressure evictions

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

/// Load-shedding probe (kHealth → kHealthOk). Served directly from the
/// event loop without touching an executor, so it stays responsive even
/// when every worker is busy — exactly what an LB health check needs.
struct HealthMsg {
  bool accepting = true;  ///< false once drain started
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint64_t connections = 0;
  std::uint64_t queue_depth = 0;       ///< queued + in-flight requests
  std::uint64_t soft_queue_limit = 0;  ///< admission clamp threshold
  bool clamping = false;               ///< queue_depth ≥ soft_queue_limit
  std::uint64_t eco_sessions_open = 0;
  std::uint64_t outbox_bytes = 0;  ///< responses buffered for slow readers

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  void encode(util::WireWriter& w) const;
  bool decode(util::WireReader& r);
};

// ---------------------------------------------------------------------------
// Framing helpers
// ---------------------------------------------------------------------------

/// Serialize a complete frame: length prefix + [type][request_id][body].
std::vector<std::uint8_t> make_frame(MsgType type, std::uint32_t request_id,
                                     const util::WireWriter& body);

/// Parse the payload prologue ([type][request_id]) and leave `r` positioned
/// at the body. Returns false (reader poisoned) on a bad type byte.
bool read_prologue(util::WireReader& r, MsgType* type,
                   std::uint32_t* request_id);

}  // namespace xtalk::service
