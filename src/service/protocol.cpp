#include "service/protocol.hpp"

#include <utility>

namespace xtalk::service {

namespace {

/// Highest valid enum values for range-checked decodes.
constexpr std::uint8_t kNumAnalysisModes = 5;
constexpr std::uint8_t kNumDelayModels = 2;
constexpr std::uint8_t kNumFaultPolicies = 2;
constexpr std::uint8_t kNumEcoOps = 6;
constexpr std::uint8_t kNumErrorCodes = 8;
constexpr std::uint8_t kNumProcessCorners = 3;

/// The one wire encoding of sta::Scenario, shared by RunSpec and
/// SlackQueryMsg. The v5 fields come first; v6 appended override_mode, mode
/// and process.
void encode_scenario(util::WireWriter& w, const sta::Scenario& s) {
  w.str(s.name);
  w.f64(s.vdd_scale);
  w.f64(s.temperature_c);
  w.f64(s.coupling_derate);
  w.boolean(s.override_mode);
  w.u8(static_cast<std::uint8_t>(s.mode));
  w.u8(static_cast<std::uint8_t>(s.process));
}

bool decode_scenario(util::WireReader& r, sta::Scenario* s) {
  if (!r.str(&s->name)) return false;
  if (!r.f64(&s->vdd_scale)) return false;
  if (!r.f64(&s->temperature_c)) return false;
  if (!r.f64(&s->coupling_derate)) return false;
  if (!r.boolean(&s->override_mode)) return false;
  std::uint8_t v;
  if (!r.enum8(&v, kNumAnalysisModes)) return false;
  s->mode = static_cast<sta::AnalysisMode>(v);
  if (!r.enum8(&v, kNumProcessCorners)) return false;
  s->process = static_cast<device::ProcessCorner>(v);
  return true;
}

/// Smallest encode_scenario output: empty name (u32 length), three f64s,
/// the override flag and two enum bytes.
constexpr std::size_t kMinScenarioBytes = 4 + 3 * 8 + 3;

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kPing: return "ping";
    case MsgType::kRunSta: return "run-sta";
    case MsgType::kQueryEndpoints: return "query-endpoints";
    case MsgType::kQuerySlack: return "query-slack";
    case MsgType::kEcoOpen: return "eco-open";
    case MsgType::kEcoEdit: return "eco-edit";
    case MsgType::kEcoRun: return "eco-run";
    case MsgType::kEcoClose: return "eco-close";
    case MsgType::kGetStats: return "get-stats";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHealth: return "health";
    case MsgType::kHelloOk: return "hello-ok";
    case MsgType::kPong: return "pong";
    case MsgType::kRunResult: return "run-result";
    case MsgType::kEndpoints: return "endpoints";
    case MsgType::kSlack: return "slack";
    case MsgType::kEcoOpened: return "eco-opened";
    case MsgType::kEcoEditOk: return "eco-edit-ok";
    case MsgType::kEcoClosed: return "eco-closed";
    case MsgType::kStats: return "stats";
    case MsgType::kShutdownOk: return "shutdown-ok";
    case MsgType::kHealthOk: return "health-ok";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownSession: return "unknown-session";
    case ErrorCode::kEditRejected: return "edit-rejected";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kVersionMismatch: return "version-mismatch";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// HelloMsg
// ---------------------------------------------------------------------------

void HelloMsg::encode(util::WireWriter& w) const { w.u32(protocol_version); }

bool HelloMsg::decode(util::WireReader& r) { return r.u32(&protocol_version); }

// ---------------------------------------------------------------------------
// RunSpec
// ---------------------------------------------------------------------------

sta::StaOptions RunSpec::to_options() const {
  sta::StaOptions o;
  o.mode = mode;
  o.delay_model = delay_model;
  o.input_slew = input_slew;
  o.convergence_eps = convergence_eps;
  o.max_passes = max_passes;
  o.esperance = esperance;
  o.esperance_window = esperance_window;
  o.timing_windows = timing_windows;
  o.early.sharp_slew = early_sharp_slew;
  o.early.aiding_coupling_assist = early_aiding_assist;
  o.fault_policy = fault_policy;
  o.budget.deadline_ms = deadline_ms;
  o.budget.max_waveform_calcs = static_cast<std::size_t>(max_waveform_calcs);
  return sta::apply_scenario(o, scenario);
}

std::string RunSpec::cache_key() const {
  RunSpec numeric = *this;
  if (numeric.scenario.override_mode) numeric.mode = numeric.scenario.mode;
  numeric.scenario.override_mode = false;
  numeric.scenario.mode = sta::Scenario{}.mode;
  util::WireWriter w;
  numeric.encode(w);
  return std::string(reinterpret_cast<const char*>(w.data().data()),
                     w.data().size());
}

void RunSpec::encode(util::WireWriter& w) const {
  w.u8(static_cast<std::uint8_t>(mode));
  w.u8(static_cast<std::uint8_t>(delay_model));
  w.f64(input_slew);
  w.f64(convergence_eps);
  w.i32(max_passes);
  w.boolean(esperance);
  w.f64(esperance_window);
  w.boolean(timing_windows);
  w.f64(early_sharp_slew);
  w.boolean(early_aiding_assist);
  w.u8(static_cast<std::uint8_t>(fault_policy));
  w.f64(deadline_ms);
  w.u64(max_waveform_calcs);
  encode_scenario(w, scenario);
}

bool RunSpec::decode(util::WireReader& r) {
  std::uint8_t v;
  if (!r.enum8(&v, kNumAnalysisModes)) return false;
  mode = static_cast<sta::AnalysisMode>(v);
  if (!r.enum8(&v, kNumDelayModels)) return false;
  delay_model = static_cast<sta::DelayModel>(v);
  if (!r.f64(&input_slew)) return false;
  if (!r.f64(&convergence_eps)) return false;
  if (!r.i32(&max_passes)) return false;
  if (!r.boolean(&esperance)) return false;
  if (!r.f64(&esperance_window)) return false;
  if (!r.boolean(&timing_windows)) return false;
  if (!r.f64(&early_sharp_slew)) return false;
  if (!r.boolean(&early_aiding_assist)) return false;
  if (!r.enum8(&v, kNumFaultPolicies)) return false;
  fault_policy = static_cast<util::FaultPolicy>(v);
  if (!r.f64(&deadline_ms)) return false;
  if (!r.u64(&max_waveform_calcs)) return false;
  return decode_scenario(r, &scenario);
}

// ---------------------------------------------------------------------------
// EcoOp / EcoEditMsg
// ---------------------------------------------------------------------------

void EcoOp::encode(util::WireWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(gate);
  w.u32(pin);
  w.u32(net_a);
  w.u32(net_b);
  w.f64(value_a);
  w.f64(value_b);
}

bool EcoOp::decode(util::WireReader& r) {
  std::uint8_t v;
  if (!r.enum8(&v, kNumEcoOps)) return false;
  kind = static_cast<Kind>(v);
  if (!r.u32(&gate)) return false;
  if (!r.u32(&pin)) return false;
  if (!r.u32(&net_a)) return false;
  if (!r.u32(&net_b)) return false;
  if (!r.f64(&value_a)) return false;
  return r.f64(&value_b);
}

void EcoEditMsg::encode(util::WireWriter& w) const {
  w.u32(session_id);
  w.array(ops.size());
  for (const EcoOp& op : ops) op.encode(w);
}

bool EcoEditMsg::decode(util::WireReader& r) {
  if (!r.u32(&session_id)) return false;
  std::uint32_t n;
  if (!r.array(&n, /*min_item_bytes=*/33)) return false;
  ops.resize(n);
  for (EcoOp& op : ops) {
    if (!op.decode(r)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SlackQueryMsg
// ---------------------------------------------------------------------------

void SlackQueryMsg::encode(util::WireWriter& w) const {
  spec.encode(w);
  w.u32(net);
  w.boolean(rising);
  w.f64(required_time);
  w.array(scenarios.size());
  for (const sta::Scenario& s : scenarios) encode_scenario(w, s);
}

bool SlackQueryMsg::decode(util::WireReader& r) {
  if (!spec.decode(r)) return false;
  if (!r.u32(&net)) return false;
  if (!r.boolean(&rising)) return false;
  if (!r.f64(&required_time)) return false;
  std::uint32_t n;
  if (!r.array(&n, kMinScenarioBytes)) return false;
  scenarios.resize(n);
  for (sta::Scenario& s : scenarios) {
    if (!decode_scenario(r, &s)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void EcoOpenedMsg::encode(util::WireWriter& w) const { w.u32(session_id); }

bool EcoOpenedMsg::decode(util::WireReader& r) { return r.u32(&session_id); }

void HelloOkMsg::encode(util::WireWriter& w) const {
  w.u32(protocol_version);
  w.str(design_name);
  w.u64(num_gates);
  w.u64(num_nets);
  w.u64(num_levels);
}

bool HelloOkMsg::decode(util::WireReader& r) {
  if (!r.u32(&protocol_version)) return false;
  if (!r.str(&design_name)) return false;
  if (!r.u64(&num_gates)) return false;
  if (!r.u64(&num_nets)) return false;
  return r.u64(&num_levels);
}

namespace {

void encode_endpoint(util::WireWriter& w, const WireEndpoint& e) {
  w.u32(e.net);
  w.boolean(e.rising);
  w.f64(e.arrival);
}

bool decode_endpoint(util::WireReader& r, WireEndpoint* e) {
  if (!r.u32(&e->net)) return false;
  if (!r.boolean(&e->rising)) return false;
  return r.f64(&e->arrival);
}

void encode_endpoints(util::WireWriter& w,
                      const std::vector<WireEndpoint>& eps) {
  w.array(eps.size());
  for (const WireEndpoint& e : eps) encode_endpoint(w, e);
}

bool decode_endpoints(util::WireReader& r, std::vector<WireEndpoint>* eps) {
  std::uint32_t n;
  if (!r.array(&n, /*min_item_bytes=*/13)) return false;
  eps->resize(n);
  for (WireEndpoint& e : *eps) {
    if (!decode_endpoint(r, &e)) return false;
  }
  return true;
}

}  // namespace

void RunResultMsg::encode(util::WireWriter& w) const {
  w.f64(longest_path_delay);
  encode_endpoint(w, critical);
  encode_endpoints(w, endpoints);
  w.i32(passes);
  w.u64(waveform_calculations);
  w.u64(gates_reused);
  w.f64(runtime_seconds);
  w.i32(threads_used);
  w.u64(missing_sink_wires);
  w.boolean(budget_exhausted);
  w.u8(budget_reason);
  w.i32(completed_passes);
  w.u64(completed_levels);
  w.u64(total_levels);
  w.u64(governor_checks);
  w.array(untimed_endpoints.size());
  for (const std::uint32_t n : untimed_endpoints) w.u32(n);
  w.u64(diagnostics_dropped);
  w.array(diagnostics.size());
  for (const WireDiagnostic& d : diagnostics) {
    w.u8(d.code);
    w.u8(d.severity);
    w.i64(d.gate);
    w.i64(d.net);
    w.i32(d.level);
    w.i32(d.pass);
    w.str(d.message);
  }
}

bool RunResultMsg::decode(util::WireReader& r) {
  if (!r.f64(&longest_path_delay)) return false;
  if (!decode_endpoint(r, &critical)) return false;
  if (!decode_endpoints(r, &endpoints)) return false;
  if (!r.i32(&passes)) return false;
  if (!r.u64(&waveform_calculations)) return false;
  if (!r.u64(&gates_reused)) return false;
  if (!r.f64(&runtime_seconds)) return false;
  if (!r.i32(&threads_used)) return false;
  if (!r.u64(&missing_sink_wires)) return false;
  if (!r.boolean(&budget_exhausted)) return false;
  if (!r.u8(&budget_reason)) return false;
  if (!r.i32(&completed_passes)) return false;
  if (!r.u64(&completed_levels)) return false;
  if (!r.u64(&total_levels)) return false;
  if (!r.u64(&governor_checks)) return false;
  std::uint32_t n;
  if (!r.array(&n, /*min_item_bytes=*/4)) return false;
  untimed_endpoints.resize(n);
  for (std::uint32_t& net : untimed_endpoints) {
    if (!r.u32(&net)) return false;
  }
  if (!r.u64(&diagnostics_dropped)) return false;
  if (!r.array(&n, /*min_item_bytes=*/30)) return false;
  diagnostics.resize(n);
  for (WireDiagnostic& d : diagnostics) {
    if (!r.u8(&d.code)) return false;
    if (!r.u8(&d.severity)) return false;
    if (!r.i64(&d.gate)) return false;
    if (!r.i64(&d.net)) return false;
    if (!r.i32(&d.level)) return false;
    if (!r.i32(&d.pass)) return false;
    if (!r.str(&d.message)) return false;
  }
  return true;
}

RunResultMsg RunResultMsg::from_result(const sta::StaResult& result) {
  RunResultMsg m;
  m.longest_path_delay = result.longest_path_delay;
  m.critical = {result.critical.net, result.critical.rising,
                result.critical.arrival};
  m.endpoints.reserve(result.endpoints.size());
  for (const sta::EndpointArrival& e : result.endpoints) {
    m.endpoints.push_back({e.net, e.rising, e.arrival});
  }
  m.passes = result.passes;
  m.waveform_calculations = result.waveform_calculations;
  m.gates_reused = result.gates_reused;
  m.runtime_seconds = result.runtime_seconds;
  m.threads_used = result.threads_used;
  m.missing_sink_wires = result.missing_sink_wires;
  m.budget_exhausted = result.budget.exhausted;
  m.budget_reason = static_cast<std::uint8_t>(result.budget.reason);
  m.completed_passes = result.budget.completed_passes;
  m.completed_levels = result.budget.completed_levels;
  m.total_levels = result.budget.total_levels;
  m.governor_checks = result.budget.governor_checks;
  m.untimed_endpoints.assign(result.budget.untimed_endpoints.begin(),
                             result.budget.untimed_endpoints.end());
  m.diagnostics_dropped = result.diagnostics.dropped;
  m.diagnostics.reserve(result.diagnostics.entries.size());
  for (const util::Diagnostic& d : result.diagnostics.entries) {
    WireDiagnostic wd;
    wd.code = static_cast<std::uint8_t>(d.code);
    wd.severity = static_cast<std::uint8_t>(d.severity);
    wd.gate = d.ctx.gate;
    wd.net = d.ctx.net;
    wd.level = d.ctx.level;
    wd.pass = d.ctx.pass;
    wd.message = d.message;
    m.diagnostics.push_back(std::move(wd));
  }
  return m;
}

void EndpointsMsg::encode(util::WireWriter& w) const {
  w.f64(longest_path_delay);
  encode_endpoint(w, critical);
  encode_endpoints(w, endpoints);
}

bool EndpointsMsg::decode(util::WireReader& r) {
  if (!r.f64(&longest_path_delay)) return false;
  if (!decode_endpoint(r, &critical)) return false;
  return decode_endpoints(r, &endpoints);
}

void SlackMsg::encode(util::WireWriter& w) const {
  w.boolean(valid);
  w.f64(arrival);
  w.f64(slack);
  w.str(worst_scenario);
}

bool SlackMsg::decode(util::WireReader& r) {
  if (!r.boolean(&valid)) return false;
  if (!r.f64(&arrival)) return false;
  if (!r.f64(&slack)) return false;
  return r.str(&worst_scenario);
}

void StatsMsg::encode(util::WireWriter& w) const {
  w.u64(requests_total);
  w.u64(requests_ok);
  w.u64(requests_error);
  w.u64(requests_truncated);
  w.u64(requests_degraded_admission);
  w.u64(eco_sessions_open);
  w.u64(connections_total);
  w.u64(bytes_in);
  w.u64(bytes_out);
  w.u64(queue_peak);
  w.f64(uptime_seconds);
  w.u64(eco_sessions_reaped);
  w.u64(connections_evicted);
}

bool StatsMsg::decode(util::WireReader& r) {
  if (!r.u64(&requests_total)) return false;
  if (!r.u64(&requests_ok)) return false;
  if (!r.u64(&requests_error)) return false;
  if (!r.u64(&requests_truncated)) return false;
  if (!r.u64(&requests_degraded_admission)) return false;
  if (!r.u64(&eco_sessions_open)) return false;
  if (!r.u64(&connections_total)) return false;
  if (!r.u64(&bytes_in)) return false;
  if (!r.u64(&bytes_out)) return false;
  if (!r.u64(&queue_peak)) return false;
  if (!r.f64(&uptime_seconds)) return false;
  if (!r.u64(&eco_sessions_reaped)) return false;
  return r.u64(&connections_evicted);
}

void HealthMsg::encode(util::WireWriter& w) const {
  w.boolean(accepting);
  w.u32(protocol_version);
  w.u64(connections);
  w.u64(queue_depth);
  w.u64(soft_queue_limit);
  w.boolean(clamping);
  w.u64(eco_sessions_open);
  w.u64(outbox_bytes);
}

bool HealthMsg::decode(util::WireReader& r) {
  if (!r.boolean(&accepting)) return false;
  if (!r.u32(&protocol_version)) return false;
  if (!r.u64(&connections)) return false;
  if (!r.u64(&queue_depth)) return false;
  if (!r.u64(&soft_queue_limit)) return false;
  if (!r.boolean(&clamping)) return false;
  if (!r.u64(&eco_sessions_open)) return false;
  return r.u64(&outbox_bytes);
}

void ErrorMsg::encode(util::WireWriter& w) const {
  w.u8(static_cast<std::uint8_t>(code));
  w.str(message);
}

bool ErrorMsg::decode(util::WireReader& r) {
  std::uint8_t v;
  if (!r.enum8(&v, kNumErrorCodes)) return false;
  code = static_cast<ErrorCode>(v);
  return r.str(&message);
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> make_frame(MsgType type, std::uint32_t request_id,
                                     const util::WireWriter& body) {
  util::WireWriter payload;
  payload.u8(static_cast<std::uint8_t>(type));
  payload.u32(request_id);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + body.size());
  const std::uint32_t len =
      static_cast<std::uint32_t>(payload.size() + body.size());
  frame.push_back(static_cast<std::uint8_t>(len));
  frame.push_back(static_cast<std::uint8_t>(len >> 8));
  frame.push_back(static_cast<std::uint8_t>(len >> 16));
  frame.push_back(static_cast<std::uint8_t>(len >> 24));
  frame.insert(frame.end(), payload.data().begin(), payload.data().end());
  frame.insert(frame.end(), body.data().begin(), body.data().end());
  return frame;
}

bool read_prologue(util::WireReader& r, MsgType* type,
                   std::uint32_t* request_id) {
  std::uint8_t t;
  if (!r.u8(&t)) return false;
  const bool request_range = t >= 1 && t <= 13;
  const bool response_range = (t >= 64 && t <= 75) || t == 127;
  if (!request_range && !response_range) {
    r.fail("unknown message type " + std::to_string(t));
    return false;
  }
  *type = static_cast<MsgType>(t);
  return r.u32(request_id);
}

}  // namespace xtalk::service
