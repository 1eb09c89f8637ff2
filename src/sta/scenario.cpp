#include "sta/scenario.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace xtalk::sta {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

void validate_scenario(const Scenario& s) {
  if (s.name.empty()) {
    throw std::invalid_argument("Scenario::name must be non-empty");
  }
  if (!(s.vdd_scale > 0.0) || !std::isfinite(s.vdd_scale)) {
    throw std::invalid_argument("Scenario::vdd_scale must be finite and > 0");
  }
  if (!std::isfinite(s.temperature_c)) {
    throw std::invalid_argument("Scenario::temperature_c must be finite");
  }
  if (!(s.coupling_derate >= 0.0) || !std::isfinite(s.coupling_derate)) {
    throw std::invalid_argument(
        "Scenario::coupling_derate must be finite and >= 0");
  }
}

CornerKey corner_key(const Scenario& s) {
  return CornerKey{s.process, double_bits(s.vdd_scale),
                   double_bits(s.temperature_c)};
}

std::shared_ptr<const ScenarioContext> ScenarioContext::make(
    const DesignView& base, const Scenario& s, bool need_nldm) {
  auto ctx = std::shared_ptr<ScenarioContext>(new ScenarioContext());
  const device::Technology& base_tech = base.tables->tech();
  if (s.process == device::ProcessCorner::kTypical && s.vdd_scale == 1.0 &&
      s.temperature_c == base_tech.temperature_c) {
    // Identity corner: borrow the base model so the nominal scenario is
    // bitwise a plain run (including a null nldm falling back to the
    // shared half-micron characterization).
    ctx->tables_ = base.tables;
    ctx->nldm_ = base.nldm;
    return ctx;
  }
  ctx->tech_ = std::make_unique<device::Technology>(
      base_tech.scaled(s.process, s.vdd_scale, s.temperature_c));
  ctx->owned_tables_ = std::make_unique<device::DeviceTableSet>(*ctx->tech_);
  ctx->tables_ = ctx->owned_tables_.get();
  if (need_nldm) {
    const delaycalc::NldmOptions grid =
        base.nldm != nullptr ? base.nldm->options() : delaycalc::NldmOptions{};
    ctx->owned_nldm_ =
        std::make_unique<delaycalc::NldmLibrary>(delaycalc::NldmLibrary::characterize(
            base.netlist->library(), *ctx->owned_tables_, grid));
    ctx->nldm_ = ctx->owned_nldm_.get();
  }
  return ctx;
}

DesignView ScenarioContext::view(const DesignView& base) const {
  DesignView v = base;
  v.tables = tables_;
  v.nldm = nldm_;
  return v;
}

StaOptions apply_scenario(const StaOptions& base, const Scenario& s) {
  StaOptions opt = base;
  if (s.override_mode) opt.mode = s.mode;
  opt.coupling_derate = s.coupling_derate;
  return opt;
}

}  // namespace xtalk::sta
