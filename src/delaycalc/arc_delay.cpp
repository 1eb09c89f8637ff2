#include "delaycalc/arc_delay.hpp"

namespace xtalk::delaycalc {

const std::vector<StagePath>& ArcScratch::paths(const netlist::Cell& cell,
                                                std::size_t pin) {
  const auto key = std::make_pair(&cell, pin);
  auto it = paths_.find(key);
  if (it == paths_.end()) {
    it = paths_.emplace(key, enumerate_paths(cell, pin)).first;
  }
  return it->second;
}

const CollapsedStage& ArcScratch::collapsed(
    const netlist::Cell& cell, std::size_t stage_index, std::size_t input,
    const device::DeviceTableSet& tables) {
  const auto key = std::make_tuple(&cell, stage_index, input);
  auto it = collapsed_.find(key);
  if (it == collapsed_.end()) {
    const netlist::Stage& stage = cell.stages()[stage_index];
    it = collapsed_
             .emplace(key,
                      collapse_dc(stage, sensitize(stage, input), tables))
             .first;
  }
  return it->second;
}

std::vector<ArcResult> ArcDelayCalculator::compute(
    const netlist::Cell& cell, std::size_t input_pin, bool input_rising,
    const util::Pwl& input_waveform, const OutputLoad& load,
    const IntegrationOptions& options, ArcScratch* scratch,
    const util::DiagHandle* diag) const {
  return ArcEvaluation(*this, cell, input_pin, input_rising, input_waveform,
                       options, scratch, diag)
      .evaluate(load);
}

ArcEvaluation::ArcEvaluation(const ArcDelayCalculator& calc,
                             const netlist::Cell& cell, std::size_t input_pin,
                             bool input_rising, const util::Pwl& input_waveform,
                             const IntegrationOptions& options,
                             ArcScratch* scratch, const util::DiagHandle* diag)
    : calc_(&calc),
      cell_(&cell),
      pin_(input_pin),
      input_rising_(input_rising),
      input_(&input_waveform),
      options_(options),
      scratch_(scratch),
      diag_(diag) {
  if (scratch != nullptr) {
    paths_ = &scratch->paths(cell, input_pin);
  } else {
    local_paths_ = enumerate_paths(cell, input_pin);
    paths_ = &local_paths_;
  }
  prefixes_.resize(paths_->size());
}

namespace {

/// The drive and load of one stage hop. The output stage drives `load`;
/// an internal stage drives its topological node capacitance.
std::pair<StageDrive, OutputLoad> hop_setup(
    const netlist::Cell& cell, const StagePath::Hop& hop, bool input_rising,
    const util::Pwl& vin, const OutputLoad* load,
    const device::DeviceTableSet& tables, ArcScratch* scratch) {
  const device::Technology& tech = tables.tech();
  const netlist::Stage& stage = cell.stages()[hop.stage];
  CollapsedStage col;
  if (scratch != nullptr) {
    col = scratch->collapsed(cell, hop.stage, hop.input, tables);
  } else {
    col = collapse_dc(stage, sensitize(stage, hop.input), tables);
  }

  StageDrive drive;
  drive.wn_eq = col.wn_eq;
  drive.wp_eq = col.wp_eq;
  drive.vin = &vin;
  drive.output_rising = !input_rising;  // complementary stages invert

  OutputLoad stage_load;
  if (load != nullptr) {
    stage_load = *load;
    // The driver's own drain junctions load the output too.
    stage_load.c_passive += cell.output_parasitic_cap();
  } else {
    stage_load.c_passive = stage_output_cap(cell, hop.stage, tech);
    stage_load.c_active = 0.0;
  }
  // Internal stack nodes between the switching device and the output
  // swing with it — in the driving network (charged behind the switching
  // device) and in the opposing network (still connected to the output
  // through its ON side devices). The scalar collapse cannot see them, so
  // lump their junction cap onto the output.
  stage_load.c_passive +=
      swinging_internal_cap(stage, hop.input, drive.output_rising, tech) +
      swinging_internal_cap(stage, hop.input, !drive.output_rising, tech);
  return {drive, stage_load};
}

}  // namespace

const ArcEvaluation::Prefix& ArcEvaluation::prefix(std::size_t i) {
  Prefix& pre = prefixes_[i];
  if (pre.error) throw util::DiagError(*pre.error);
  if (pre.ready) return pre;
  const StagePath& path = (*paths_)[i];
  bool dir = input_rising_;
  try {
    for (std::size_t k = 0; k + 1 < path.hops.size(); ++k) {
      const util::Pwl& vin = k == 0 ? *input_ : pre.waveform;
      const auto [drive, load] = hop_setup(*cell_, path.hops[k], dir, vin,
                                           nullptr, calc_->tables(), scratch_);
      WaveformResult wr = solve_stage_waveform(calc_->tables(), drive, load,
                                               options_, diag_);
      pre.waveform = std::move(wr.waveform);
      pre.degraded = pre.degraded || wr.degraded;
      pre.be_steps += wr.be_steps;
      pre.newton_iters += wr.newton_iters;
      pre.fallback_steps += static_cast<std::uint64_t>(wr.fallback_steps);
      dir = !dir;
    }
  } catch (const util::DiagError& err) {
    pre.error = err.diagnostic();
    throw;
  }
  pre.dir = dir;
  pre.ready = true;
  return pre;
}

StageSolver ArcEvaluation::output_stage(std::size_t i,
                                        const OutputLoad& load) {
  const Prefix& pre = prefix(i);
  const StagePath& path = (*paths_)[i];
  const util::Pwl& vin = path.hops.size() == 1 ? *input_ : pre.waveform;
  const auto [drive, stage_load] = hop_setup(
      *cell_, path.hops.back(), pre.dir, vin, &load, calc_->tables(),
      scratch_);
  return StageSolver(calc_->tables(), drive, stage_load, options_, diag_);
}

ArcResult ArcEvaluation::result(std::size_t i, WaveformResult&& wr) {
  Prefix& pre = prefixes_[i];
  ArcResult r;
  r.output_rising = !pre.dir;
  r.waveform = std::move(wr.waveform);
  r.settle_time = wr.settle_time;
  r.coupled = wr.coupled;
  r.degraded = pre.degraded || wr.degraded;
  r.be_steps = wr.be_steps;
  r.newton_iters = wr.newton_iters;
  r.fallback_steps = static_cast<std::uint64_t>(wr.fallback_steps);
  if (pre.charged) {
    r.be_steps_shared = pre.be_steps;
  } else {
    r.be_steps += pre.be_steps;
    r.newton_iters += pre.newton_iters;
    r.fallback_steps += pre.fallback_steps;
    pre.charged = true;
  }
  return r;
}

std::vector<ArcResult> ArcEvaluation::evaluate(const OutputLoad& load) {
  std::vector<ArcResult> results;
  results.reserve(paths_->size());
  for (std::size_t i = 0; i < paths_->size(); ++i) {
    results.push_back(result(i, output_stage(i, load).solve_to_settle()));
  }
  return results;
}

std::vector<ArcResult> ArcEvaluation::evaluate_to_threshold(
    const OutputLoad& load) {
  stopped_.clear();
  stopped_.reserve(paths_->size());
  std::vector<ArcResult> results;
  results.reserve(paths_->size());
  for (std::size_t i = 0; i < paths_->size(); ++i) {
    stopped_.push_back(output_stage(i, load));
    results.push_back(result(i, stopped_.back().solve_to_threshold()));
    results.back().stopped = true;
  }
  return results;
}

ArcResult ArcEvaluation::complete(std::size_t path) {
  return result(path, stopped_.at(path).solve_to_settle());
}

}  // namespace xtalk::delaycalc
