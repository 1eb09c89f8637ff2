#include "sta/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "extract/elmore.hpp"
#include "sta/early.hpp"

namespace xtalk::sta {

namespace {

/// Diagnostic sink capacity; overflow counts in StaResult::diagnostics.dropped.
constexpr std::size_t kMaxDiagnostics = 1024;

/// Primary-input stimulus: a full-swing ramp with the configured slew,
/// clipped to start at the model threshold at t = 0 like every propagated
/// waveform.
NetEvent primary_input_event(const device::Technology& tech, double slew,
                             bool rising) {
  NetEvent e;
  e.valid = true;
  const double vth = tech.model_vth;
  const double rate = tech.vdd / slew;  // full ramp 0 -> VDD in `slew`
  if (rising) {
    const double t_full = (tech.vdd - vth) / rate;
    e.waveform = util::Pwl::ramp(0.0, vth, t_full, tech.vdd);
    e.arrival = (tech.vdd / 2.0 - vth) / rate;
    e.settle_time = t_full;
  } else {
    const double t_full = (tech.vdd - vth) / rate;
    e.waveform = util::Pwl::ramp(0.0, tech.vdd - vth, t_full, 0.0);
    e.arrival = (tech.vdd / 2.0 - vth) / rate;
    e.settle_time = t_full;
  }
  e.start_time = 0.0;
  return e;
}

double arrival_of(const delaycalc::ArcResult& r, double vdd) {
  return r.waveform.time_at_value(vdd / 2.0, r.output_rising);
}

/// Reject option values that would silently misbehave (a negative slew
/// yields waveforms running backwards, max_passes < 1 returns an empty
/// result, ...). The NaN-proof comparisons also reject NaN.
void validate_options(const StaOptions& o) {
  if (o.max_passes < 1) {
    throw std::invalid_argument("StaOptions::max_passes must be >= 1");
  }
  if (!(o.convergence_eps >= 0.0)) {
    throw std::invalid_argument("StaOptions::convergence_eps must be >= 0");
  }
  if (!(o.esperance_window >= 0.0)) {
    throw std::invalid_argument("StaOptions::esperance_window must be >= 0");
  }
  if (!(o.input_slew > 0.0)) {
    throw std::invalid_argument("StaOptions::input_slew must be > 0");
  }
  if (o.num_threads < 0) {
    throw std::invalid_argument(
        "StaOptions::num_threads must be >= 0 (0 = one per hardware thread)");
  }
  if (!(o.budget.deadline_ms >= 0.0)) {
    throw std::invalid_argument(
        "RunBudget::deadline_ms must be >= 0 (0 = unlimited)");
  }
  if (!(o.coupling_derate >= 0.0) || !std::isfinite(o.coupling_derate)) {
    throw std::invalid_argument(
        "StaOptions::coupling_derate must be finite and >= 0");
  }
}

/// Exact double comparison treating NaN == NaN ("same bits", not IEEE).
bool same_value(double a, double b) { return a == b || (a != a && b != b); }

/// Bitwise equality of two loads (the reuse key compares bits, not values).
bool same_load(const delaycalc::OutputLoad& a, const delaycalc::OutputLoad& b) {
  return std::memcmp(&a.c_passive, &b.c_passive, sizeof(double)) == 0 &&
         std::memcmp(&a.c_active, &b.c_active, sizeof(double)) == 0;
}

bool event_identical(const NetEvent& a, const NetEvent& b) {
  if (a.valid != b.valid) return false;
  if (!a.valid) return true;  // invalid events are never read downstream
  if (!same_value(a.arrival, b.arrival) ||
      !same_value(a.start_time, b.start_time) ||
      !same_value(a.settle_time, b.settle_time) || a.coupled != b.coupled ||
      a.degraded != b.degraded || a.origin.gate != b.origin.gate ||
      a.origin.from_net != b.origin.from_net ||
      a.origin.from_rising != b.origin.from_rising) {
    return false;
  }
  const auto& pa = a.waveform.points();
  const auto& pb = b.waveform.points();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!same_value(pa[i].t, pb[i].t) || !same_value(pa[i].v, pb[i].v)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool net_timing_identical(const NetTiming& a, const NetTiming& b) {
  return a.calculated == b.calculated && event_identical(a.rise, b.rise) &&
         event_identical(a.fall, b.fall);
}

StaEngine::StaEngine(const DesignView& design, const StaOptions& options)
    : design_(design),
      options_(options),
      calculator_(*design.tables),
      sink_(kMaxDiagnostics),
      governor_(options.budget, options.cancel) {
  if (options_.delay_model == DelayModel::kNldm) {
    // Prefer a caller-supplied characterization (MCMM corners hand in one
    // matching their scaled technology); the shared half-micron static is
    // the nominal-technology fallback.
    const delaycalc::NldmLibrary& lib =
        design.nldm != nullptr ? *design.nldm
                               : delaycalc::NldmLibrary::half_micron();
    nldm_ = std::make_unique<delaycalc::NldmDelayCalculator>(
        lib, design.tables->tech());
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_threads(options_.num_threads));
    pool_ = owned_pool_.get();
  }
  scratch_.resize(pool_->num_threads());
  // Observability is decided once per engine: when off, metrics_ stays
  // null and every instrumentation site below is a null-pointer test.
  if (options_.collect_metrics) {
    metrics_ = std::make_unique<MetricsRegistry>(pool_->num_threads());
    pool_->set_timing_enabled(true);
    borrowed_pool_timing_ = owned_pool_ == nullptr;
  }
}

StaEngine::~StaEngine() {
  // A borrowed pool outlives this engine; leave its (quiescent) timing
  // collection the way we found it so later lenders without metrics don't
  // pay for ours.
  if (borrowed_pool_timing_) pool_->set_timing_enabled(false);
}

util::DiagHandle StaEngine::gate_diag(netlist::GateId gate, netlist::NetId out,
                                      const PassConfig& config) const {
  util::DiagHandle dh;
  dh.sink = const_cast<util::DiagSink*>(&sink_);
  dh.faults = options_.fault_injector;
  dh.policy = options_.fault_policy;
  dh.ctx.gate = static_cast<std::int64_t>(gate);
  dh.ctx.net = static_cast<std::int64_t>(out);
  dh.ctx.level = static_cast<int>(design_.dag->gate_level[gate]);
  dh.ctx.pass = config.pass_index;
  return dh;
}

std::vector<delaycalc::ArcResult> StaEngine::compute_arc(
    delaycalc::ArcEvaluation& arc, const delaycalc::OutputLoad& load,
    std::size_t thread_id, const util::DiagHandle& diag, bool to_threshold) {
  waveform_calcs_.fetch_add(1, std::memory_order_relaxed);
  std::vector<delaycalc::ArcResult> results;
  if (nldm_ != nullptr) {
    results = nldm_->compute(arc.cell(), arc.input_pin(), arc.input_rising(),
                             arc.input_waveform(), load,
                             &scratch_[thread_id].nldm);
  } else {
    try {
      results = to_threshold ? arc.evaluate_to_threshold(load)
                             : arc.evaluate(load);
    } catch (const util::DiagError& err) {
      if (!diag.degrade()) throw;
      // Unrecoverable solver fault under kDegrade: record it and substitute
      // the conservative bound.
      if (diag.sink != nullptr) diag.sink->report(err.diagnostic());
      results = bound_arc(arc.cell(),
                          static_cast<std::uint32_t>(arc.input_pin()),
                          arc.input_rising(), arc.input_waveform(), load,
                          thread_id, diag);
    }
  }
  if (metrics_ != nullptr) {
    for (const delaycalc::ArcResult& r : results) {
      count_solver_work(r, thread_id);
      if (r.degraded) {
        metrics_->add(thread_id, EngineCounter::kDegradedArcs);
      }
      metrics_->observe(thread_id, EngineHistogram::kFallbackDepth,
                        r.fallback_steps);
    }
  }
  return results;
}

bool StaEngine::finish_arc(delaycalc::ArcEvaluation& arc,
                           std::vector<delaycalc::ArcResult>& results,
                           bool out_rising, std::size_t thread_id,
                           const util::DiagHandle& diag) {
  // Stopped results come from evaluate_to_threshold only: one per stage
  // path, in path order.
  for (std::size_t i = 0; i < results.size(); ++i) {
    delaycalc::ArcResult& r = results[i];
    if (!r.stopped || r.output_rising != out_rising) continue;
    const bool was_degraded = r.degraded;
    try {
      r = arc.complete(i);
    } catch (const util::DiagError& err) {
      if (!diag.degrade()) throw;
      if (diag.sink != nullptr) diag.sink->report(err.diagnostic());
      return false;
    }
    if (metrics_ != nullptr) {
      count_solver_work(r, thread_id);
      if (r.degraded && !was_degraded) {
        metrics_->add(thread_id, EngineCounter::kDegradedArcs);
      }
    }
  }
  return true;
}

void StaEngine::count_solver_work(const delaycalc::ArcResult& r,
                                  std::size_t thread_id) {
  // Pure bookkeeping of counters the solver maintained anyway — per-thread
  // shards, so no contention and bitwise thread-count-invariant totals.
  metrics_->add(thread_id, EngineCounter::kBeSteps, r.be_steps);
  metrics_->add(thread_id, EngineCounter::kBeStepsShared, r.be_steps_shared);
  metrics_->add(thread_id, EngineCounter::kNewtonIterations, r.newton_iters);
  if (r.fallback_steps > 0) {
    metrics_->add(thread_id, EngineCounter::kFallbackBeSteps,
                  r.fallback_steps);
  }
}

std::vector<delaycalc::ArcResult> StaEngine::bound_arc(
    const netlist::Cell& cell, std::uint32_t pin, bool in_rising,
    const util::Pwl& input_waveform, const delaycalc::OutputLoad& load,
    std::size_t thread_id, const util::DiagHandle& diag) {
  const device::Technology& tech = design_.tables->tech();
  const double vdd = tech.vdd;
  const double vth = tech.model_vth;
  const double in50 = input_waveform.time_at_value(vdd / 2.0, in_rising);
  const delaycalc::IntegrationOptions& iopt = options_.integration;

  // Build one bound event: 50% crossing at `arrival`, linear full-swing
  // transition of `span` seconds, clipped at the model threshold like every
  // propagated waveform. `frac` locates the threshold crossing within the
  // full ramp (identical for rising and falling by symmetry of Vth).
  auto make_bound = [&](bool out_rising, double arrival, double span) {
    delaycalc::ArcResult r;
    r.output_rising = out_rising;
    r.degraded = true;
    r.coupled = load.c_active > 0.0;
    const double frac = (vdd / 2.0 - vth) / (vdd - vth);
    const double t0 = arrival - frac * span;
    r.waveform = out_rising ? util::Pwl::ramp(t0, vth, t0 + span, vdd)
                            : util::Pwl::ramp(t0, vdd - vth, t0 + span, 0.0);
    r.settle_time = t0 + span;
    return r;
  };

  // Preferred bound: the characterized NLDM model (grounded caps doubled —
  // already the conservative static treatment of coupling), inflated by
  // doubling delay and slew about the input 50% crossing plus the degrade
  // margin. NLDM is characterized from the transistor engine itself, so 2x
  // dominates its interpolation error by a wide margin.
  std::call_once(fallback_nldm_once_, [&] {
    try {
      const delaycalc::NldmLibrary& lib =
          design_.nldm != nullptr ? *design_.nldm
                                  : delaycalc::NldmLibrary::half_micron();
      fallback_nldm_ =
          std::make_unique<delaycalc::NldmDelayCalculator>(lib, tech);
    } catch (...) {
      // leave null: the analytic bound below covers it
    }
  });
  std::vector<delaycalc::ArcResult> nominal;
  if (fallback_nldm_ != nullptr) {
    try {
      nominal = fallback_nldm_->compute(cell, pin, in_rising, input_waveform,
                                        load, &scratch_[thread_id].nldm);
    } catch (const std::exception&) {
      nominal.clear();
    }
  }

  std::vector<delaycalc::ArcResult> out;
  if (!nominal.empty()) {
    for (const delaycalc::ArcResult& r : nominal) {
      const double a = r.waveform.time_at_value(vdd / 2.0, r.output_rising);
      const double span =
          2.0 * std::max(r.waveform.back().t - r.waveform.front().t, 1e-13);
      const double margin =
          iopt.degrade_margin_abs + iopt.degrade_margin_rel * span;
      const double arrival = in50 + 2.0 * std::max(a - in50, 0.0) + margin;
      out.push_back(make_bound(r.output_rising, arrival, span));
    }
    diag.report(util::DiagCode::kBoundSubstituted, util::Severity::kWarning,
                "substituted inflated NLDM bound for cell " + cell.name());
    return out;
  }

  // Last resort (cell without characterized arcs): a fixed 1 ns delay with
  // doubled input span, emitted for *both* output directions — a non-unate
  // superset, so no event the nominal engine could produce is missed.
  const double span =
      2.0 * std::max(input_waveform.back().t - input_waveform.front().t,
                     1e-13);
  const double margin =
      iopt.degrade_margin_abs + iopt.degrade_margin_rel * span;
  const double arrival = in50 + 1e-9 + margin;
  out.push_back(make_bound(true, arrival, span));
  out.push_back(make_bound(false, arrival, span));
  diag.report(util::DiagCode::kBoundSubstituted, util::Severity::kWarning,
              "substituted analytic 1 ns bound for cell " + cell.name());
  return out;
}

double StaEngine::base_load(netlist::NetId net) const {
  // Receiving pin caps get the Miller factor of the timing model; the wire
  // cap is physical.
  return design_.parasitics->net(net).wire_cap +
         design_.tables->tech().miller_gate_factor *
             design_.netlist->net_pin_cap(net);
}

double StaEngine::sink_elmore(netlist::NetId net,
                              const netlist::PinRef& sink) const {
  for (const extract::SinkWire& w : design_.parasitics->net(net).sink_wires) {
    if (w.sink == sink) {
      const double pin_cap =
          design_.netlist->gate(sink.gate).cell->pins()[sink.pin].cap;
      return extract::elmore_sink_delay(w, pin_cap);
    }
  }
  // No extracted wire for this sink: an extraction gap, not an ideal
  // connection. Count it so the result can't silently masquerade as zero
  // wire delay (StaResult::missing_sink_wires).
  assert(!"sink has no entry in the extracted parasitics");
  missing_sinks_.fetch_add(1, std::memory_order_relaxed);
  return 0.0;
}

delaycalc::OutputLoad StaEngine::classify_coupling(
    netlist::NetId victim, bool victim_rising, double t_bcs,
    const PassConfig& config, const std::vector<NetTiming>& timing,
    std::uint32_t victim_level, double base_cap,
    double victim_settle_upper) const {
  delaycalc::OutputLoad load;
  double grounded = 0.0;
  double active = 0.0;
  const bool neighbor_dir = !victim_rising;  // opposite transition couples
  // Per-scenario pessimism knob; 1.0 (the default) is an IEEE-exact no-op,
  // so the derated sums are bitwise the historical ones.
  const double derate = options_.coupling_derate;
  for (const extract::NeighborCap& nb :
       design_.parasitics->net(victim).couplings) {
    const double cap = derate * nb.cap;
    // Timing-window extension: an aggressor that cannot even *start* its
    // opposite transition before the victim has settled under the
    // unrefined worst case is harmless.
    if (!early_rise_.empty()) {
      const double earliest =
          neighbor_dir ? early_rise_[nb.neighbor] : early_fall_[nb.neighbor];
      if (earliest >= victim_settle_upper) {
        grounded += cap;
        continue;
      }
    }
    double t_a;
    // Pass-anchored snapshot: the neighbour's current-pass timing is
    // readable iff its static ready level (driver level + 1; 0 for primary
    // inputs) does not exceed the victim's level — exactly the nets the
    // level barrier completes before this level, independent of thread
    // count and execution order. A same- or later-level neighbour
    // classifies through the conservative fallbacks below.
    if (net_ready_level_[nb.neighbor] <= victim_level) {
      t_a = timing[nb.neighbor].quiet_time(neighbor_dir);
    } else if (config.previous != nullptr) {
      t_a = config.previous->quiet(nb.neighbor, neighbor_dir);
    } else {
      // §5.1: "line i is not calculated" -> worst-case assumption: coupling.
      active += cap;
      continue;
    }
    if (t_a > t_bcs) {
      active += cap;
    } else {
      grounded += cap;  // grounded with unchanged value
    }
  }
  load.c_passive = base_cap + grounded;
  load.c_active = active;
  return load;
}

void StaEngine::process_gate(netlist::GateId gate_id, const PassConfig& config,
                             std::vector<NetTiming>& timing,
                             std::size_t thread_id) {
  const netlist::Netlist& nl = *design_.netlist;
  const netlist::Gate& gate = nl.gate(gate_id);
  const netlist::Cell& cell = *gate.cell;
  const netlist::NetId out = gate.pin_nets[cell.output_pin()];
  const std::uint32_t my_level = design_.dag->gate_level[gate_id];
  const double vdd = design_.tables->tech().vdd;

  const double base = base_load(out);
  // Same per-scenario derate as classify_coupling (1.0 = exact no-op), so
  // the best/static/worst load splits and the classification agree on the
  // effective coupling caps.
  const double cc_sum = options_.coupling_derate *
                        design_.parasitics->net(out).total_coupling_cap();
  const util::DiagHandle dh = gate_diag(gate_id, out, config);

  // This gate's classification slots (none in the non-classifying modes).
  ArcClass* record = nullptr;
  ArcWindow* record_windows = nullptr;
  if (config.classes != nullptr) {
    ClassRecord& cr = *config.classes;
    const std::uint32_t b = cr.begin[gate_id];
    std::fill(cr.arcs.begin() + b, cr.arcs.begin() + cr.begin[gate_id + 1],
              ArcClass{});
    record = cr.arcs.data() + b;
    if (!cr.windows.empty()) record_windows = cr.windows.data() + b;
  }

  auto merge = [&](const delaycalc::ArcResult& r, const EventOrigin& origin,
                   bool input_degraded) {
    NetEvent& e = timing[out].event(r.output_rising);
    const double arrival = arrival_of(r, vdd);
    if (!e.valid || arrival > e.arrival) {
      e.waveform = r.waveform;
      e.arrival = arrival;
      e.start_time = r.waveform.front().t;
      e.origin = origin;
      e.coupled = r.coupled;
      e.degraded = r.degraded || input_degraded;
    }
    e.settle_time = std::max(e.valid ? e.settle_time : r.settle_time,
                             r.settle_time);
    e.valid = true;
  };

  std::size_t slot = 0;  // first slot of the current (pin, input edge)
  for (std::uint32_t p = 0; p < gate.pin_nets.size(); ++p) {
    if (!netlist::is_timed_input(cell, p)) continue;
    const netlist::NetId in_net = gate.pin_nets[p];
    for (const bool in_rising : {true, false}) {
      const std::size_t s0 = slot;
      slot += 2;
      const NetEvent& in_ev = timing[in_net].event(in_rising);
      if (!in_ev.valid) continue;
      const double elmore = sink_elmore(in_net, {gate_id, p});
      const util::Pwl in_wave = elmore > 0.0 ? in_ev.waveform.shifted(elmore)
                                             : in_ev.waveform;
      const EventOrigin origin{gate_id, in_net, in_rising};
      delaycalc::ArcEvaluation arc(calculator_, cell, p, in_rising, in_wave,
                                   options_.integration,
                                   &scratch_[thread_id].arc, &dh);

      switch (options_.mode) {
        case AnalysisMode::kBestCase:
        case AnalysisMode::kStaticDoubled:
        case AnalysisMode::kWorstCase: {
          delaycalc::OutputLoad load;
          if (options_.mode == AnalysisMode::kBestCase) {
            load = {base + cc_sum, 0.0};
          } else if (options_.mode == AnalysisMode::kStaticDoubled) {
            load = {base + 2.0 * cc_sum, 0.0};
          } else {
            load = {base, cc_sum};
          }
          for (const delaycalc::ArcResult& r :
               compute_arc(arc, load, thread_id, dh)) {
            merge(r, origin, in_ev.degraded);
          }
          break;
        }
        case AnalysisMode::kOneStep:
        case AnalysisMode::kIterative: {
          if (in_ev.degraded) {
            // Taint rule: a degraded fanin event may be later than the
            // nominal one, which would *shrink* the apparent aggressor set
            // of a timing-based classification. The all-active worst case
            // (§4) is a sound bound for any alignment, so use it instead.
            for (const delaycalc::ArcResult& r :
                 compute_arc(arc, {base, cc_sum}, thread_id, dh)) {
              merge(r, origin, true);
            }
            break;
          }
          // Best-case run: all adjacent wires quiet, caps grounded
          // unchanged. Its Vth crossing is the earliest possible victim
          // activity (lower time bound of the current waveform, §5.1), and
          // that crossing is all the classification reads. So the run stops
          // there, and goes on to the rail only if its waveform is merged.
          // Without coupling caps it always is, so it runs through.
          const delaycalc::OutputLoad best{base + cc_sum, 0.0};
          auto bcs = compute_arc(arc, best, thread_id, dh, cc_sum > 0.0);
          bool bcs_degraded = false;
          for (const delaycalc::ArcResult& r : bcs) {
            bcs_degraded = bcs_degraded || r.degraded;
          }
          for (const bool out_rising : {true, false}) {
            double t_bcs = std::numeric_limits<double>::infinity();
            bool present = false;
            for (const delaycalc::ArcResult& r : bcs) {
              if (r.output_rising != out_rising) continue;
              present = true;
              t_bcs = std::min(t_bcs, r.waveform.front().t);
            }
            if (!present) continue;
            const double inf = std::numeric_limits<double>::infinity();
            // Taint rule, best-case side: a degraded best-case run makes
            // t_bcs unreliable (a later t_bcs drops aggressors), so fall
            // back to all-active coupling instead of classifying. It reads
            // the part of the run up to t_bcs; a fallback in the unrun tail
            // cannot move t_bcs.
            delaycalc::OutputLoad load =
                bcs_degraded
                    ? delaycalc::OutputLoad{base, cc_sum}
                    : classify_coupling(out, out_rising, t_bcs, config,
                                        timing, my_level, base, inf);
            // The reuse key of this arc (gate_reusable); an all-active
            // load needs none.
            const std::size_t s = s0 + (out_rising ? 0 : 1);
            const bool recorded = record != nullptr && !bcs_degraded;
            if (recorded) record[s] = {t_bcs, load, ArcClass::kClassified};
            if (!bcs_degraded && metrics_ != nullptr) {
              metrics_->add(thread_id,
                            EngineCounter::kCouplingClassifications);
            }
            if (load.c_active <= 0.0) {
              // No neighbour can couple: the best-case run *is* the
              // worst-case run (loads identical); skip the second calc and
              // finish the best case to the rail instead.
              if (finish_arc(arc, bcs, out_rising, thread_id, dh)) {
                for (const delaycalc::ArcResult& r : bcs) {
                  if (r.output_rising == out_rising) merge(r, origin, false);
                }
              } else {
                for (const delaycalc::ArcResult& r :
                     bound_arc(cell, p, in_rising, in_wave, best, thread_id,
                               dh)) {
                  if (r.output_rising == out_rising) merge(r, origin, false);
                }
              }
              continue;
            }
            // The worst case starts from the best case's pre-output hops.
            auto wcs = compute_arc(arc, load, thread_id, dh);
            if (options_.timing_windows && !bcs_degraded) {
              // Refine: drop aggressors that cannot start before the
              // victim settles under the unrefined worst case (the settle
              // bound shrinks monotonically, so this stays conservative).
              // Skipped under taint: a degraded settle bound is not the
              // nominal one, so the refinement's premise breaks.
              bool wcs_degraded = false;
              for (const delaycalc::ArcResult& r : wcs) {
                wcs_degraded = wcs_degraded || r.degraded;
              }
              double settle_upper = 0.0;
              for (const delaycalc::ArcResult& r : wcs) {
                if (r.output_rising == out_rising) {
                  settle_upper = std::max(settle_upper, r.settle_time);
                }
              }
              if (!wcs_degraded) {
                const delaycalc::OutputLoad refined =
                    classify_coupling(out, out_rising, t_bcs, config, timing,
                                      my_level, base, settle_upper);
                if (recorded && record_windows != nullptr) {
                  record[s].kind = ArcClass::kRefined;
                  record_windows[s] = {settle_upper, refined};
                }
                if (metrics_ != nullptr) {
                  metrics_->add(thread_id,
                                EngineCounter::kCouplingClassifications);
                }
                if (refined.c_active < load.c_active - 1e-18) {
                  if (metrics_ != nullptr) {
                    metrics_->add(thread_id,
                                  EngineCounter::kCouplingReclassifications);
                  }
                  wcs = compute_arc(arc, refined, thread_id, dh);
                }
              }
            }
            for (const delaycalc::ArcResult& r : wcs) {
              if (r.output_rising == out_rising) merge(r, origin, false);
            }
          }
          break;
        }
      }
    }
  }
  timing[out].calculated = true;
  if (metrics_ != nullptr) {
    metrics_->add(thread_id, EngineCounter::kGatesEvaluated);
  }
}

void StaEngine::degrade_gate(netlist::GateId gate_id, const PassConfig& config,
                             std::vector<NetTiming>& timing, const char* why) {
  const netlist::Netlist& nl = *design_.netlist;
  const netlist::Gate& gate = nl.gate(gate_id);
  const netlist::Cell& cell = *gate.cell;
  const netlist::NetId out = gate.pin_nets[cell.output_pin()];
  const device::Technology& tech = design_.tables->tech();
  const double vdd = tech.vdd;
  const double vth = tech.model_vth;

  const util::DiagHandle dh = gate_diag(gate_id, out, config);
  dh.report(util::DiagCode::kGateDegraded, util::Severity::kError,
            std::string("gate output replaced by pessimistic bound: ") + why);

  // A fixed 1 ns stage bound after the latest fanin arrival, with doubled
  // fanin span, merged on top of whatever arcs succeeded before the failure
  // (merge keeps the max, so partial results can only be overtaken, never
  // lost).
  double worst_in = -std::numeric_limits<double>::infinity();
  double span_in = 0.0;
  bool any = false;
  for (std::uint32_t p = 0; p < gate.pin_nets.size(); ++p) {
    if (!netlist::is_timed_input(cell, p)) continue;
    const netlist::NetId in_net = gate.pin_nets[p];
    for (const bool in_rising : {true, false}) {
      const NetEvent& in_ev = timing[in_net].event(in_rising);
      if (!in_ev.valid) continue;
      any = true;
      worst_in = std::max(worst_in,
                          in_ev.arrival + sink_elmore(in_net, {gate_id, p}));
      span_in = std::max(
          span_in, in_ev.waveform.back().t - in_ev.waveform.front().t);
    }
  }
  if (!any) {
    timing[out].calculated = true;
    return;
  }
  const delaycalc::IntegrationOptions& iopt = options_.integration;
  const double span = std::max(2.0 * span_in, 1e-12);
  const double margin =
      iopt.degrade_margin_abs + iopt.degrade_margin_rel * span;
  const double arrival = worst_in + 1e-9 + margin;
  const double frac = (vdd / 2.0 - vth) / (vdd - vth);
  const double t0 = arrival - frac * span;
  for (const bool rising : {true, false}) {
    NetEvent& e = timing[out].event(rising);
    if (!e.valid || arrival > e.arrival) {
      e.waveform = rising ? util::Pwl::ramp(t0, vth, t0 + span, vdd)
                          : util::Pwl::ramp(t0, vdd - vth, t0 + span, 0.0);
      e.arrival = arrival;
      e.start_time = t0;
      e.origin = EventOrigin{gate_id, netlist::kNoNet, true};
      e.coupled = true;
      e.degraded = true;
    }
    e.settle_time = std::max(e.valid ? e.settle_time : t0 + span, t0 + span);
    e.valid = true;
  }
  timing[out].calculated = true;
}

void StaEngine::DiagsByGate::build(const std::vector<util::Diagnostic>& diags,
                                   std::size_t num_gates) {
  // Counting sort by gate, stable in the recorded order. Entries without a
  // gate in range belong to no gate evaluation and are never re-emitted.
  entries = &diags;
  begin.assign(num_gates + 1, 0);
  auto gate_of = [&](const util::Diagnostic& d) -> std::size_t {
    const std::int64_t g = d.ctx.gate;
    return g >= 0 && static_cast<std::uint64_t>(g) < num_gates
               ? static_cast<std::size_t>(g)
               : num_gates;
  };
  for (const util::Diagnostic& d : diags) {
    const std::size_t g = gate_of(d);
    if (g < num_gates) ++begin[g + 1];
  }
  for (std::size_t g = 0; g < num_gates; ++g) begin[g + 1] += begin[g];
  order.resize(begin[num_gates]);
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  for (std::uint32_t i = 0; i < diags.size(); ++i) {
    const std::size_t g = gate_of(diags[i]);
    if (g < num_gates) order[fill[g]++] = i;
  }
}

void StaEngine::report_truncation(util::BudgetReason reason, int pass,
                                  const PassStatus& status, const char* what) {
  util::Diagnostic d;
  d.code = util::DiagCode::kBudgetExhausted;
  d.severity = util::Severity::kWarning;
  d.ctx.pass = pass;
  d.ctx.level = static_cast<std::int64_t>(status.completed_levels);
  d.message = std::string("run budget exhausted (") +
              util::budget_reason_name(reason) + "): " + what + " after " +
              std::to_string(status.completed_levels) + "/" +
              std::to_string(status.total_levels) + " levels; result is a " +
              "conservative anytime bound";
  sink_.report(d);
}

void StaEngine::run_gate(netlist::GateId g, const PassConfig& config,
                         std::vector<NetTiming>& timing,
                         std::size_t thread_id) {
  const netlist::Netlist& nl = *design_.netlist;
  const netlist::Gate& gate = nl.gate(g);
  const netlist::NetId out = gate.pin_nets[gate.cell->output_pin()];
  std::uint8_t* flags =
      config.classes != nullptr ? &config.classes->gate_flags[g] : nullptr;
  // Per-gate exception isolation (kDegrade): a poisoned gate degrades to a
  // pessimistic bound locally instead of propagating out of the thread
  // pool and killing every worker's dispatch. compute_arc already converts
  // solver DiagErrors into bound substitutions, so what reaches this
  // outermost net are unexpected evaluation failures. The gate's flags
  // note whether the evaluation reported anything.
  auto evaluate_gate = [&] {
    const std::uint64_t reports = util::DiagSink::thread_reports();
    std::uint8_t f = 0;
    if (options_.fault_policy == util::FaultPolicy::kDegrade) {
      try {
        process_gate(g, config, timing, thread_id);
      } catch (const std::exception& ex) {
        degrade_gate(g, config, timing, ex.what());
        f = ClassRecord::kUnrecorded;
      }
    } else {
      process_gate(g, config, timing, thread_id);
    }
    if (util::DiagSink::thread_reports() != reports) {
      f |= ClassRecord::kDiagnosed;
    }
    if (flags != nullptr) *flags = f;
  };

  if (config.active_gates != nullptr && !(*config.active_gates)[g]) {
    // Esperance: keep the basis pass's (conservative) result. In a
    // replayed pass the baseline did the same copy (the esperance mask is
    // part of the pass signature), so this net differs from the baseline
    // record exactly where the basis differed; against the previous pass
    // it is that pass's value. No evaluation stands behind the copy, so
    // its classification slots are not a reuse key.
    timing[out] = (*config.previous_timing)[out];
    timing[out].calculated = true;
    if (flags != nullptr) *flags = ClassRecord::kUnrecorded;
    if (config.value_dirty != nullptr) {
      (*config.value_dirty)[out] =
          config.cross_pass ? 0
          : config.basis_dirty != nullptr ? (*config.basis_dirty)[out]
                                          : 1;
    }
    return;
  }
  if (config.reuse_timing == nullptr) {
    evaluate_gate();
    return;
  }
  if (gate_reusable(g, config, timing)) {
    // Every input of this gate's evaluation that can move between
    // passes or edits — fanin events and the coupling loads — is
    // bitwise the baseline's, so the baseline output *is* what
    // process_gate would recompute, and so are its records. A RunTrace
    // gate re-emits its baseline diagnostics so the incremental report
    // matches a from-scratch run; a carried gate has none.
    timing[out] = (*config.reuse_timing)[out];
    timing[out].calculated = true;
    (*config.value_dirty)[out] = 0;
    if (config.classes != nullptr) {
      const ClassRecord& base = *config.reuse_classes;
      const std::uint32_t kb = base.begin[g];
      ClassRecord& cur = *config.classes;
      const std::uint32_t n = base.begin[g + 1] - kb;
      std::copy_n(base.arcs.begin() + kb, n,
                  cur.arcs.begin() + cur.begin[g]);
      if (!cur.windows.empty()) {
        std::copy_n(base.windows.begin() + kb, n,
                    cur.windows.begin() + cur.begin[g]);
      }
      *flags = base.gate_flags[g];
    }
    if (config.cross_pass) {
      if (metrics_ != nullptr) {
        metrics_->add(thread_id, EngineCounter::kGatesCarried);
      }
      return;
    }
    if (config.reuse_diags != nullptr) {
      const DiagsByGate& by_gate = *config.reuse_diags;
      for (std::uint32_t i = by_gate.begin[g]; i < by_gate.begin[g + 1]; ++i) {
        sink_.report((*by_gate.entries)[by_gate.order[i]]);
      }
    }
    gates_reused_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  evaluate_gate();
  // Value cut-off: a recomputed net that lands exactly on the baseline
  // (e.g. the changed input was not the controlling arc) does not dirty
  // its consumers.
  (*config.value_dirty)[out] =
      !net_timing_identical(timing[out], (*config.reuse_timing)[out]);
}

double StaEngine::run_pass(const PassConfig& config,
                           std::vector<NetTiming>& timing,
                           std::vector<EndpointArrival>& endpoints,
                           EndpointArrival& critical, PassStatus& status) {
  const netlist::Netlist& nl = *design_.netlist;
  const device::Technology& tech = design_.tables->tech();

  // Pass metrics cover the whole pass body (primary-input init, level
  // loop, endpoint collection); the level walls below account for nearly
  // all of it on real designs.
  if (metrics_ != nullptr) {
    metrics_->begin_pass(config.pass_index,
                         waveform_calcs_.load(std::memory_order_relaxed),
                         gates_reused_.load(std::memory_order_relaxed));
  }

  timing.assign(nl.num_nets(), NetTiming{});
  for (const netlist::NetId pi : nl.primary_inputs()) {
    timing[pi].rise = primary_input_event(tech, options_.input_slew, true);
    timing[pi].fall = primary_input_event(tech, options_.input_slew, false);
    timing[pi].calculated = true;
  }

  // Parallel traversal over gates, level by level. Gates write only their
  // own output net; the only cross-gate reads are fanin events and coupling
  // neighbours, both admitted by static structure (the fanin edge set resp.
  // the pass-anchored ready-level predicate of classify_coupling), so the
  // computed values are independent of thread count and execution order.
  const std::vector<std::uint32_t>& level_begin = design_.dag->level_begin;
  status = PassStatus{};
  status.total_levels = level_begin.empty() ? 0 : level_begin.size() - 1;

  run_levels(config, timing, status);

  // Endpoint arrivals: D-pin sinks add their Elmore shift, primary outputs
  // read the net arrival directly.
  endpoints.clear();
  critical = {};
  double worst = -std::numeric_limits<double>::infinity();
  for (const netlist::NetId ep : design_.dag->endpoint_nets) {
    if (status.truncated && !timing[ep].calculated) {
      // A truncated pass never reached this endpoint's driver; rather than
      // silently reporting no arrival (which would look *optimistic*), the
      // endpoint is listed as explicitly untimed in the budget status.
      status.untimed_endpoints.push_back(ep);
      continue;
    }
    double extra = 0.0;
    for (const netlist::PinRef& s : nl.net(ep).sinks) {
      const netlist::Cell& c = *nl.gate(s.gate).cell;
      if (c.is_sequential() && c.pins()[s.pin].dir == netlist::PinDir::kInput) {
        extra = std::max(extra, sink_elmore(ep, s));
      }
    }
    for (const bool rising : {true, false}) {
      const NetEvent& e = timing[ep].event(rising);
      if (!e.valid) continue;
      EndpointArrival a{ep, rising, e.arrival + extra};
      endpoints.push_back(a);
      if (a.arrival > worst) {
        worst = a.arrival;
        critical = a;
      }
    }
  }
  if (metrics_ != nullptr) {
    for (const NetTiming& nt : timing) {
      if (nt.rise.valid) {
        metrics_->observe(0, EngineHistogram::kPwlPointsPerNet,
                          nt.rise.waveform.points().size());
      }
      if (nt.fall.valid) {
        metrics_->observe(0, EngineHistogram::kPwlPointsPerNet,
                          nt.fall.waveform.points().size());
      }
    }
    metrics_->end_pass(waveform_calcs_.load(std::memory_order_relaxed),
                       gates_reused_.load(std::memory_order_relaxed));
  }

  // A truncation that reached no endpoint at all has no longest path; 0.0
  // (with every endpoint listed untimed) beats leaking -inf into reports.
  if (endpoints.empty()) return 0.0;
  return worst;
}

void StaEngine::run_levels(const PassConfig& config,
                           std::vector<NetTiming>& timing,
                           PassStatus& status) {
  const std::vector<netlist::GateId>& order = design_.dag->level_order;
  const std::vector<std::uint32_t>& level_begin = design_.dag->level_begin;

  for (std::size_t lvl = 0; lvl + 1 < level_begin.size(); ++lvl) {
    // Governor checkpoint at the level boundary — the only serial point in
    // the traversal, so a count-based truncation lands on the same level
    // for every thread count. Exhaustion stops *before* starting the
    // level: every level that starts also finishes, keeping the computed
    // prefix bitwise identical to the same prefix of an unlimited run.
    // The checkpoint gets its own metric so the level wall below measures
    // the parallel dispatch only (Table-2 honesty).
    const std::uint64_t c0 = metrics_ != nullptr ? util::monotonic_ns() : 0;
    const util::BudgetReason br =
        governor_.checkpoint(waveform_calcs_.load(std::memory_order_relaxed));
    if (metrics_ != nullptr) {
      metrics_->add_governor_wall(
          static_cast<double>(util::monotonic_ns() - c0) * 1e-9);
    }
    if (br != util::BudgetReason::kNone) {
      status.truncated = true;
      break;
    }
    const std::size_t level_gates = level_begin[lvl + 1] - level_begin[lvl];
    const std::uint64_t level_t0 =
        metrics_ != nullptr ? util::monotonic_ns() : 0;
    pool_->parallel_for(
        level_begin[lvl], level_begin[lvl + 1],
        [&](std::size_t i, std::size_t thread_id) {
          run_gate(order[i], config, timing, thread_id);
        });
    const std::uint64_t level_t1 =
        metrics_ != nullptr ? util::monotonic_ns() : 0;
    status.completed_levels = lvl + 1;
    if (metrics_ != nullptr) {
      metrics_->add_level(level_gates,
                          static_cast<double>(level_t1 - level_t0) * 1e-9);
      metrics_->observe(0, EngineHistogram::kLevelGates, level_gates);
    }
  }
}

bool StaEngine::gate_reusable(netlist::GateId gate_id,
                              const PassConfig& config,
                              const std::vector<NetTiming>& timing) const {
  const netlist::Netlist& nl = *design_.netlist;
  const netlist::Gate& gate = nl.gate(gate_id);
  const netlist::NetId out = gate.pin_nets[gate.cell->output_pin()];
  const std::vector<char>* seed = config.seed_dirty;
  const std::vector<char>& vdirty = *config.value_dirty;
  const ClassRecord& base = *config.reuse_classes;

  // Structural changes on the output net: the driving cell, the net's
  // parasitics (wire cap, sink wires feed base_load), any coupling cap on
  // it, or a level flip of its driver (the anchor of its own
  // classification) — all seeded by the session.
  if (seed != nullptr && (*seed)[out]) return false;
  const std::uint8_t flags = base.gate_flags[gate_id];
  if ((flags & ClassRecord::kUnrecorded) != 0) return false;
  // Diagnostics carry the pass index, so the previous pass's entries are
  // not this pass's: recompute to emit them afresh.
  if (config.cross_pass && (flags & ClassRecord::kDiagnosed) != 0) {
    return false;
  }
  // The records are laid out by the cell's timed pins; a seed covers any
  // cell change, this keeps a copied record inside its slots regardless.
  const std::uint32_t b = base.begin[gate_id];
  const std::uint32_t n = base.begin[gate_id + 1] - b;
  const std::vector<std::uint32_t>& cur_begin = config.classes->begin;
  if (n != cur_begin[gate_id + 1] - cur_begin[gate_id]) return false;

  // Fanins: the arc input is the fanin's waveform shifted by the fanin's
  // sink wire, so both a changed value and a structural edit on the fanin
  // net (e.g. its wire RC) force a recompute.
  for (std::uint32_t p = 0; p < gate.pin_nets.size(); ++p) {
    if (!netlist::is_timed_input(*gate.cell, p)) continue;
    const netlist::NetId f = gate.pin_nets[p];
    if ((seed != nullptr && (*seed)[f]) || vdirty[f]) return false;
  }

  // Fanin unchanged: every best case is bitwise the recorded one, so the
  // recorded t_bcs is what process_gate would classify against. Re-run
  // exactly its classifications and compare the loads bitwise. They read
  // this pass's timing, quiet basis, early arrays and neighbour ready
  // levels directly, so a neighbour's moved value, early bound or level
  // needs no seed of its own.
  const double base_cap = base_load(out);
  const std::uint32_t my_level = design_.dag->gate_level[gate_id];
  const double inf = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < n; ++i) {
    const ArcClass& a = base.arcs[b + i];
    if (a.kind == ArcClass::kUnclassified) continue;
    const bool out_rising = i % 2 == 0;
    if (!same_load(a.load, classify_coupling(out, out_rising, a.t_bcs, config,
                                             timing, my_level, base_cap,
                                             inf))) {
      return false;
    }
    if (a.kind == ArcClass::kRefined) {
      const ArcWindow& w = base.windows[b + i];
      if (!same_load(w.refined,
                     classify_coupling(out, out_rising, a.t_bcs, config,
                                       timing, my_level, base_cap,
                                       w.settle_upper))) {
        return false;
      }
    }
  }
  return true;
}

QuietTimes StaEngine::collect_quiet(const std::vector<NetTiming>& timing) const {
  QuietTimes q(timing.size());
  for (std::size_t n = 0; n < timing.size(); ++n) {
    q.rise[n] = timing[n].quiet_time(true);
    q.fall[n] = timing[n].quiet_time(false);
  }
  return q;
}

std::vector<char> collect_esperance_gates(
    std::size_t num_gates, const std::vector<NetTiming>& timing,
    const std::vector<EndpointArrival>& eps, double delay, double window) {
  std::vector<char> active(num_gates, 0);
  // Walk the origin chains of every endpoint within the window. Chains are
  // deduplicated per (net, edge) event: a gate can be marked via its
  // rise-event chain while its fall-event chain has a *different* upstream
  // origin (reconvergent logic), so an already-active gate must not stop
  // the walk — only an already-visited event may.
  std::vector<char> visited(timing.size() * 2, 0);
  for (const EndpointArrival& ep : eps) {
    if (ep.arrival < delay - window) continue;
    netlist::NetId net = ep.net;
    bool rising = ep.rising;
    while (net != netlist::kNoNet) {
      char& seen = visited[static_cast<std::size_t>(net) * 2 + (rising ? 1 : 0)];
      if (seen) break;  // this event's chain is already collected
      seen = 1;
      const NetEvent& e = timing[net].event(rising);
      if (!e.valid || e.origin.gate == netlist::kNoGate) break;
      active[e.origin.gate] = 1;
      net = e.origin.from_net;
      rising = e.origin.from_rising;
    }
  }
  return active;
}

StaResult StaEngine::run(RunTrace* trace_out, const ReuseHints* hints) {
  validate_options(options_);
  // start() is idempotent: IncrementalSta pre-starts the epoch so its own
  // early-activity update is charged against the same deadline.
  governor_.start();
  const auto t0 = std::chrono::steady_clock::now();
  // Observability state is per run: an engine reused across runs starts
  // from zeroed shards each time.
  if (metrics_ != nullptr) {
    metrics_->clear();
    pool_->reset_timing();
  }
  StaResult result;
  waveform_calcs_.store(0, std::memory_order_relaxed);
  missing_sinks_.store(0, std::memory_order_relaxed);
  gates_reused_.store(0, std::memory_order_relaxed);
  sink_.clear();
  if (options_.fault_injector != nullptr) options_.fault_injector->reset();
  result.threads_used = static_cast<int>(pool_->num_threads());
  if (trace_out != nullptr) *trace_out = RunTrace{};

  // Device-table seam guard: lookups beyond the sampled grid silently
  // clamp. The grid covers [0, 1.25 * vdd_at_build]; an analysis
  // technology whose supply has grown past the build supply (a technology
  // mutated after the table set was built, or tables reused at a scaled-up
  // corner) erodes exactly the overshoot headroom the 1.25 margin exists
  // for — warn instead of silently flattening the currents. MCMM corners
  // regrid per scenario (ScenarioContext), so this stays silent there.
  {
    const device::DeviceTableSet& ts = *design_.tables;
    const double vmax = std::min(ts.nmos().vmax(), ts.pmos().vmax());
    if (1.25 * ts.tech().vdd > vmax) {
      util::Diagnostic d;
      d.code = util::DiagCode::kTableRange;
      d.severity = util::Severity::kWarning;
      d.message = "analysis vdd " + std::to_string(ts.tech().vdd) +
                  " V exceeds the supply the device tables were built for " +
                  "(grid vmax " + std::to_string(vmax) +
                  " V = 1.25 * build vdd); lookups beyond the grid clamp — " +
                  "rebuild the tables for this corner";
      sink_.report(d);
    }
  }

  // Pass-anchored coupling snapshot as static structure (classify_coupling
  // reads it on every neighbour). Rebuilt per run — the DAG may have been
  // incrementally re-levelized between runs of a reused engine.
  {
    const netlist::Netlist& nl = *design_.netlist;
    net_ready_level_.assign(nl.num_nets(),
                            std::numeric_limits<std::uint32_t>::max());
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      const netlist::Gate& gate = nl.gate(g);
      net_ready_level_[gate.pin_nets[gate.cell->output_pin()]] =
          design_.dag->gate_level[g] + 1;
    }
    // Primary inputs carry stimulus set before any dispatch; a driven net
    // listed as primary input keeps the stronger "always readable".
    for (const netlist::NetId pi : nl.primary_inputs()) {
      net_ready_level_[pi] = 0;
    }
  }

  // Reuse needs both the trace and the seed set; anything less means a
  // from-scratch run.
  const RunTrace* base = hints != nullptr ? hints->baseline : nullptr;
  const std::vector<char>* seeds =
      hints != nullptr ? hints->seed_dirty : nullptr;
  if (base == nullptr || seeds == nullptr) {
    base = nullptr;
    seeds = nullptr;
  }

  if (options_.timing_windows) {
    if (hints != nullptr && hints->early != nullptr) {
      early_rise_ = hints->early->rise;
      early_fall_ = hints->early->fall;
    } else {
      // Charge the early-activity sweep against the budget. If the budget
      // is already gone, skipping the arrays is sound: pass 1 truncates at
      // level 0 before any gate could read them.
      if (governor_.checkpoint(0) == util::BudgetReason::kNone) {
        // The early bound must see the same effective coupling caps as the
        // classification it feeds (its aiding assist scales with them).
        const EarlyTimes early = compute_early_activity(
            design_, options_.early, options_.coupling_derate);
        early_rise_ = early.rise;
        early_fall_ = early.fall;
      } else {
        early_rise_.clear();
        early_fall_.clear();
      }
    }
    if (trace_out != nullptr) {
      trace_out->early_rise = early_rise_;
      trace_out->early_fall = early_fall_;
    }
  } else {
    early_rise_.clear();
    early_fall_.clear();
  }

  std::vector<NetTiming> timing;
  std::vector<EndpointArrival> endpoints;
  EndpointArrival critical;

  // Per-pass replay bookkeeping. A pass k of this run may copy baseline
  // pass-k results for clean gates iff the pass reads exactly the same
  // cross-pass inputs as the baseline's pass k did: the same basis pass
  // (whose stored quiet times feed the coupling classification), a basis
  // that was itself replayed validly, and an identical esperance mask (an
  // activity flip changes which gates recompute vs. copy, so even a
  // structurally clean gate's value could legitimately differ). pass_valid
  // chains the argument across passes.
  std::vector<char> pass_valid;
  const std::vector<char> no_mask;
  // Per-pass value-dirty flags: dirty_by_pass[k][net] == 1 iff pass k's
  // final timing of `net` differs bitwise from the baseline's pass k. A
  // later pass whose quiet basis is pass k consults them; a pass that was
  // not replayable is recorded all-dirty. Reserved up front so references
  // into earlier entries stay valid while a pass runs.
  std::vector<std::vector<char>> dirty_by_pass;
  dirty_by_pass.reserve(static_cast<std::size_t>(options_.max_passes) + 1);
  const std::size_t num_nets = design_.netlist->num_nets();
  auto pass_reusable = [&](std::size_t k, int basis,
                           const std::vector<char>& active) {
    if (base == nullptr || k >= base->passes.size()) return false;
    const PassRecord& rec = base->passes[k];
    if (rec.basis_pass != basis) return false;
    if (basis >= 0 && !pass_valid[static_cast<std::size_t>(basis)]) {
      return false;
    }
    if (rec.classes.gate_flags.size() != design_.netlist->num_gates()) {
      return false;
    }
    return rec.active_gates == active;
  };

  // Classification records (the reuse key), double-buffered: pass k
  // writes classes[k % 2], so classes[(k - 1) % 2] still holds pass k-1's
  // for the cross-pass baseline. Kept only when something reads them: the
  // trace, an incremental baseline, or a later iterative pass. Cross-pass
  // reuse is off under a fault injector, which counts solver probes: a
  // skipped evaluation would move the probe its faults fire on.
  const bool cross_pass = options_.mode == AnalysisMode::kIterative &&
                          options_.fault_injector == nullptr;
  const bool keep_classes =
      cross_pass || trace_out != nullptr || base != nullptr;
  ClassRecord classes[2];
  auto pass_classes = [&](std::size_t k) -> ClassRecord& {
    ClassRecord& cr = classes[k % 2];
    if (!cr.gate_flags.empty()) return cr;
    const netlist::Netlist& nl = *design_.netlist;
    const bool classifying = options_.mode == AnalysisMode::kOneStep ||
                             options_.mode == AnalysisMode::kIterative;
    cr.begin.assign(nl.num_gates() + 1, 0);
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      std::uint32_t slots = 0;
      if (classifying) {
        const netlist::Gate& gate = nl.gate(g);
        for (std::uint32_t p = 0; p < gate.pin_nets.size(); ++p) {
          if (netlist::is_timed_input(*gate.cell, p)) slots += 4;
        }
      }
      cr.begin[g + 1] = cr.begin[g] + slots;
    }
    cr.arcs.resize(cr.begin.back());
    if (options_.timing_windows) cr.windows.resize(cr.begin.back());
    cr.gate_flags.assign(nl.num_gates(), 0);
    return cr;
  };
  // Value-dirty flags of a pass against this run's previous pass.
  std::vector<char> cross_dirty;

  auto record_pass = [&](const PassConfig& cfg,
                         const std::vector<NetTiming>& pass_timing,
                         const std::vector<char>& active, int basis,
                         std::size_t diag_mark) {
    if (trace_out == nullptr) return;
    PassRecord rec;
    rec.timing = pass_timing;
    rec.active_gates = active;
    rec.basis_pass = basis;
    rec.diagnostics = sink_.slice(diag_mark);
    // Only an iterative pass's records are read again in this run.
    if (options_.mode == AnalysisMode::kIterative) {
      rec.classes = *cfg.classes;
    } else {
      rec.classes = std::move(*cfg.classes);
    }
    trace_out->passes.push_back(std::move(rec));
  };

  // Wires the reuse fields of pass k's PassConfig. The baseline is pass k
  // of the RunTrace when the pass is replayable; otherwise this run's
  // previous pass `previous` (pass k-1: the iterative loop only goes on
  // after an improving pass, which becomes the basis), when there is one.
  // Replay bookkeeping: every pass of a run with a RunTrace gets a
  // value-dirty array against it, all-dirty when not replayable.
  DiagsByGate replay_diags;  // of the pass being replayed
  auto configure_reuse = [&](PassConfig& cfg, std::size_t k, bool reusable,
                             int basis,
                             const std::vector<NetTiming>* previous) {
    if (keep_classes) cfg.classes = &pass_classes(k);
    if (base != nullptr) {
      dirty_by_pass.emplace_back(num_nets, reusable ? 0 : 1);
      if (reusable) {
        cfg.reuse_timing = &base->passes[k].timing;
        cfg.reuse_classes = &base->passes[k].classes;
        if (!base->passes[k].diagnostics.empty()) {
          replay_diags.build(base->passes[k].diagnostics,
                             design_.netlist->num_gates());
          cfg.reuse_diags = &replay_diags;
        }
        cfg.seed_dirty = seeds;
        cfg.value_dirty = &dirty_by_pass[k];
        if (basis >= 0) {
          cfg.basis_dirty = &dirty_by_pass[static_cast<std::size_t>(basis)];
        }
        return;
      }
    }
    if (cross_pass && previous != nullptr &&
        basis == static_cast<int>(k) - 1) {
      cfg.reuse_timing = previous;
      cfg.reuse_classes = &classes[(k - 1) % 2];
      cfg.cross_pass = true;
      cross_dirty.assign(num_nets, 0);
      cfg.value_dirty = &cross_dirty;
    }
  };

  if (options_.mode != AnalysisMode::kIterative) {
    PassConfig cfg;
    cfg.pass_index = 0;
    const bool reusable = pass_reusable(0, -1, no_mask);
    configure_reuse(cfg, 0, reusable, -1, nullptr);
    const std::size_t diag_mark = sink_.size();
    PassStatus st;
    result.longest_path_delay = run_pass(cfg, timing, endpoints, critical, st);
    result.passes = 1;
    result.budget.total_levels = st.total_levels;
    if (st.truncated) {
      // Anytime result: the computed level prefix is bitwise what a full
      // pass computes for those nets (every started level finished), and
      // unreached endpoints are explicitly untimed — never record this
      // partial pass as a reuse baseline.
      result.budget.exhausted = true;
      result.budget.reason = governor_.reason();
      result.budget.completed_passes = 0;
      result.budget.completed_levels = st.completed_levels;
      result.budget.untimed_endpoints = std::move(st.untimed_endpoints);
      report_truncation(governor_.reason(), 0, st, "pass truncated");
    } else {
      pass_valid.push_back(reusable ? 1 : 0);
      record_pass(cfg, timing, no_mask, -1, diag_mark);
      result.budget.completed_passes = 1;
      result.budget.completed_levels = st.total_levels;
    }
  } else {
    // §5.2: delay := default (first one-step pass, unknown neighbours are
    // assumed coupling); then refine with stored quiescent times while the
    // delay improves.
    PassConfig first;
    first.pass_index = 0;
    {
      const bool reusable = pass_reusable(0, -1, no_mask);
      configure_reuse(first, 0, reusable, -1, nullptr);
      pass_valid.push_back(reusable ? 1 : 0);
    }
    const std::size_t first_mark = sink_.size();
    PassStatus st;
    double delay = run_pass(first, timing, endpoints, critical, st);
    result.passes = 1;
    result.budget.total_levels = st.total_levels;
    if (st.truncated) {
      // Budget died inside the bounding pass: return its level prefix (the
      // same anytime result as a truncated one-step run) and skip
      // refinement entirely.
      result.longest_path_delay = delay;
      result.budget.exhausted = true;
      result.budget.reason = governor_.reason();
      result.budget.completed_passes = 0;
      result.budget.completed_levels = st.completed_levels;
      result.budget.untimed_endpoints = std::move(st.untimed_endpoints);
      report_truncation(governor_.reason(), 0, st, "bounding pass truncated");
    } else {
      record_pass(first, timing, no_mask, -1, first_mark);
      QuietTimes quiet = collect_quiet(timing);
      int basis = 0;  // pass whose timing supplied `quiet` and best_*

      // The best pass is moved, never copied: run_pass starts by
      // reassigning `timing` anyway.
      std::vector<NetTiming> best_timing = std::move(timing);
      std::vector<EndpointArrival> best_eps = std::move(endpoints);
      EndpointArrival best_crit = critical;
      double best = delay;
      result.budget.completed_passes = 1;
      result.budget.completed_levels = st.total_levels;

      while (result.passes < options_.max_passes) {
        const std::size_t k = static_cast<std::size_t>(result.passes);
        PassConfig cfg;
        cfg.previous = &quiet;
        cfg.pass_index = result.passes;
        std::vector<char> active;
        if (options_.esperance) {
          active = collect_esperance_gates(design_.netlist->num_gates(),
                                           best_timing, best_eps, best,
                                           options_.esperance_window);
          cfg.active_gates = &active;
          cfg.previous_timing = &best_timing;
        }
        const bool reusable = pass_reusable(k, basis, active);
        configure_reuse(cfg, k, reusable, basis, &best_timing);
        const double delay_old = best;
        const std::size_t diag_mark = sink_.size();
        PassStatus pst;
        delay = run_pass(cfg, timing, endpoints, critical, pst);
        ++result.passes;
        if (pst.truncated) {
          // Every completed pass only tightens the pass-1 upper bound, so
          // the best completed pass is a valid conservative answer on its
          // own — discard the partial refinement pass entirely (a level
          // prefix of pass k>0 is *not* a bound: it mixes refined and
          // unrefined quiet times).
          result.budget.exhausted = true;
          result.budget.reason = governor_.reason();
          report_truncation(governor_.reason(), result.passes - 1, pst,
                            "refinement pass discarded");
          break;
        }
        pass_valid.push_back(reusable ? 1 : 0);
        record_pass(cfg, timing, active, basis, diag_mark);
        result.budget.completed_passes = result.passes;
        if (delay < best) {
          best = delay;
          basis = static_cast<int>(k);
          std::swap(best_timing, timing);
          std::swap(best_eps, endpoints);
          best_crit = critical;
          quiet = collect_quiet(best_timing);
        }
        if (!(delay < delay_old - options_.convergence_eps)) break;
      }
      result.longest_path_delay = best;
      timing = std::move(best_timing);
      endpoints = std::move(best_eps);
      critical = best_crit;
    }
  }

  result.critical = critical;
  result.endpoints = std::move(endpoints);
  result.timing = std::move(timing);
  result.waveform_calculations =
      waveform_calcs_.load(std::memory_order_relaxed);
  result.missing_sink_wires = missing_sinks_.load(std::memory_order_relaxed);
  result.gates_reused = gates_reused_.load(std::memory_order_relaxed);
  result.budget.governor_checks = governor_.checks();

  if (metrics_ != nullptr) {
    metrics_->reduce_into(&result.metrics);
    result.metrics.threads = result.threads_used;
    result.metrics.waveform_calcs = result.waveform_calculations;
    result.metrics.gates_reused = result.gates_reused;
    result.metrics.governor_checkpoints = result.budget.governor_checks;
    result.metrics.run_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // The pool is quiescent here (every dispatch of the run has drained),
    // which is exactly the contract timing_total() enforces.
    const util::ThreadPool::Timing pt = pool_->timing_total();
    result.metrics.pool_busy_ns = pt.busy_ns;
    result.metrics.pool_wait_ns = pt.wait_ns;
    if (result.metrics.run_wall_seconds > 0.0) {
      result.metrics.pool_utilization =
          static_cast<double>(pt.busy_ns) * 1e-9 /
          (result.metrics.run_wall_seconds *
           static_cast<double>(pool_->num_threads()));
    }
  }

  // Thread scheduling permutes sink arrival order; the deterministic sort
  // makes the report identical for any thread count (and lets incremental
  // replays compare equal to from-scratch runs).
  result.diagnostics.entries = sink_.snapshot();
  std::sort(result.diagnostics.entries.begin(),
            result.diagnostics.entries.end(), util::diagnostic_order);
  result.diagnostics.dropped = sink_.dropped();
  governor_.finish();
  result.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

StaResult run_sta(const DesignView& design, const StaOptions& options) {
  StaEngine engine(design, options);
  return engine.run();
}

}  // namespace xtalk::sta
