// Coupling-aware invalidation for incremental re-timing.
//
// Classic incremental STA only re-times the structural fanout cone of an
// edit. Crosstalk breaks that: a change on net n can flip the worst-case
// coupling classification of every net capacitively adjacent to n (their
// quiet-time comparison against n moves), so the dirty set must close over
// the coupling neighbourhood as well — transitively, because a re-timed
// neighbour's own quiet time may move and disturb *its* neighbours.
//
// The closure is conservative (over-approximating the dirty set only costs
// recomputation, never correctness), but mode-aware:
//   - kBestCase/kStaticDoubled/kWorstCase never read neighbour timing
//     (their load split is structural), so only the fanout cone dirties;
//   - kOneStep reads a neighbour's quiet time only when the neighbour's
//     driver sits at a strictly lower level (the PR-1 snapshot rule), so
//     dirt propagates only "downward" across coupling edges;
//   - kIterative compares against the previous pass's stored quiet times
//     regardless of level, so dirt crosses every coupling edge.
#pragma once

#include <cstddef>
#include <vector>

#include "sta/engine.hpp"
#include "sta/incremental/editor.hpp"

namespace xtalk::sta::incremental {

struct DirtySet {
  /// Per net: structurally edited (pre-closure) — the ReuseHints seed set
  /// for StaEngine::run, which propagates from here dynamically with value
  /// cut-off.
  std::vector<char> seed_net;
  /// Per net: in the static (value-blind) closure of the seeds over
  /// fanout and the coupling edges read under the current levels. Used
  /// for statistics. In one-step mode a victim whose read of a releveled
  /// or early-moved neighbour flips can lie outside it; the engine's reuse
  /// test re-classifies and catches it, so no seed is needed.
  std::vector<char> dirty_net;
  /// Per gate: output net outside the static closure.
  std::vector<char> clean_gate;
  std::size_t dirty_nets = 0;
};

/// Seed from the edit log, close over fanout + coupling.
DirtySet build_dirty_set(const sta::DesignView& design,
                         const StaOptions& options,
                         const std::vector<EditRecord>& edits);

}  // namespace xtalk::sta::incremental
