// Shared design state of the daemon.
//
// A DesignSession owns the fully-built design (netlist, layout, extracted
// parasitics, device tables — the expensive load happens ONCE, at daemon
// start) and serves it as an immutable base: analysis requests borrow
// DesignViews, ECO sessions overlay it copy-on-write through DesignEditor
// without ever mutating it, and a cache of full-run baselines answers
// endpoint/slack queries without re-running the engine per query.
//
// Concurrency: the design itself is immutable after construction, so any
// number of engines may read it in parallel (the COW overlays guarantee ECO
// sessions never write into shared state — test_concurrent_eco.cpp runs
// this under TSan). The baseline cache is mutex-guarded; a miss computes
// the result while holding the per-session compute lock, which serializes
// *baseline construction* (not request execution) — queries for an already
// cached spec are a lock + shared_ptr copy. The corner cache has its own
// mutex, so a `run` or `eco_open` looking up its corner never waits behind
// a baseline fill (lock order: baseline mutex, then corner mutex).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "service/protocol.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/scenario.hpp"

namespace xtalk::service {

class DesignSession {
 public:
  DesignSession(core::Design&& design, std::string name);

  const core::Design& design() const { return design_; }
  sta::DesignView view() const { return design_.view(); }
  const std::string& name() const { return name_; }

  /// The cached full-run result for `spec`'s numeric identity, computing it
  /// on `pool` (nullable: engine spawns its own) on first use. The shared
  /// result is immutable; hold the shared_ptr as long as needed.
  std::shared_ptr<const sta::StaResult> baseline(const RunSpec& spec,
                                                 util::ThreadPool* pool);

  /// Number of cached baselines (observability).
  std::size_t baselines_cached() const;

  /// The per-corner device-model context (scaled technology, rebuilt
  /// tables, NLDM when the spec's delay model needs one) for the corner
  /// (process, V/T) of `spec`'s scenario, built on first use and shared by
  /// every baseline and ECO session at that corner. The nominal corner
  /// borrows the base design's model untouched (pre-v4 behaviour, bitwise).
  std::shared_ptr<const sta::ScenarioContext> corner(const RunSpec& spec);

  /// Number of cached corner contexts (observability).
  std::size_t corners_cached() const;

 private:
  core::Design design_;
  std::string name_;
  mutable std::mutex mutex_;  ///< guards baselines_
  std::map<std::string, std::shared_ptr<const sta::StaResult>> baselines_;
  mutable std::mutex corner_mutex_;  ///< guards corners_
  /// Corner contexts keyed on (corner, needs-NLDM); immutable once built.
  std::map<std::pair<sta::CornerKey, bool>,
           std::shared_ptr<const sta::ScenarioContext>>
      corners_;
};

/// One client ECO session: a COW editor over the shared base plus the
/// incremental re-timing session that replays cached passes. Owned by the
/// connection that opened it; never shared across connections.
struct EcoSession {
  explicit EcoSession(DesignSession& base, const RunSpec& spec,
                      util::ThreadPool* pool,
                      util::CancelToken* cancel = nullptr);

  RunSpec spec;
  /// Keeps this session's corner model alive (shared with the base
  /// session's corner cache; the editor's COW view borrows its tables).
  std::shared_ptr<const sta::ScenarioContext> corner;
  std::unique_ptr<sta::incremental::DesignEditor> editor;
  std::unique_ptr<sta::incremental::IncrementalSta> sta;
};

}  // namespace xtalk::service
