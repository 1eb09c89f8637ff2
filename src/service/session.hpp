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
// cached spec are a lock + shared_ptr copy.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "service/protocol.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/scenario.hpp"
#include "util/persist.hpp"

namespace xtalk::service {

// Snapshot kinds under --state-dir (util::persist snapshot headers).
inline constexpr std::uint16_t kSnapKindGeneration = 1;  ///< u64 restart gen
inline constexpr std::uint16_t kSnapKindBaselines = 2;   ///< memoized RunSpecs
inline constexpr std::uint16_t kSnapKindDesign = 3;      ///< design recipe
/// v2: RunSpec gained the MCMM scenario identity (name, vdd_scale,
/// temperature, coupling derate). v3: RunSpec lost its scheduler byte.
/// v4: RunSpec's scenario gained the mode override and the process corner.
/// Each changes the encoded baseline/WAL-open payloads; older state files
/// load as kVersionSkew and the server starts cold — never a half-decoded
/// spec.
inline constexpr std::uint16_t kSnapVersion = 4;

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

  /// Crash-only durability: snapshot the set of memoized baseline specs to
  /// `<state_dir>/baselines.snap` on every cache fill, and — right now —
  /// re-warm every spec found in an existing snapshot. Results are not
  /// stored byte-for-byte: the engine is bitwise deterministic, so replaying
  /// the spec reproduces the exact result, and a restarted server answers
  /// queries warm instead of cold.
  void enable_persistence(const std::string& state_dir, bool do_fsync);

  /// Milliseconds since the baseline snapshot was last written (0 when
  /// persistence is off or nothing has been snapshotted yet).
  std::uint64_t snapshot_age_ms() const;

 private:
  void persist_baselines_locked();
  std::shared_ptr<const sta::ScenarioContext> corner_locked(
      const RunSpec& spec);

  core::Design design_;
  std::string name_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const sta::StaResult>> baselines_;
  std::map<std::string, RunSpec> baseline_specs_;  ///< cache_key → spec
  /// Corner contexts keyed on (corner, needs-NLDM); immutable once built.
  std::map<std::pair<sta::CornerKey, bool>,
           std::shared_ptr<const sta::ScenarioContext>>
      corners_;
  std::string snapshot_path_;  ///< empty = persistence off
  bool fsync_ = true;
  std::atomic<std::int64_t> last_snapshot_steady_ms_{-1};
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
  /// Durable identity (0 on a volatile server): survives connection loss
  /// and server restart; clients re-bind with kEcoResume.
  std::uint64_t token = 0;
  /// Highest acknowledged (WAL-durable) batch_seq.
  std::uint64_t applied_seq = 0;
};

// ---------------------------------------------------------------------------
// Server-side session WAL records
// ---------------------------------------------------------------------------

/// Record types in `<state_dir>/sessions.wal`. Append only.
enum class WalRecordType : std::uint16_t {
  kSessionOpen = 1,   ///< u64 token + RunSpec
  kSessionEdit = 2,   ///< u64 token + u64 batch_seq + EcoOp array
  kSessionClose = 3,  ///< u64 token
};

/// The durable mirror of one ECO session: everything needed to rebuild the
/// live COW editor + incremental engine by deterministic replay.
struct SessionRecord {
  std::uint64_t token = 0;
  RunSpec spec;
  std::vector<std::vector<EcoOp>> batches;  ///< batch i carries seq i+1
  std::uint64_t applied_seq = 0;            ///< == batches.size()
};

std::vector<std::uint8_t> encode_wal_open(std::uint64_t token,
                                          const RunSpec& spec);
std::vector<std::uint8_t> encode_wal_edit(std::uint64_t token,
                                          std::uint64_t batch_seq,
                                          const std::vector<EcoOp>& ops);
std::vector<std::uint8_t> encode_wal_close(std::uint64_t token);

/// Fold replayed WAL records into the live session set (open starts a
/// record, edits accumulate, close erases). Records that fail to decode are
/// skipped — a hostile or skewed state file degrades to fewer sessions,
/// never to wrong ones.
std::map<std::uint64_t, SessionRecord> fold_session_wal(
    const std::vector<util::WalRecord>& records);

/// Re-encode the live set as a minimal record list (compaction).
std::vector<util::WalRecord> compact_session_wal(
    const std::map<std::uint64_t, SessionRecord>& live);

}  // namespace xtalk::service
