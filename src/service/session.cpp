#include "service/session.hpp"

#include <chrono>
#include <utility>

namespace xtalk::service {

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DesignSession::DesignSession(core::Design&& design, std::string name)
    : design_(std::move(design)), name_(std::move(name)) {}

std::shared_ptr<const sta::StaResult> DesignSession::baseline(
    const RunSpec& spec, util::ThreadPool* pool) {
  const std::string key = spec.cache_key();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = baselines_.find(key);
  if (it != baselines_.end()) return it->second;
  // Cache miss: compute under the lock. Queries are expected to share a few
  // specs; serializing the occasional fill is simpler and keeps exactly one
  // engine per spec (two concurrent fills would produce bitwise-identical
  // results anyway, but waste a full run).
  RunSpec numeric = spec;
  numeric.trace_path.clear();  // cache entries are shared; no per-request file
  numeric.collect_metrics = false;
  sta::StaOptions options = numeric.to_options();
  options.pool = pool;
  const std::shared_ptr<const sta::ScenarioContext> ctx =
      corner_locked(numeric);
  auto result = std::make_shared<sta::StaResult>(
      sta::run_sta(ctx->view(design_.view()), options));
  baselines_.emplace(key, result);
  baseline_specs_.emplace(key, numeric);
  if (!snapshot_path_.empty()) persist_baselines_locked();
  return result;
}

std::size_t DesignSession::baselines_cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return baselines_.size();
}

std::shared_ptr<const sta::ScenarioContext> DesignSession::corner(
    const RunSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  return corner_locked(spec);
}

std::size_t DesignSession::corners_cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return corners_.size();
}

std::shared_ptr<const sta::ScenarioContext> DesignSession::corner_locked(
    const RunSpec& spec) {
  const bool need_nldm = spec.delay_model == sta::DelayModel::kNldm;
  const auto key = std::make_pair(sta::corner_key(spec.scenario), need_nldm);
  auto it = corners_.find(key);
  if (it != corners_.end()) return it->second;
  auto ctx =
      sta::ScenarioContext::make(design_.view(), spec.scenario, need_nldm);
  corners_.emplace(key, ctx);
  return ctx;
}

void DesignSession::enable_persistence(const std::string& state_dir,
                                       bool do_fsync) {
  const std::string path = state_dir + "/baselines.snap";
  fsync_ = do_fsync;

  // Warm restart: re-derive every baseline the previous generation had
  // memoized. The engine's bitwise determinism makes recomputation exactly
  // as trustworthy as storing result bytes, with none of the skew risk.
  std::vector<RunSpec> warm;
  std::vector<std::uint8_t> payload;
  std::string error;
  const util::PersistStatus st = util::load_snapshot(
      path, kSnapKindBaselines, kSnapVersion, &payload, &error);
  if (st == util::PersistStatus::kOk) {
    util::WireReader r(payload);
    std::uint32_t n = 0;
    if (r.array(&n, /*min_item_bytes=*/48)) {
      warm.resize(n);
      for (RunSpec& spec : warm) {
        if (!spec.decode(r)) {
          warm.clear();  // skewed snapshot: start cold, never half-decoded
          break;
        }
      }
    }
  }
  for (const RunSpec& spec : warm) baseline(spec, nullptr);

  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_path_ = path;
  persist_baselines_locked();
}

std::uint64_t DesignSession::snapshot_age_ms() const {
  const std::int64_t at = last_snapshot_steady_ms_.load(std::memory_order_relaxed);
  if (at < 0) return 0;
  const std::int64_t age = steady_now_ms() - at;
  return age > 0 ? static_cast<std::uint64_t>(age) : 0;
}

void DesignSession::persist_baselines_locked() {
  util::WireWriter w;
  w.array(baseline_specs_.size());
  for (const auto& [key, spec] : baseline_specs_) spec.encode(w);
  std::string error;
  if (util::save_snapshot(snapshot_path_, kSnapKindBaselines, kSnapVersion,
                          w.data(), &error, fsync_) == util::PersistStatus::kOk) {
    last_snapshot_steady_ms_.store(steady_now_ms(), std::memory_order_relaxed);
  }
}

EcoSession::EcoSession(DesignSession& base, const RunSpec& run_spec,
                       util::ThreadPool* pool, util::CancelToken* cancel)
    : spec(run_spec), corner(base.corner(run_spec)) {
  editor = std::make_unique<sta::incremental::DesignEditor>(
      corner->view(base.design().view()));
  sta::StaOptions options = spec.to_options();
  options.pool = pool;
  options.cancel = cancel;
  sta = std::make_unique<sta::incremental::IncrementalSta>(*editor, options);
}

// ---------------------------------------------------------------------------
// Session WAL records
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_wal_open(std::uint64_t token,
                                          const RunSpec& spec) {
  util::WireWriter w;
  w.u64(token);
  spec.encode(w);
  return w.data();
}

std::vector<std::uint8_t> encode_wal_edit(std::uint64_t token,
                                          std::uint64_t batch_seq,
                                          const std::vector<EcoOp>& ops) {
  util::WireWriter w;
  w.u64(token);
  w.u64(batch_seq);
  w.array(ops.size());
  for (const EcoOp& op : ops) op.encode(w);
  return w.data();
}

std::vector<std::uint8_t> encode_wal_close(std::uint64_t token) {
  util::WireWriter w;
  w.u64(token);
  return w.data();
}

std::map<std::uint64_t, SessionRecord> fold_session_wal(
    const std::vector<util::WalRecord>& records) {
  std::map<std::uint64_t, SessionRecord> live;
  for (const util::WalRecord& rec : records) {
    util::WireReader r(rec.payload);
    std::uint64_t token = 0;
    if (!r.u64(&token)) continue;
    switch (static_cast<WalRecordType>(rec.type)) {
      case WalRecordType::kSessionOpen: {
        SessionRecord sr;
        sr.token = token;
        if (!sr.spec.decode(r) || !r.finish()) continue;
        live[token] = std::move(sr);
        break;
      }
      case WalRecordType::kSessionEdit: {
        auto it = live.find(token);
        if (it == live.end()) continue;  // edit for a closed/unknown session
        std::uint64_t batch_seq = 0;
        std::uint32_t n = 0;
        if (!r.u64(&batch_seq) || !r.array(&n, /*min_item_bytes=*/33)) continue;
        std::vector<EcoOp> ops(n);
        bool ok = true;
        for (EcoOp& op : ops) {
          if (!op.decode(r)) {
            ok = false;
            break;
          }
        }
        if (!ok || !r.finish()) continue;
        // Acknowledged batches are strictly sequential; anything else is a
        // duplicate from a pre-compaction overlap and is dropped.
        if (batch_seq != it->second.applied_seq + 1) continue;
        it->second.batches.push_back(std::move(ops));
        it->second.applied_seq = batch_seq;
        break;
      }
      case WalRecordType::kSessionClose:
        live.erase(token);
        break;
      default:
        break;  // future record type: skip, never fail the replay
    }
  }
  return live;
}

std::vector<util::WalRecord> compact_session_wal(
    const std::map<std::uint64_t, SessionRecord>& live) {
  std::vector<util::WalRecord> out;
  for (const auto& [token, sr] : live) {
    util::WalRecord open;
    open.type = static_cast<std::uint16_t>(WalRecordType::kSessionOpen);
    open.payload = encode_wal_open(token, sr.spec);
    out.push_back(std::move(open));
    for (std::size_t i = 0; i < sr.batches.size(); ++i) {
      util::WalRecord edit;
      edit.type = static_cast<std::uint16_t>(WalRecordType::kSessionEdit);
      edit.payload = encode_wal_edit(token, i + 1, sr.batches[i]);
      out.push_back(std::move(edit));
    }
  }
  return out;
}

}  // namespace xtalk::service
