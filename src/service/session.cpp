#include "service/session.hpp"

#include <utility>

namespace xtalk::service {

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
  sta::StaOptions options = spec.to_options();
  options.pool = pool;
  const std::shared_ptr<const sta::ScenarioContext> ctx = corner(spec);
  auto result = std::make_shared<sta::StaResult>(
      sta::run_sta(ctx->view(design_.view()), options));
  baselines_.emplace(key, result);
  return result;
}

std::size_t DesignSession::baselines_cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return baselines_.size();
}

std::size_t DesignSession::corners_cached() const {
  std::lock_guard<std::mutex> lock(corner_mutex_);
  return corners_.size();
}

std::shared_ptr<const sta::ScenarioContext> DesignSession::corner(
    const RunSpec& spec) {
  std::lock_guard<std::mutex> lock(corner_mutex_);
  const bool need_nldm = spec.delay_model == sta::DelayModel::kNldm;
  const auto key = std::make_pair(sta::corner_key(spec.scenario), need_nldm);
  auto it = corners_.find(key);
  if (it != corners_.end()) return it->second;
  auto ctx =
      sta::ScenarioContext::make(design_.view(), spec.scenario, need_nldm);
  corners_.emplace(key, ctx);
  return ctx;
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

}  // namespace xtalk::service
