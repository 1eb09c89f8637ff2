#include "sta/mcmm.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <utility>

namespace xtalk::sta {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

McmmResult run_mcmm(const DesignView& design, const StaOptions& options,
                    std::vector<Scenario> scenarios) {
  const auto t_start = std::chrono::steady_clock::now();

  if (scenarios.empty()) scenarios.push_back(Scenario{});
  for (const Scenario& s : scenarios) validate_scenario(s);

  // One pool for the whole invocation: scenario runs reuse the workers
  // instead of respawning them per scenario.
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_threads(options.num_threads));
    pool = owned_pool.get();
  }

  const bool need_nldm = options.delay_model == DelayModel::kNldm;
  std::map<CornerKey, std::shared_ptr<const ScenarioContext>> corners;

  McmmResult out;
  out.runs.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    ScenarioRun run;
    run.scenario = s;

    const CornerKey key = corner_key(s);
    auto it = corners.find(key);
    std::shared_ptr<const ScenarioContext> ctx;
    if (it != corners.end()) {
      ctx = it->second;
      run.shared_corner = true;
    } else {
      const auto t_prep = std::chrono::steady_clock::now();
      ctx = ScenarioContext::make(design, s, need_nldm);
      run.prep_seconds = seconds_since(t_prep);
      corners.emplace(key, ctx);
    }

    StaOptions opt = apply_scenario(options, s);
    opt.pool = pool;
    run.result = run_sta(ctx->view(design), opt);
    out.runs.push_back(std::move(run));
  }

  out.unique_corners = corners.size();
  out.runtime_seconds = seconds_since(t_start);
  return out;
}

}  // namespace xtalk::sta
