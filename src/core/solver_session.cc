#include "core/solver_session.h"

#include <utility>

namespace cdpd {

Status SessionOptions::Validate() const {
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (cost_cache_max_bytes < 0) {
    return Status::InvalidArgument(
        "cost_cache_max_bytes must be >= 0 (0 = unbounded)");
  }
  return Status::OK();
}

SolverSession::SolverSession(SessionOptions options)
    : options_(std::move(options)) {
  if (options_.num_threads < 0) options_.num_threads = 0;
  if (options_.cost_cache_max_bytes < 0) options_.cost_cache_max_bytes = 0;
  threads_ = options_.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                       : options_.num_threads;
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(threads_);
    if (options_.observability.metrics != nullptr) {
      pool_->EnableMetrics(options_.observability.metrics);
    }
    if (options_.observability.logger != nullptr) {
      pool_->EnableLogging(options_.observability.logger);
    }
  }
  if (options_.enable_cost_cache) {
    cost_cache_ = std::make_unique<CostCache>(options_.cost_cache_max_bytes);
  }
}

Result<SolveResult> SolverSession::Solve(const DesignProblem& problem,
                                         const SolveOptions& options) {
  SolveOptions effective = options;
  // Per-call resources win; the session's fill the gaps. With no pool
  // to lend, the session pins its own (serial) thread count so Solve()
  // does not spawn a default-size pool: the session owns the threads.
  if (effective.pool == nullptr) effective.pool = pool_.get();
  if (effective.pool == nullptr) effective.num_threads = threads_;
  if (effective.cost_cache == nullptr) {
    effective.cost_cache = cost_cache_.get();
  }
  effective.observability =
      options.observability.OrElse(options_.observability);
  CDPD_ASSIGN_OR_RETURN(SolveResult result,
                        cdpd::Solve(problem, effective));
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_stats_.Accumulate(result.stats);
    ++solves_;
  }
  return result;
}

SolveStats SolverSession::total_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_stats_;
}

int64_t SolverSession::solves() const {
  std::lock_guard<std::mutex> lock(mu_);
  return solves_;
}

}  // namespace cdpd
