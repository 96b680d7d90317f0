#include "core/solver_options.h"

#include <string>

namespace emp {

Status ValidateSolverOptions(const SolverOptions& options) {
  if (options.construction_iterations < 1) {
    return Status::InvalidArgument(
        "SolverOptions.construction_iterations must be >= 1 (got " +
        std::to_string(options.construction_iterations) + ")");
  }
  if (options.construction_threads < 1) {
    return Status::InvalidArgument(
        "SolverOptions.construction_threads must be >= 1 (got " +
        std::to_string(options.construction_threads) + ")");
  }
  if (options.avg_merge_limit < 0) {
    return Status::InvalidArgument(
        "SolverOptions.avg_merge_limit must be >= 0 (got " +
        std::to_string(options.avg_merge_limit) + ")");
  }
  if (options.tabu_tenure < 0) {
    return Status::InvalidArgument(
        "SolverOptions.tabu_tenure must be >= 0 (got " +
        std::to_string(options.tabu_tenure) + ")");
  }
  if (options.tabu_max_no_improve < -1) {
    return Status::InvalidArgument(
        "SolverOptions.tabu_max_no_improve must be >= -1 (-1 = number of "
        "areas; got " +
        std::to_string(options.tabu_max_no_improve) + ")");
  }
  if (options.tabu_max_iterations < -1) {
    return Status::InvalidArgument(
        "SolverOptions.tabu_max_iterations must be >= -1 (-1 = no cap; "
        "got " +
        std::to_string(options.tabu_max_iterations) + ")");
  }
  if (options.portfolio_replicas < 1) {
    return Status::InvalidArgument(
        "SolverOptions.portfolio_replicas must be >= 1 (got " +
        std::to_string(options.portfolio_replicas) + ")");
  }
  if (options.portfolio_threads < 1) {
    return Status::InvalidArgument(
        "SolverOptions.portfolio_threads must be >= 1 (got " +
        std::to_string(options.portfolio_threads) + ")");
  }
  if (options.portfolio_target_p < -1) {
    return Status::InvalidArgument(
        "SolverOptions.portfolio_target_p must be >= -1 (-1 = disabled; "
        "got " +
        std::to_string(options.portfolio_target_p) + ")");
  }
  if (options.time_budget_ms < -1) {
    return Status::InvalidArgument(
        "SolverOptions.time_budget_ms must be >= -1 (-1 = no limit; got " +
        std::to_string(options.time_budget_ms) + ")");
  }
  if (options.max_evaluations < -1) {
    return Status::InvalidArgument(
        "SolverOptions.max_evaluations must be >= -1 (-1 = no limit; got " +
        std::to_string(options.max_evaluations) + ")");
  }
  return Status::OK();
}

RunContext MakeRunContext(const SolverOptions& options) {
  RunContext ctx;
  if (options.time_budget_ms >= 0) {
    ctx.deadline = Deadline::AfterMillis(options.time_budget_ms);
  }
  ctx.max_evaluations = options.max_evaluations;
  return ctx;
}

}  // namespace emp
