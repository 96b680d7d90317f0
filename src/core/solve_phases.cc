#include "core/solve_phases.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/feasibility.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/tabu.h"
#include "core/run_events.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {

namespace {

/// Whole-run metrics, written once per run by the bracket around it.
void RecordRunMetrics(const RunContext& ctx, const Solution& solution,
                      double seconds) {
  obs::MetricRegistry* metrics = ctx.metrics;
  if (metrics == nullptr) return;
  metrics->GetCounter("emp_solver_evaluations_total")->Add(ctx.evaluations());
  metrics->GetGauge("emp_solver_seconds")->Set(seconds);
  metrics->GetGauge("emp_solution_p")->Set(solution.p());
  metrics->GetGauge("emp_solution_heterogeneity")->Set(solution.heterogeneity);
}

}  // namespace

Result<Solution> RunBracketed(const AreaSet* areas,
                              const SolverOptions& options,
                              const RunContext& ctx,
                              const std::function<Result<Solution>()>& body) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (areas == nullptr) {
    return Status::InvalidArgument("solver: null area set");
  }
  RunEvents events(ctx);
  events.RunBegin(options, *areas);
  Stopwatch run_timer;
  Result<Solution> result = body();
  if (result.ok()) RecordRunMetrics(ctx, *result, run_timer.ElapsedSeconds());
  events.RunEnd(result, run_timer.ElapsedSeconds());
  return result;
}

Status FeasibilityPhase(const BoundConstraints& bound, const RunContext& ctx,
                        Solution* solution) {
  RunEvents events(ctx);
  events.PhaseBegin("feasibility");
  Stopwatch feasibility_timer;
  {
    obs::ScopedSpan span(ctx.trace, "feasibility");
    PhaseSupervisor supervisor(&ctx, "feasibility");
    EMP_ASSIGN_OR_RETURN(solution->feasibility,
                         CheckFeasibility(bound, &supervisor));
    solution->feasibility_seconds = feasibility_timer.ElapsedSeconds();
    obs::Set(obs::GetGauge(ctx.metrics, "emp_feasibility_seconds"),
             solution->feasibility_seconds);
    events.FeasibilityEnd(solution->feasibility,
                          solution->feasibility_seconds);
    if (auto reason = supervisor.tripped()) {
      events.Termination("feasibility", *reason);
      // Interrupted before the verdict: neither feasibility nor
      // infeasibility is proven, so the only safe best-effort answer is
      // the empty solution (p = 0, everything unassigned).
      solution->termination_reason = *reason;
      return Status::OK();
    }
  }
  if (!solution->feasibility.feasible) {
    return Status::Infeasible(Join(solution->feasibility.diagnostics, "; "));
  }
  return Status::OK();
}

void EndConstruction(const RunContext& ctx, const Partition& partition,
                     Solution* solution) {
  solution->heterogeneity_before_local_search =
      ComputeHeterogeneity(partition);
  solution->heterogeneity = solution->heterogeneity_before_local_search;
  solution->tabu_result.initial_heterogeneity = solution->heterogeneity;
  solution->tabu_result.final_heterogeneity = solution->heterogeneity;
  RunEvents events(ctx);
  if (solution->termination_reason != TerminationReason::kConverged) {
    events.Termination("construction", solution->termination_reason);
  }
  events.ConstructionEnd(partition.NumRegions(), *solution);
}

Status TabuPhase(const SolverOptions& options, const RunContext& ctx,
                 int64_t worker, Partition* partition, Solution* solution) {
  if (!options.run_local_search || partition->NumRegions() == 0) {
    return Status::OK();
  }
  RunEvents events(ctx);
  events.PhaseBegin("tabu");
  ConnectivityChecker connectivity(&partition->bound().areas().graph());
  Stopwatch tabu_timer;
  obs::ScopedSpan span(ctx.trace, "tabu", worker);
  PhaseSupervisor supervisor(&ctx, "tabu", worker);
  EMP_ASSIGN_OR_RETURN(solution->tabu_result,
                       TabuSearch(options, &connectivity, partition,
                                  /*objective=*/nullptr, &supervisor));
  solution->local_search_seconds = tabu_timer.ElapsedSeconds();
  solution->heterogeneity = solution->tabu_result.final_heterogeneity;
  if (solution->termination_reason == TerminationReason::kConverged) {
    solution->termination_reason = solution->tabu_result.termination;
  }
  if (solution->tabu_result.termination != TerminationReason::kConverged) {
    events.Termination("tabu", solution->tabu_result.termination);
  }
  events.TabuEnd(solution->tabu_result, solution->local_search_seconds);
  obs::Set(obs::GetGauge(ctx.metrics, "emp_tabu_seconds"),
           solution->local_search_seconds);
  return Status::OK();
}

}  // namespace emp
